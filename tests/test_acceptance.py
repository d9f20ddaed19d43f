"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line (visible with pytest -s); a failed
assertion is the corresponding fail.
"""

import math
import random
from itertools import chain

from crosscap4.bounds import invariants, obstruction_audit
from crosscap4.cli import main
from crosscap4.heegaard import d_b_circle_bundle, t0
from crosscap4.oracle import sigma_lattice
from crosscap4.pinch import pinch_runs, run_columns
from crosscap4.reports import family_table, json_parts, report
from crosscap4.torus import alexander, canonicalize, sigma_rec
from oracles import (alexander_family, d_minus1_alternating,
                     minmax_over_framings)


def coprime_pairs(limit):
    for p in range(3, limit + 1):
        for q in range(2, p):
            if math.gcd(p, q) == 1:
                yield p, q


def ok(n, text):
    print("PASS criterion %d: %s" % (n, text))


def test_criterion_01_flagship_family():
    table = family_table(25)
    for r, k in zip(table, range(2, 26)):
        assert r.gamma4_lower == k - 1
        assert r.gamma4_upper == k - 1
        assert r.exact
    # The library takes any size: only the commands that print a trace
    # bound p.  k = 500,001 is the first k above the `report` limit.
    rng = random.Random(1)
    ks = [500001] + [rng.randrange(2, 10 ** rng.randint(1, 999))
                     for _ in range(50)]
    for k in ks:
        r = report(2 * k, 2 * k - 1)
        assert r.gamma4_lower == r.gamma4_upper == k - 1
        assert r.exact
    ok(1, "gamma4(T(2k,2k-1)) = k-1 exactly for k = 2..25, k = 500,001 "
       "and 50 random k below 10^999")


def test_criterion_02_signature_oracle_equivalence():
    count = 0
    for p, q in coprime_pairs(150):
        assert sigma_rec(p, q) == sigma_lattice(p, q), (p, q)
        count += 1
    ok(2, "sigma_rec == sigma_lattice on all %d coprime pairs <= 150"
       % count)


def test_criterion_03_signature_family_closed_form():
    for k in range(2, 51):
        assert sigma_rec(2 * k, 2 * k - 1) == 2 * k * k - 2
    ok(3, "sigma(2k,2k-1) = 2k^2-2 for k = 2..50")


def test_criterion_04_torsion_coefficient():
    for k in range(2, 31):
        assert t0(2 * k, 2 * k - 1) == (k * k - k) // 2
    ok(4, "t0(2k,2k-1) = (k^2-k)/2 for k = 2..30")


def test_criterion_05_d_invariant_family():
    for k in range(2, 31):
        d_minus1_left = invariants(2 * k, 2 * k - 1)[4]
        assert d_minus1_left == k * k - k
    ok(5, "d(-1-surgery) of left T(2k,2k-1) = k^2-k for k = 2..30")


def test_criterion_06_alexander_family_and_properties():
    for k in range(2, 31):
        assert alexander_family(k) == alexander(2 * k, 2 * k - 1), k
    for p, q in coprime_pairs(40):
        poly = alexander(p, q)
        assert all(poly.get(-e) == c for e, c in poly.items())
        assert sum(poly.values()) == 1
        assert max(poly) == (p - 1) * (q - 1) // 2
        assert set(poly.values()) <= {-1, 1}
    ok(6, "family formula matches product formula; Alexander properties "
          "hold for all coprime p,q <= 40")


def test_criterion_07_alternating_cross_check():
    for q in range(3, 100, 2):
        assert d_minus1_alternating(sigma_rec(q, 2)) == 2 * t0(q, 2), q
    ok(7, "alternating d-formula agrees with lens-space formula on T(2,q), "
          "odd q in [3, 99]")


def test_criterion_08_closed_form_equals_brute_force():
    count = 0
    for p, q in coprime_pairs(60):
        K = canonicalize(p, q)
        B = (p - 1) * (q - 1)
        # The brute force covers both chiralities, over a window holding
        # the window [s - 4B, s + 4B] of each chirality's signature s.
        s = sigma_rec(p, q)
        brute = minmax_over_framings(K, -s - 4 * B, s + 4 * B)
        assert invariants(p, q)[5] == brute, (p, q)
        count += 1
    ok(8, "gamma4_lower = brute-force min-max over both chiralities of %d "
          "knots" % count)


def test_criterion_09_pinch_invariants():
    for p, q in coprime_pairs(300):
        steps = list(chain.from_iterable(
            zip(*run_columns(run)) for run in pinch_runs(canonicalize(p, q))))
        prev_max = p
        for step in steps:
            fp, fq, _, _, r, s = step
            assert (r - fp) % 2 == 0 and (s - fq) % 2 == 0
            assert math.gcd(abs(r), abs(s)) == 1
            assert max(abs(r), abs(s)) < prev_max
            prev_max = max(abs(r), abs(s), 1)
        assert len(steps) < p
    for k in range(1, 51):
        assert report(2 * k + 1, 2).gamma4_upper == 1
    for p, q in coprime_pairs(100):
        steps = sum(run[5] for run in pinch_runs(canonicalize(p, q)))
        assert max(1, steps) >= invariants(p, q)[5], (p, q)
    ok(9, "pinch parity/primitivity/decrease/termination <= 300; Mobius "
          "bands for T(2k+1,2); upper >= lower <= 100")


def test_criterion_10_gamma3_values(capsys):
    assert report(4, 3).gamma3_upper == 2
    for k in range(2, 26):
        assert report(2 * k, 2 * k - 1).gamma3_upper == k
    capsys.readouterr()
    assert main(["pinch", "7", "3", "--gamma3"]) == 2
    assert capsys.readouterr() == (
        "", "error: in-S^3 continuation needs p*q even, got T(7,3)\n")
    ok(10, "gamma3(T(4,3)) = 2; gamma3(T(2k,2k-1)) = k for k = 2..25; "
           "parity guard")


def test_criterion_11_section3_audit():
    checked = 0
    for g in range(0, 21):
        for m in range(1, 41):
            if 4 * m - 1 <= 2 * g:
                continue
            rec = obstruction_audit(g, m, 0)
            assert rec.c1sq_direct == rec.c1sq_reduced
            assert rec.pairing == rec.n - 2 * g
            checked += 1
    assert d_b_circle_bundle(0, 1) == 0
    ok(11, "obstruction audit succeeded on %d (g, m) pairs; d_b(0,1) = 0"
       % checked)


def test_criterion_12_specific_certificates(capsys):
    r43 = report(4, 3)
    assert (r43.gamma4_lower, r43.gamma4_upper) == (1, 1)
    r53 = report(5, 3)
    assert r53.gamma4_upper == 1
    assert [run[5] for run in r53.pinch_runs] == [1]  # single pinch

    outputs = []
    for _ in range(2):
        code = main(["report", "4", "3", "--json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "".join(json_parts(report(4, 3))) == \
        "".join(json_parts(report(4, 3)))
    ok(12, "gamma4(T(4,3)) = 1; T(5,3) upper bound from one pinch; CLI "
           "output byte-identical across runs")

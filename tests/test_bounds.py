import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crosscap4 import cli
from crosscap4.bounds import (AuditRecord, framed_profile, invariants,
                              obstruction_audit)
from crosscap4.errors import InputError
from crosscap4.reports import report
from crosscap4.torus import Hand, TorusKnotClass, canonicalize, sigma_rec
from oracles import (dinv_numbers, hand_invariants, minmax_over_framings,
                     mirror, oracle_invariants)


def gamma4_lower(K):
    """The kernel's lower bound for K; the hand does not enter."""
    return invariants(K.p, K.q)[5]


def framed_lower(K, n):
    """The combined bound of the single-row profile at framing n."""
    (row,) = framed_profile(K, n, n)
    assert row[0] == n
    return row[3]


def test_framed_lower_moebius_band_tight():
    # the Mobius band bounding the right trefoil has e = -6, n = -3
    K = TorusKnotClass(3, 2, Hand.RIGHT)
    assert framed_lower(K, -3) == 1


def test_framed_lower_left_t43():
    assert framed_lower(TorusKnotClass(4, 3, Hand.LEFT), 4) == 2


def test_framed_lower_at_signature_framing():
    for K in [TorusKnotClass(5, 3, Hand.LEFT),
              TorusKnotClass(7, 2, Hand.RIGHT)]:
        s, dm1 = hand_invariants(K)
        assert framed_lower(K, s) == max(0, s - 2 * dm1)


def test_gamma4_lower_values():
    assert gamma4_lower(canonicalize(4, 3)) == 1
    assert gamma4_lower(TorusKnotClass(4, 3, Hand.LEFT)) == 1
    assert gamma4_lower(canonicalize(6, 5)) == 2
    assert gamma4_lower(canonicalize(8, 7)) == 3
    assert gamma4_lower(canonicalize(3, 2)) == 1


def test_gamma4_lower_family():
    for k in range(2, 26):
        assert gamma4_lower(canonicalize(2 * k, 2 * k - 1)) == k - 1


def test_gamma4_lower_mirror_invariant():
    # the kernel takes no hand, so a knot and its mirror share one bound,
    # and that bound is the max over both hands of the oracle's sigma/2 - d
    for p, q in [(3, 2), (6, 5), (7, 3), (9, 4)]:
        K = canonicalize(p, q)
        assert gamma4_lower(K) == gamma4_lower(mirror(K)) == max(
            1, *(s // 2 - d for s, d in map(hand_invariants, (K, mirror(K)))))


def test_minmax_matches_closed_form():
    assert minmax_over_framings(canonicalize(6, 5), -100, 100) == 2
    assert minmax_over_framings(canonicalize(3, 2), -20, 20) == 1


def test_minmax_window_exclusion_negative_control():
    assert minmax_over_framings(canonicalize(6, 5), 50, 60) > 2


def test_minmax_equals_closed_form_sweep():
    for p in range(3, 25):
        for q in range(2, p):
            if math.gcd(p, q) != 1:
                continue
            K = canonicalize(p, q)
            s = sigma_rec(p, q)
            B = (p - 1) * (q - 1)
            for Kc in (K, mirror(K)):
                assert gamma4_lower(Kc) == \
                    minmax_over_framings(Kc, s - 4 * B, s + 4 * B), (p, q)


coprime_below_300 = st.tuples(st.integers(3, 299), st.integers(2, 298)).filter(
    lambda pq: pq[1] < pq[0] and math.gcd(*pq) == 1)


@settings(max_examples=60, deadline=None)
@given(coprime_below_300)
def test_invariants_match_oracles(pq):
    p, q = pq
    inv = invariants(p, q)
    s_right, s_left, t, d_right, d_left = oracle_invariants(p, q)
    assert inv == (s_right, s_left, t, d_right, d_left,
                   max(1, s_right // 2 - d_right, s_left // 2 - d_left))
    assert report(p, q)[2:8] == inv
    right_m1, right_p1, left_m1, left_p1 = dinv_numbers(p, q)
    assert (right_m1, left_m1) == (d_right, d_left)
    assert (right_p1, left_p1) == (-left_m1, -right_m1)


def test_framed_profile_rows():
    K = TorusKnotClass(4, 3, Hand.LEFT)
    rows = list(framed_profile(K, 3, 5))
    assert [r[0] for r in rows] == [3, 4, 5]
    n, sig_b, d_b, comb = rows[1]
    assert (sig_b, d_b, comb) == (2, 0, 2)


def profile(capsys, n_from, n_to):
    """Exit code, stdout and stderr of `profile 4 3 --from n_from --to n_to
    --csv`."""
    code = cli.main(["profile", "4", "3", "--from", str(n_from),
                     "--to", str(n_to), "--csv"])
    out, err = capsys.readouterr()
    return code, out, err


def test_framed_profile_row_limit(capsys, monkeypatch):
    # The limit is the command's; a small one checks the boundary without
    # printing 10^6 rows.
    monkeypatch.setattr(cli, "PROFILE_MAX_ROWS", 3)
    code, out, err = profile(capsys, -1, 1)
    assert (code, out.count("\n"), err) == (0, 4, "")  # header and 3 rows
    assert profile(capsys, -1, 2) == (
        2, "", "error: profile accepts at most 3 framings, got 4\n")


@pytest.mark.parametrize("p, q, n, digits", [
    (10 ** 999 + 1, 10 ** 999, 0, 1999),
    (4, 3, 10 ** 999, 1000),
], ids=["long knot", "long framing"])
def test_framed_profile_digit_limit(capsys, monkeypatch, p, q, n, digits):
    # Rows of long integers leave fewer framings: here 3, at a budget just
    # under four rows' digits of p*q + |n|.
    monkeypatch.setattr(cli, "PROFILE_MAX_DIGITS", 4 * digits - 1)
    argv = ["profile", str(p), str(q), "--from", str(n), "--to"]
    assert cli.main(argv + [str(n + 2)]) == 0
    out, err = capsys.readouterr()
    assert (out.count("\n"), err) == (4, "")  # header and 3 rows
    assert cli.main(argv + [str(n + 3)]) == 2
    assert capsys.readouterr() == (
        "", "error: profile accepts at most 3 framings, got 4\n")


def test_framed_profile_makes_rows_lazily(capsys):
    K = canonicalize(4, 3)
    rows = framed_profile(K, 0, 10 ** 999)
    assert inspect.isgenerator(rows)
    assert inspect.getgeneratorstate(rows) == inspect.GEN_CREATED
    assert next(rows)[0] == 0
    assert list(framed_profile(K, 1, 0)) == []
    assert profile(capsys, 1, 0) == (
        2, "", "error: empty framing window [1, 0]\n")


class TestObstructionAudit:
    def test_replay_g0(self):
        rec = obstruction_audit(0, 1, 0)
        assert (rec.n, rec.sign, rec.a) == (3, -1, 0)
        assert rec.c1sq_direct == Fraction(-4)
        assert rec.pairing == 3
        assert rec.eq2_lhs == 1 and rec.eq2_rhs == 1
        assert rec.consistent

    def test_replay_g1(self):
        rec = obstruction_audit(1, 2, 0)
        assert (rec.n, rec.sign, rec.a) == (7, -1, 0)
        assert rec.c1sq_direct == Fraction(-32, 7)
        assert rec.pairing == 5
        assert rec.eq2_lhs == 3 and rec.eq2_rhs == 3
        assert rec.consistent

    def test_record_shape(self):
        assert AuditRecord._fields == (
            "g", "m", "n", "a", "sign", "c1sq_direct", "c1sq_reduced",
            "pairing", "eq2_lhs", "eq2_rhs", "consistent")
        rec = obstruction_audit(1, 2, 0)
        assert {type(v) for v in (rec.c1sq_direct, rec.c1sq_reduced,
                                  rec.eq2_lhs, rec.eq2_rhs)} == {Fraction}

    def test_out_of_range_guard(self):
        with pytest.raises(InputError, match="need n = 4m-1 > 2g"):
            obstruction_audit(2, 1, 0)  # n = 3 <= 2g = 4

    def test_boundary_case_succeeds(self):
        # n = 3 > 2g = 2, so the formula applies
        rec = obstruction_audit(1, 1, 0)
        assert rec.sign == 1
        assert rec.pairing == 1

    def test_sweep(self):
        for g in range(0, 21):
            for m in range(1, 41):
                if 4 * m - 1 <= 2 * g:
                    continue
                rec = obstruction_audit(g, m, 0)
                assert rec.c1sq_direct == rec.c1sq_reduced
                assert rec.pairing == rec.n - 2 * g

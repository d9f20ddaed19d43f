import math
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from crosscap4.bounds import invariants
from crosscap4.cli import PINCH_MAX_P, main
from crosscap4.errors import ConsistencyError
from crosscap4.pinch import (MIN_BLOCK_ROWS, MIRRORED, POSITIVE,
                             SMALL_STEP, STEP_BATCH, batches, landing,
                             pinch_runs, pinch_step, run_columns, tail,
                             walk_end)
from crosscap4.reports import report
from crosscap4.torus import Hand, canonicalize
from oracles import check_same_text, step_walk

PARITY_ERROR = "error: in-S^3 continuation needs p*q even, got T(7,3)\n"


def run_steps(K):
    """The walk's steps (p, q, t, h, r, s) as `pinch` prints them: each run
    of pinch_runs expanded by run_columns."""
    return chain.from_iterable(zip(*run_columns(run)) for run in pinch_runs(K))


def gamma3_steps(K):
    """The steps `pinch --gamma3` prints: the walk's, then the tail's from
    where the walk ends."""
    runs = pinch_runs(K)
    return (list(chain.from_iterable(zip(*run_columns(run)) for run in runs))
            + [(m, 1, m - 1, 0, 2 - m, 1) for m in tail(*walk_end(K, runs))])


def run(capsys, *argv):
    """Exit code, stdout and stderr of the command argv."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_step_t43():
    t, h = pinch_step(4, 3)
    assert (t, h) == (1, 1)
    assert (4 - 2 * t, 3 - 2 * h) == (2, 1)  # same signs: not mirrored


def test_step_t53():
    t, h = pinch_step(5, 3)
    assert (t, h) == (3, 2)
    assert (5 - 2 * t, 3 - 2 * h) == (-1, -1)
    assert canonicalize(5 - 2 * t, 3 - 2 * h).is_unknot


def test_step_t21():
    t, h = pinch_step(2, 1)
    assert (t, h) == (1, 0)
    assert (2 - 2 * t, 1 - 2 * h) == (0, 1)


@settings(max_examples=200)
@given(st.integers(2, 10 ** 12), st.data())
def test_step_fields_property(p, data):
    q = data.draw(st.one_of(st.just(1), st.integers(1, p - 1),
                            st.integers(max(1, p - 20), p - 1)))
    assume(math.gcd(p, q) == 1)
    t, h = pinch_step(p, q)
    if q == 1:
        assert (t, h) == (p - 1, 0)
    else:
        assert p * h - q * t == 1
        assert 0 <= t < p and 0 <= h < q
    r, s = p - 2 * t, q - 2 * h
    to = canonicalize(r, s)
    assert canonicalize(-to.p if to.hand is Hand.LEFT else to.p, to.q) == to
    if not to.is_unknot:
        assert (to.hand is Hand.LEFT) == (r * s < 0)


def test_sequence_declared_domain(capsys):
    # The limit is on the commands that print the walk; the walk itself
    # takes any size.
    n = PINCH_MAX_P
    assert math.gcd(n, 3) == math.gcd(n + 1, 3) == 1
    steps = list(run_steps(canonicalize(n, 3)))  # one step
    assert min(map(abs, steps[-1][4:])) <= 1
    assert run(capsys, "pinch", str(n), "3") == (
        0, "(%d,%d) --t=%d,h=%d--> (%d,%d)\n" % steps[0], "")
    assert run(capsys, "report", str(n), "3")[0] == 0
    over = "error: pinch accepts p <= %d, got %d\n" % (n, n + 1)
    assert run(capsys, "pinch", str(n + 1), "3") == (2, "", over)
    assert run(capsys, "report", str(n + 1), "3") == (2, "", over)
    K = canonicalize(n + 1, 3)
    assert list(run_steps(K)) == list(step_walk(K))


def test_sequence_family():
    steps = list(run_steps(canonicalize(8, 7)))
    assert len(steps) == 3
    assert [s[:2] for s in steps] == [(8, 7), (6, 5), (4, 3)]


def test_sequence_gamma3_t43():
    steps = gamma3_steps(canonicalize(4, 3))
    assert len(steps) == 2
    assert [s[:2] for s in steps] == [(4, 3), (2, 1)]
    assert steps[-1][4:] == (0, 1)  # terminal pair (1, 0)


def test_sequence_t53_single_pinch():
    steps = list(run_steps(canonicalize(5, 3)))
    assert len(steps) == 1


def test_gamma4_upper_values():
    assert report(8, 7).gamma4_upper == 3
    assert report(7, 4).gamma4_upper == 2
    assert report(1, 1).gamma4_upper == 1  # the unknot bounds a Mobius band
    for k in range(1, 20):
        assert report(2 * k + 1, 2).gamma4_upper == 1


def test_gamma3_upper_values():
    assert report(3, 2).gamma3_upper == 1
    for k in range(2, 26):
        assert report(2 * k, 2 * k - 1).gamma3_upper == k


def test_gamma3_parity_guard(capsys):
    assert run(capsys, "pinch", "7", "3", "--gamma3") == (2, "", PARITY_ERROR)


def test_step_invariants_sweep():
    for p in range(3, 80):
        for q in range(2, p):
            if math.gcd(p, q) != 1:
                continue
            steps = list(run_steps(canonicalize(p, q)))
            prev_max = p
            for step in steps:
                fp, fq, _, _, r, s = step
                assert (r - fp) % 2 == 0 and (s - fq) % 2 == 0
                assert math.gcd(abs(r), abs(s)) == 1
                assert max(abs(r), abs(s)) < prev_max
                prev_max = max(abs(r), abs(s), 1)
            assert len(steps) < p


def test_upper_never_below_lower():
    for p in range(3, 40):
        for q in range(2, p):
            if math.gcd(p, q) != 1:
                continue
            steps = sum(run[5] for run in pinch_runs(canonicalize(p, q)))
            assert max(1, steps) >= invariants(p, q)[5], (p, q)


def check_runs_against_oracle(p, q):
    K = canonicalize(p, q)
    r = report(p, q)
    runs = pinch_runs(K)
    steps = list(step_walk(K))
    assert list(run_steps(K)) == steps, (p, q)
    assert r.pinch_runs == runs, (p, q)
    assert len(runs) <= p.bit_length(), (p, q, len(runs))
    for _, _, a, b, _, n in runs:  # the domain run_columns relies on
        assert a >= b >= 1 and n >= 1, (p, q, a, b, n)
    assert r.gamma4_upper == max(1, len(steps)), (p, q)
    if runs:  # each run starts where the one before it landed
        assert [run[:2] for run in runs[1:]] == list(map(landing, runs[:-1]))
    if (p * q) % 2 == 0:
        steps3 = list(step_walk(K, gamma3=True))
        assert gamma3_steps(K) == steps3, (p, q)
        assert r.gamma3_upper == max(1, len(steps3)), (p, q)
    else:
        assert r.gamma3_upper is None


def test_runs_equal_step_walk_sweep():
    for p in range(3, 300):
        for q in range(2, p):
            if math.gcd(p, q) == 1:
                check_runs_against_oracle(p, q)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 10 ** 6), st.data())
def test_runs_equal_step_walk_property(p, data):
    q = data.draw(st.one_of(st.integers(2, p - 1),
                            st.integers(max(2, p // 2 - 20), p // 2 + 20),
                            st.integers(max(2, p - 20), p - 1)))
    assume(q < p and math.gcd(p, q) == 1)
    check_runs_against_oracle(p, q)


def test_runs_multi_run_mirrored_walk():
    K = canonicalize(621645, 414437)
    runs = pinch_runs(K)
    assert len(runs) > 1
    assert MIRRORED in [run[4] for run in runs]
    assert sum(run[5] for run in runs) == report(K.p, K.q).gamma4_upper == 4944
    assert list(run_steps(K)) == list(step_walk(K))


def test_runs_gamma3_tail():
    K = canonicalize(2998, 3)
    run, = pinch_runs(K)
    assert run[4] == POSITIVE
    assert tail(*landing(run)) == range(1000, 0, -2)  # 500 steps
    steps = gamma3_steps(K)
    assert steps == list(step_walk(K, gamma3=True))
    assert steps[-2:] == [(4, 1, 3, 0, -2, 1), (2, 1, 1, 0, 0, 1)]
    r = report(K.p, K.q)
    assert r.gamma3_upper == 501
    assert r.pinch_runs == (run,)  # the tail is not a run


def test_runs_q2_lands_on_a_zero_coordinate():
    run, = pinch_runs(canonicalize(7, 2))
    assert run == (7, 2, 3, 1, POSITIVE, 1)
    assert list(run_steps(canonicalize(7, 2))) == [(7, 2, 3, 1, 1, 0)]
    assert landing(run) == (1, 0)
    assert tail(*landing(run)) == range(0)  # no continuation from (1, 0)
    assert report(7, 2).gamma3_upper == 1


def test_runs_family_is_one_run():
    K = canonicalize(999998, 999997)
    run, = pinch_runs(K)
    assert run == (999998, 999997, 1, 1, POSITIVE, 499998)
    assert landing(run) == (2, 1)
    assert report(K.p, K.q).gamma4_upper == 499998


def test_batches_cut_a_run():
    run = (20001, 20000, 1, 1, POSITIVE, 10000)
    ps, qs, ts, hs, rs, ss = run_columns(run)
    assert list(zip(ps, qs, ts, hs, rs, ss)) == [
        (20001 - 2 * i, 20000 - 2 * i, 1, 1, 19999 - 2 * i, 19998 - 2 * i)
        for i in range(10000)]
    parts = [[tuple(map(int, line.split(","))) for line in part.splitlines()]
             for part in batches("%d,%d,%d,%d\n", ps, qs, rs, ss)]
    assert STEP_BATCH == 1024
    assert list(map(len, parts)) == [STEP_BATCH] * 9 + [784]
    assert list(chain.from_iterable(parts)) == list(zip(ps, qs, rs, ss))
    # In a POSITIVE run, the raw landing of a batch's last step starts
    # the next batch, and the last batch's is where the run lands.
    for part, after in zip(parts, parts[1:]):
        assert part[-1][2:] == after[0][:2]
    assert parts[-1][-1][2:] == landing(run) == (1, 0)


def test_runs_checked_at_the_call(capsys):
    # `pinch` checks the parity, then the limit, both before the walk.
    n = PINCH_MAX_P
    assert run(capsys, "pinch", str(n + 3), str(n + 1), "--gamma3") == (
        2, "", "error: in-S^3 continuation needs p*q even, got T(%d,%d)\n"
        % (n + 3, n + 1))
    assert run(capsys, "pinch", str(n + 1), "2", "--gamma3") == (
        2, "", "error: pinch accepts p <= %d, got %d\n" % (n, n + 1))


def test_tail_of_every_even_walk():
    # A pinch keeps each coordinate's parity, so a walk with pq even ends
    # on (m, 1) with m even, or on (1, 0): tail never finds an odd m.
    for p in range(2, 300):
        for q in range(1, p):
            if (p * q) % 2 == 0 and math.gcd(p, q) == 1:
                K = canonicalize(p, q)
                end = walk_end(K, pinch_runs(K))
                assert end == (1, 0) or end[1] == 1 and end[0] % 2 == 0
                tail(*end)  # raises ConsistencyError on an odd m


def test_tail_edges():
    with pytest.raises(ConsistencyError, match=r"tail from \(3, 1\) has odd"):
        tail(3, 1)
    assert tail(1, 0) == range(0)
    assert tail(2, 1) == range(2, 0, -2)
    assert report(1, 1).gamma3_upper == 1  # the unknot (1, 0) itself


def column(n):
    """A range of n numbers of any sign and step, up to 10^30 in size,
    often starting or stepping near 0 or a power of ten, so that it
    crosses 0, a thousand or a power of ten either way."""
    near_power = st.builds(lambda k, e: 10 ** k + e,
                           st.integers(3, 30), st.integers(-9, 9))
    start = st.one_of(st.integers(-3000, 3000), near_power,
                      near_power.map(lambda v: -v),
                      st.integers(-10 ** 7, 10 ** 7),
                      st.integers(-10 ** 30, 10 ** 30))
    step = st.one_of(st.integers(1, 9), st.integers(10, 2500),
                     st.integers(1, 10 ** 30))
    return st.builds(lambda v, d, sign: range(v, v + sign * d * n, sign * d),
                     start, step, st.sampled_from([1, -1]))


GLUE = st.lists(st.text("(,) -=>th1\n\u2192", max_size=4), min_size=7,
                max_size=7)


def steps(*pairs, n=300):
    """Columns of n numbers, one for each (start, step)."""
    return [range(v, v + d * n, d) for v, d in pairs]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, STEP_BATCH + 100).flatmap(
    lambda n: st.lists(column(n), min_size=1, max_size=6)), GLUE)
@example([range(-1000, 1001)], ["(", ")\n"])
@example([range(-45, 765, 3)], ["", "\n"])  # crosses 0 by 3s
@example([range(-1999, 0, 2), range(2997001, 0, -3000)],  # end on -1, 1
         ["", ",", "\n"])
# A column whose digit count changes: after 2 rows, which the % path
# prints, then after 2 rows of 5 and of 330, and at -100000.
@example([range(10005, 9000, -3)], ["", "\n"])
@example([range(99990, 100020, 7)], ["", "\n"])
@example([range(99990, 102300, 7)], ["", "\n"])
@example([range(-99950, -100100, -1)], ["\u2192", "\n"])
# Two head digits change at once, the head being all digits but the
# last four: 120 -> 119.
@example([range(120005, 119001, -2), range(1200005, 1199001, -2)],
         ["(", ",", ")\n"])
# Negative columns that cross a thousand and ten thousand.
@example([range(-118005, -117000, 2), range(-1200005, -1198999, 2)],
         ["", " ", "\n"])
# Steps either side of 40 and of the cut between the planes and str.
@example(steps((10 ** 6, -40), (5 * 10 ** 5, 41), (7 * 10 ** 6, -SMALL_STEP),
               (-3 * 10 ** 6, SMALL_STEP + 1)), ["(", ",", ",", ",", ")\n"])
# A step of 1,001: alone, then beside a small step.
@example(steps((10 ** 6, 1001)), ["", "\n"])
@example(steps((10 ** 6, 1001), (5 * 10 ** 6, -2)), ["", ",", "\n"])
# Blocks shorter than MIN_BLOCK_ROWS between longer ones: the first column
# drops to four digits after 5 rows, the second to five after 40.
@example(steps((10009, -2), (100079, -2), n=MIN_BLOCK_ROWS + 60),
         ["", ",", "\n"])
# Blocks longer than their period P (the lcm over narrow columns of
# 10^4 / gcd(10^4, step)) plus STEP_BATCH, so parts are copied from the
# pattern's rows lo mod P: step 1 across 10^5 (P = 10^4); steps 2, 6 and
# 10 in one block (P = lcm(5000, 5000, 1000)); step 16 (P = 625); a wide
# step of 501 beside a narrow one; a negative column stepping towards 0.
@example([range(90000, 130000)], ["", "\n"])
@example(steps((100000, 2), (500000, 6), (300000, 10), n=12000),
         ["(", ",", ",", ")\n"])
@example(steps((10 ** 6, 16), n=5000), ["", ";\n"])
@example(steps((10 ** 6, 501), (2 * 10 ** 6, -2), n=8000), ["", ",", "\n"])
@example(steps((-1999999, 7), n=15000), ["[", "]\n"])
# A block of 3-digit numbers, shorter than P, then blocks of 4 and 5.
@example([range(100, 30000)], ["", "\n"])
def test_batches_equal_the_percent_format(columns, glue):
    fmt = "%d".join(glue[:len(columns) + 1])
    check_same_text("".join(batches(fmt, *columns)),
                    "".join(fmt % row for row in zip(*columns)))


@pytest.mark.parametrize("extra", [1, -1])
def test_batches_check_column_lengths(extra):
    # A column one row longer or shorter than the first is an error, not a
    # text cut to the first column's length.
    n = 2000 + extra
    columns = [range(10 ** 6, 10 ** 6 - 2 * 2000, -2), range(5, 5 + 3 * n, 3)]
    with pytest.raises(ConsistencyError,
                       match=r"columns of \[2000, %d\] rows" % n):
        next(batches("%d,%d\n", *columns))

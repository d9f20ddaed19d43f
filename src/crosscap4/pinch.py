"""Pinch-move cobordisms on the torus: the construction side of the bounds.

Each pinch joins two adjacent strands of T(p,q) by a band, landing on the
class (p - 2t, q - 2h) where t = -q^{-1} mod p and h = p^{-1} mod q.  Every
pinch adds 1 to b1, so the number of steps down to an unknot is an upper
bound for the nonorientable four-ball genus; continuing until a coordinate
vanishes gives the in-S^3 (crosscap) bound when pq is even.

A walk takes O(p) steps on near-diagonal pairs (about p/2 for
T(2k, 2k-1)), but they fall into few runs of constant displacement (a, b),
at most p.bit_length() on every pair the tests try: step i of a run
starts at (p_i, q_i) = (p - 2ia, q - 2ib).  p*h - q*t = 1 at every step
with q >= 2.  When a run's first pinch lands on the positive quadrant
(POSITIVE), (t, h) = (a, b) keeps that identity at every pair of the run;
when it lands on the negative one (MIRRORED), (t, h) = (p_i - a, q_i - b)
does.  So while p_i > a, q_i > b and p_i > q_i, those are exactly the
inverses a step computes.  The second condition implies the other two,
so a run's length is one floor division.  When pq is even the walk ends
on (m, 1) with m even or on (1, 0), since a pinch keeps each coordinate's
parity; tail gives the in-S^3 continuation from there in closed form.

pinch_runs returns the runs, all checked, with two modular inverses per
run; reports.report sums their lengths, and the tail's, into the upper
bounds, and run_batches expands a run into its steps as ranges, a batch
at a time, so no caller makes a Python object per step.

text prints a batch: every printed column is an arithmetic progression,
so it cuts each column into stretches that stay inside one thousand, and
a stretch's numbers share one head (sign and str(v // 1000)) and take
their last three digits as one slice of a table of "000" to "999".  Only
numbers below 1,000 go through str one at a time.
"""

import functools
import math
from itertools import repeat

from .errors import ConsistencyError

# Run kinds: how a run's inverses (t, h) follow its pairs.
POSITIVE = "positive"  # t, h = a, b
MIRRORED = "mirrored"  # t, h = p_i - a, q_i - b


def pinch_step(p, q):
    """The inverses (t, h) of one pinch move on T(p,q), p > q >= 1
    coprime: it lands on (p - 2t, q - 2h), signs as computed.  The walk in
    pinch_runs, its caller, keeps to that domain and checks the result."""
    t = -pow(q, -1, p) % p
    h = pow(p, -1, q)  # 0 for q = 1: every residue mod 1 is 0
    return t, h


def pinch_runs(K):
    """Return the walk from K to the first unknot (q <= 1) as a tuple of runs
    (p, q, a, b, kind, n): step i < n of a run starts at (p - 2ia, q - 2ib).

    Every run is checked before the walk is returned, and the checks cover
    every one of its steps: the inverses at its start, its domain at its
    first and last pair (each condition is linear in i), primitivity and
    strict decrease of its last landing, and a cap of K.p steps in all.
    """
    p, q = K.p, K.q
    runs, total = [], 0
    # Parity needs no check: every displacement 2a, 2b is even.
    while q > 1:  # pairs stay descending, so q is the smaller one
        t, h = pinch_step(p, q)
        if p * h - q * t != 1 or not (0 < t < p and 0 < h < q):
            raise ConsistencyError(
                "pinch inverses t=%d, h=%d fail p*h - q*t = 1 at "
                "(%d, %d)" % (t, h, p, q))
        if p - 2 * t > 0:
            a, b, kind = t, h, POSITIVE
        else:
            a, b, kind = p - t, q - h, MIRRORED
        # The steps with q_i > b.  With p_i*b - q_i*a = +-1 and a >= b
        # (both kinds), that gives p_i > a and p_i > q_i.
        n = -((b - q) // (2 * b))
        pl, ql = p - 2 * (n - 1) * a, q - 2 * (n - 1) * b
        if not (n >= 1 and p > a and q > b and p > q
                and pl > a and ql > b and pl > ql):
            raise ConsistencyError("pinch run of %d steps from (%d, %d) "
                                   "leaves its domain" % (n, p, q))
        run = p, q, a, b, kind, n
        r, s = landing(run)
        if math.gcd(r, s) != 1:
            raise ConsistencyError("pinch left a non-primitive class")
        if r >= pl:
            raise ConsistencyError("pinch failed to decrease from %d" % pl)
        total += n
        if total > K.p:
            raise ConsistencyError(
                "pinch sequence from %s exceeded %d steps" % (K, K.p))
        runs.append(run)
        p, q = r, s
    return tuple(runs)


def landing(run):
    """The pair the last step of run lands on, canonical (p >= q >= 0)."""
    p, q, a, b, _, n = run
    r, s = abs(p - 2 * n * a), abs(q - 2 * n * b)
    return (r, s) if r >= s else (s, r)


def walk_end(K, runs):
    """Where the walk of runs from K ends: K itself if it takes no step."""
    return landing(runs[-1]) if runs else (K.p, K.q)


def tail(r, s):
    """The in-S^3 continuation from the end (r, s) of a walk with pq even:
    the m of each step (m, 1) -> (m - 2, 1), t, h = m - 1, 0, to (0, 1)."""
    if s == 1 and r % 2:
        raise ConsistencyError("pinch tail from (%d, 1) has odd length" % r)
    return range(r, 0, -2) if s == 1 else range(0)


def _column(x, d, k, mirrored):
    """Coordinate x of k steps of displacement d: the pairs' x, its inverse
    (t or h) and the raw landing's x."""
    xs = range(x, x - 2 * k * d, -2 * d)
    if mirrored:
        return (xs, range(x - d, x - d - 2 * k * d, -2 * d),
                range(2 * d - x, 2 * d - x + 2 * k * d, 2 * d))
    return xs, repeat(d, k), range(x - 2 * d, x - 2 * (k + 1) * d, -2 * d)


# `pinch` and the report trace expand runs STEP_BATCH steps at a time, so
# no string holds more than that many steps.  Against 4096 pairs per trace
# string, medians of 10 runs (2-vCPU Xeon VM) stay inside the quartiles:
# `report 1000000 999999 --json` 0.234 s vs 0.236 s and its text form
# 0.202 s vs 0.210 s, each peaking at 14.9 MB, 0.4-0.7 MB lower;
# `table --family 2k --kmax 1000 --json`, which formats one new pair per
# row, 0.073 s vs 0.077 s, at 14.7 MB both.  Each batch costs text a few
# slices per column: `pinch 1000000 999999` takes 0.181 s against 0.160 s
# at 4096 steps a batch, and `pinch 770375 577782`, mostly MIRRORED,
# 0.092 s against 0.097 s, all at 14.4-14.9 MB.
STEP_BATCH = 256


def run_batches(run):
    """Yield the steps of run, STEP_BATCH at a time, as six columns p, q,
    t, h, r, s, ranges or repeats, so that zip(*columns) gives each step's
    (p, q, t, h, r, s) with (r, s) = (p - 2t, q - 2h).  Both displacements
    a, b are nonzero, as in every run pinch_runs returns (a >= b >= 1)."""
    p, q, a, b, kind, n = run
    for lo in range(0, n, STEP_BATCH):
        k = min(STEP_BATCH, n - lo)
        ps, ts, rs = _column(p - 2 * lo * a, a, k, kind == MIRRORED)
        qs, hs, ss = _column(q - 2 * lo * b, b, k, kind == MIRRORED)
        yield ps, qs, ts, hs, rs, ss


@functools.cache
def _tails():
    """The last three digits of every number of 1,000 or more, by value
    mod 1000, built on the first call: only `pinch` prints with text."""
    return ["%03d" % i for i in range(1000)]


def text(fmt, *columns):
    """The text "".join(fmt % row for row in zip(*columns)), for a format
    whose only conversions are %d and columns that are ranges of one
    length."""
    glue, table = fmt.split("%d"), _tails()
    n = len(columns[0])
    width = 2 * len(columns) + 1  # a row: a head and a tail per column
    pieces = [glue[-1]] * (width * n)
    for j, column in enumerate(columns):
        g, d = glue[j], column.step
        i = 0
        while i < n:
            v = column[i]
            u = abs(v)
            if u < 1000:  # the stretch of |v| < 1000: str on each
                m = min(n - i,
                        ((999 - v) // d if d > 0 else (v + 999) // -d) + 1)
                heads, tails = [g] * m, list(map(str, column[i:i + m]))
            else:  # the stretch of one sign and one thousand
                du = d if v > 0 else -d  # the step of |v|
                lo = u % 1000
                m = min(n - i, ((999 - lo) // du if du > 0
                                else lo // -du) + 1)
                end = lo + du * m
                heads = [g + ("-" if v < 0 else "") + str(u // 1000)] * m
                tails = table[lo:end if end >= 0 else None:du]
            k = 2 * j + width * i
            pieces[k:k + width * m:width] = heads
            pieces[k + 1:k + 1 + width * m:width] = tails
            i += m
    return "".join(pieces)

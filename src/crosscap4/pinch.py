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
bounds; run_columns expands a run into its steps as ranges, so no caller
makes a Python object per step, and batches prints every walk through
text, the `pinch` steps, their tail and the report trace alike.

text prints a batch: every printed column is an arithmetic progression,
so it cuts the batch into blocks where each column keeps one sign and
digit count, and every row so has one width.  A block's first row,
formatted with % and repeated into a bytearray, holds every row's glue
and signs.  Each column's last four digits are then written down the
rows as strided slices of four 10,000-byte digit planes, one slice per
plane for each stretch inside one ten thousand, and only the head digits
that differ from the first row's are rewritten; a column that steps by
more than SMALL_STEP is instead str of each number, joined once and
written digit by digit.  Each block is decoded once.  Short blocks, and
blocks whose every column steps wide, go through % row by row.
"""

import functools
import math
from itertools import chain, repeat

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


def run_columns(run):
    """The steps of run as six columns p, q, t, h, r, s, ranges or repeats,
    so that zip(*columns) gives each step's (p, q, t, h, r, s) with
    (r, s) = (p - 2t, q - 2h).  Both displacements a, b are nonzero, as in
    every run pinch_runs returns (a >= b >= 1)."""
    p, q, a, b, kind, n = run
    ps, ts, rs = _column(p, a, n, kind == MIRRORED)
    qs, hs, ss = _column(q, b, n, kind == MIRRORED)
    return ps, qs, ts, hs, rs, ss


# batches prints STEP_BATCH rows a part, so no string holds more than that
# many steps.  At 256, 1,024 and 4,096 rows a part, subprocess medians of
# 20 runs (stdout to /dev/null, 2-vCPU Xeon VM, 14.5-14.9 MB each) were
# 0.105, 0.076 and 0.070 s for `pinch 1000000 999999`; 0.054, 0.052 and
# 0.052 s for `pinch 770375 577782`, mostly MIRRORED; 0.084, 0.065 and
# 0.061 s for `report 1000000 999999 --json`, and 0.082, 0.063 and
# 0.058 s as text.  A text call costs a few slices per column and block
# whatever its length, so 256-row parts pay that four times as often.
STEP_BATCH = 1024


def batches(fmt, *columns):
    """text(fmt, *columns) in parts of STEP_BATCH rows, the last holding
    the rest, for columns that are ranges of one length."""
    for lo in range(0, len(columns[0]), STEP_BATCH):
        yield text(fmt, *(c[lo:lo + STEP_BATCH] for c in columns))


# A block of fewer rows than this goes through % row by row.  At 3 to 6
# columns stepping by 2 to 8, _block takes 1.0-1.2 times the time of % at
# 24 rows, 0.8-0.9 times at 32 and 0.1 times at 1,024 (2-vCPU Xeon VM).
MIN_BLOCK_ROWS = 32

# A column whose numbers step by at most this much in size takes its last
# four digits from the planes of _tails, four slices for each stretch
# inside one ten thousand; a wider column is str of each number, joined
# once.  Over 6 columns of 128 and of 1,024 rows, the planes take 0.8 times
# the time of str at step 400, 0.9-1.1 times at 500 and 1.2-1.3 times at
# 600.  A block whose columns all step wider goes through %, which is
# 1.3-1.5 times as fast as str and strided writes for them.
SMALL_STEP = 500


@functools.cache
def _tails():
    """Digits 0 to 3 of "0000" to "9999", as four planes of 10,000 bytes
    indexed by value mod 10,000, built on the first call, so commands that
    print no long walk never build them."""
    return tuple(b"".join(bytes([d]) * 10 ** k for d in b"0123456789")
                 * 10 ** (3 - k) for k in (3, 2, 1, 0))


def _cuts(column):
    """The ends of the stretches of column whose numbers keep one sign and
    one digit count: the last end is len(column)."""
    n, d = len(column), column.step
    i = 0
    while i < n:
        v = column[i]
        top = 10 ** len(str(abs(v)))
        if v < 0:
            lo, hi = 1 - top, -(top // 10)
        else:
            lo, hi = (top // 10 if top > 10 else 0), top - 1
        i = min(n, i + ((hi - v) // d if d > 0 else (v - lo) // -d) + 1)
        yield i


def _block(fmt, columns):
    """The rows of columns, for a block where each column's numbers keep
    one sign and digit count, so that every row has the width of the
    first.  The first row, repeated, holds every row's glue and signs;
    each column's changing digits are then written down the rows with
    strided slice assignments, and the bytes decoded once."""
    m = len(columns[0])
    first = tuple(c[0] for c in columns)
    buf = bytearray((fmt % first).encode()) * m
    width = len(buf) // m
    at = 0  # the end of the column's number in each row
    for g, c, v in zip(fmt.split("%d"), columns, first):
        digits = str(abs(v))
        n = len(digits)
        at += len(g.encode()) + (v < 0) + n
        u, du = abs(v), -c.step if v < 0 else c.step  # du steps abs(v)
        if abs(du) > SMALL_STEP:
            joined = "".join(map(str, range(u, u + du * m, du))).encode()
            for k in range(n):
                buf[at - n + k::width] = joined[k::n]
            continue
        planes = _tails()[-n:]
        head = digits[:-len(planes)]
        i = 0
        while i < m:  # a stretch of k rows inside one ten thousand
            lo = u % 10000
            k = min(m - i,
                    (9999 - lo) // du + 1 if du > 0 else lo // -du + 1)
            end = lo + du * k
            x = at - len(planes) + width * i
            for plane in planes:
                buf[x:x + width * k:width] = plane[lo:end if end >= 0
                                                   else None:du]
                x += 1
            if head:  # rewrite the head digits that differ from row 0's
                x = at - n + width * i
                for j, digit in enumerate(str(u // 10000)):
                    if digit != head[j]:
                        buf[x + j:x + j + width * k:width] = (
                            digit.encode() * k)
            i += k
            u += du * k
    return buf.decode()


def text(fmt, *columns):
    """The text "".join(fmt % row for row in zip(*columns)), for a format
    whose only conversions are %d and columns that are ranges of one
    length."""
    if len(columns[0]) < MIN_BLOCK_ROWS:
        return "".join(map(fmt.__mod__, zip(*columns)))
    parts, start = [], 0
    for end in sorted(set(chain.from_iterable(map(_cuts, columns)))):
        block = [c[start:end] for c in columns]
        if (end - start < MIN_BLOCK_ROWS
                or all(abs(c.step) > SMALL_STEP for c in block)):
            parts.append("".join(map(fmt.__mod__, zip(*block))))
        else:
            parts.append(_block(fmt, block))
        start = end
    return "".join(parts)

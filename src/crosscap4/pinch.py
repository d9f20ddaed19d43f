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
makes a Python object per step, and batches prints every walk, the
`pinch` steps, their tail and the report trace alike.

batches cuts its columns, each an arithmetic progression, into blocks
where every column keeps one sign and digit count, so every row of a
block has one width.  There the glue and the last four digits of each
column stepping by at most SMALL_STEP repeat every P <= 10^4 rows, so
_block writes them once, from four 10,000-byte digit planes over one
period of each column, down a pattern of at most P + STEP_BATCH copies
of the first row.  A part is a copy of its rows of the pattern, with the
head digits that differ from the first row's and each wider column, str
of its numbers joined once, written in, and decoded once.  Short blocks,
and blocks whose every column steps wide, go through % row by row.
"""

import functools
import math
from itertools import chain, islice, repeat

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
# many steps, and a block's pattern at most 10^4 + STEP_BATCH rows, in one
# bytearray.  With each part formatted on its own, `pinch 1000000 999999`
# took 0.105, 0.076 and 0.070 s at 256, 1,024 and 4,096 rows a part
# (subprocess medians of 20 runs, 2-vCPU Xeon VM, 14.5-14.9 MB each).
STEP_BATCH = 1024


def batches(fmt, *columns):
    """The text "".join(fmt % row for row in zip(*columns)) in parts of
    STEP_BATCH rows, the last holding the rest, for a format whose only
    conversions are %d and columns that are ranges of one length."""
    if len(set(map(len, columns))) > 1:
        raise ConsistencyError("columns of %s rows" % list(map(len, columns)))
    if 0 < len(columns[0]) < min(MIN_BLOCK_ROWS, STEP_BATCH + 1):  # 1 part
        yield "".join(map(fmt.__mod__, zip(*columns)))
        return
    part, start = [], 0
    for end in sorted(set(chain.from_iterable(map(_cuts, columns)))):
        block = [c[start:end] for c in columns]
        # A part ends at every multiple of STEP_BATCH, so at these edges.
        edges = [0, *range(STEP_BATCH - start % STEP_BATCH, end - start,
                           STEP_BATCH), end - start]
        if (end - start < MIN_BLOCK_ROWS
                or all(abs(c.step) > SMALL_STEP for c in block)):
            rows = map(fmt.__mod__, zip(*block))
            pieces = ("".join(islice(rows, hi - lo))
                      for lo, hi in zip(edges, edges[1:]))
        else:
            pieces = _block(fmt, block, edges)
        for hi, piece in zip(edges[1:], pieces):
            part.append(piece)
            if (start + hi) % STEP_BATCH == 0:
                yield "".join(part)
                part = []
        start = end
    if part:
        yield "".join(part)


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


def _stretches(u, du, m):
    """(i, k, w) for each stretch of k rows, from row i, of the m numbers
    u, u + du, ... that lies inside one ten thousand, w its first number."""
    i = 0
    while i < m:
        lo = u % 10000
        k = min(m - i, (9999 - lo) // du + 1 if du > 0 else lo // -du + 1)
        yield i, k, u
        i += k
        u += du * k


def _block(fmt, columns, edges):
    """The text of the rows of columns from each of edges to the next, for
    a block where each column keeps one sign and digit count and some
    column steps by at most SMALL_STEP: parts copied out of one pattern of
    at most period + STEP_BATCH rows, as the module docstring describes."""
    first = tuple(c[0] for c in columns)
    period = math.lcm(*(10000 // math.gcd(10000, c.step) for c in columns
                        if abs(c.step) <= SMALL_STEP))
    rows = min(len(columns[0]), period + STEP_BATCH)
    pattern = bytearray((fmt % first).encode()) * rows
    width = len(pattern) // rows
    places, at = [], 0  # at: the end of the column's number in each row
    for g, c, v in zip(fmt.split("%d"), columns, first):
        digits = str(abs(v))
        at += len(g.encode()) + (v < 0) + len(digits)
        u, du = abs(v), -c.step if v < 0 else c.step  # du steps abs(v)
        places.append((at, digits, u, du))
        if abs(du) > SMALL_STEP:
            continue
        cycle = []  # slices of a plane over the column's period, or rows
        for _, k, w in _stretches(u, du, min(rows,
                                             10000 // math.gcd(10000, du))):
            lo = w % 10000
            end = lo + du * k
            cycle.append(slice(lo, end if end >= 0 else None, du))
        planes = _tails()[-len(digits):]
        for x, plane in enumerate(planes, at - len(planes)):
            tails = b"".join(plane[t] for t in cycle)
            pattern[x::width] = (tails * -(-rows // len(tails)))[:rows]
    for lo, hi in zip(edges, edges[1:]):
        s = lo % period  # s <= lo and s < period: the rows are in pattern
        buf = pattern[width * s:width * (s + hi - lo)]
        for at, digits, u, du in places:
            n, u = len(digits), u + du * lo
            if abs(du) > SMALL_STEP:
                joined = "".join(map(str, range(u, u + du * (hi - lo),
                                                du))).encode()
                for k in range(n):
                    buf[at - n + k::width] = joined[k::n]
            elif n > 4:  # rewrite the head digits that differ from row 0's
                for i, k, w in _stretches(u, du, hi - lo):
                    x = at - n + width * i
                    for j, digit in enumerate(str(w // 10000)):
                        if digit != digits[j]:
                            buf[x + j:x + j + width * k:width] = (
                                digit.encode() * k)
        yield buf.decode()

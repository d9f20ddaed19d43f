"""Brute-force oracles that only the tests call.

minmax_over_framings checks the closed-form lower bound gamma4_lower by
minimizing the per-framing obstruction over a whole window of framings;
step_walk checks the pinch runs by making the walk one step at a time, and
trace_pairs and report_dict build from it the pinch trace and the JSON
object that the report emitters print.
"""

import math

from crosscap4.errors import ConsistencyError
from crosscap4.heegaard import d_pm1
from crosscap4.pinch import GAMMA4, pinch_step
from crosscap4.reports import BoundReport
from crosscap4.torus import mirror, signature


def minmax_over_framings(K, n_lo, n_hi):
    """Brute-force counterpart of gamma4_lower: for each chirality, minimize
    the per-framing obstruction over every framing in [n_lo, n_hi], floor
    at 1, then take the max of the two chiralities."""
    if n_lo > n_hi:
        raise ValueError("empty framing window [%d, %d]" % (n_lo, n_hi))
    best = 1
    for Kc in (K, mirror(K)):
        s = signature(Kc)
        dm1, _ = d_pm1(Kc)
        # |s - n| and n - 2*dm1 at every framing n in the window, as
        # ranges; the larger of the two is never negative.
        sig = map(abs, range(s - n_lo, s - n_hi - 1, -1))
        dinv = range(n_lo - 2 * dm1, n_hi - 2 * dm1 + 1)
        best = max(best, min(map(max, sig, dinv)))
    return best


def step_walk(K, mode=GAMMA4):
    """The pinch walk made one pinch_step at a time, with primitivity and
    strict decrease checked at every step and a cap of K.p steps: the
    oracle for pinch_runs.  Yields each step's (p, q, t, h, r, s), as
    zip(*run_columns(run)) does, with (r, s) = (p - 2t, q - 2h)."""
    q_stop = 1 if mode == GAMMA4 else 0
    p, q = K.p, K.q
    n = 0
    while q > q_stop:  # pairs stay descending, so q is the smaller one
        if n >= K.p:
            raise ConsistencyError(
                "pinch sequence from %s exceeded %d steps" % (K, K.p))
        t, h = pinch_step(p, q)
        r, s = p - 2 * t, q - 2 * h
        if math.gcd(abs(r), abs(s)) != 1:
            raise ConsistencyError("pinch left a non-primitive class")
        step = p, q, t, h, r, s
        r, s = abs(r), abs(s)
        if s > r:
            r, s = s, r
        if r >= p:
            raise ConsistencyError("pinch failed to decrease from %d" % p)
        yield step
        p, q = r, s
        n += 1


def trace_pairs(K):
    """The pinch trace of K from step_walk: the start of each GAMMA4 step,
    then the pair the last step lands on, canonical; K's own pair alone
    when the walk takes no step."""
    steps = list(step_walk(K, GAMMA4))
    if not steps:
        return [(K.p, K.q)]
    r, s = map(abs, steps[-1][4:])
    return [step[:2] for step in steps] + [(max(r, s), min(r, s))]


def report_dict(r, trace):
    """The JSON object of report r as a dict: its scalar fields in field
    order, then "pinch_trace", the given list of pairs."""
    d = {name: getattr(r, name) for name in BoundReport._fields[:-1]}
    d["pinch_trace"] = trace
    return d

"""Brute-force oracles that only the tests call.

minmax_over_framings checks the closed-form lower bound gamma4_lower by
minimizing the per-framing obstruction over a whole window of framings.
"""

import numpy as np

from crosscap4.heegaard import d_pm1
from crosscap4.torus import mirror, signature


def minmax_over_framings(K, n_lo, n_hi):
    """Brute-force counterpart of gamma4_lower: for each chirality, minimize
    the per-framing obstruction over every framing in [n_lo, n_hi], floor
    at 1, then take the max of the two chiralities."""
    if n_lo > n_hi:
        raise ValueError("empty framing window [%d, %d]" % (n_lo, n_hi))
    n = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    best = 1
    for Kc in (K, mirror(K)):
        s = signature(Kc)
        dm1, _ = d_pm1(Kc)
        vals = np.maximum(np.abs(s - n), n - 2 * dm1)
        np.maximum(vals, 0, out=vals)
        best = max(best, int(vals.min()))
    return best

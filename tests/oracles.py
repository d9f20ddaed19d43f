"""Brute-force oracles that only the tests call.

minmax_over_framings checks the closed-form lower bound gamma4_lower by
minimizing the per-framing obstruction over a whole window of framings.
ext_gcd is the extended Euclid loop that numtheory.mod_inverse (the
builtin pow(a, -1, m)) is checked against.
"""

import numpy as np

from crosscap4.heegaard import d_pm1
from crosscap4.torus import mirror, signature


def ext_gcd(a, b):
    """Extended Euclid: return (g, x, y) with g = gcd(|a|, |b|) >= 0 and
    a*x + b*y = g.  ext_gcd(0, 0) = (0, 1, 0)."""
    sa = -1 if a < 0 else 1
    sb = -1 if b < 0 else 1
    old_r, r = abs(a), abs(b)
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_x, x = x, old_x - quot * x
        old_y, y = y, old_y - quot * y
    return old_r, sa * old_x, sb * old_y


def minmax_over_framings(K, n_lo, n_hi):
    """Brute-force counterpart of gamma4_lower: for each chirality, minimize
    framed_lower over every framing in [n_lo, n_hi], floor at 1, then take
    the max of the two chiralities."""
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

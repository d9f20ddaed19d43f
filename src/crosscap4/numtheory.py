"""Exact integer helpers: extended gcd, modular inverses, residues.

Everything here is pure and total on the documented domains; all arithmetic
uses Python's arbitrary-precision integers.
"""

from .errors import NotInvertible


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


def mod_inverse(a, m):
    """Inverse of a modulo m, as the representative in [0, m).

    mod_inverse(a, 1) = 0 for every a (all residues coincide mod 1).
    Raises NotInvertible when gcd(a, m) != 1.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1, got %d" % m)
    if m == 1:
        return 0
    g, x, _ = ext_gcd(a, m)
    if g != 1:
        raise NotInvertible("%d has no inverse mod %d (gcd = %d)" % (a, m, g))
    return x % m


def min_nonneg_rep(x, m):
    """Minimal nonnegative representative of x modulo m (m >= 1)."""
    if m < 1:
        raise ValueError("modulus must be >= 1, got %d" % m)
    return x % m


def floor_sum(n, m, a, b):
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n, a, b >= 0 and m >= 1.

    Euclid-like reduction (AtCoder Library's floor_sum_unsigned): peel off
    the whole parts of a/m and b/m, then swap the roles of m and a to count
    the remaining lattice points under the line by columns.  O(log(m + a)).
    """
    if n < 0 or m < 1 or a < 0 or b < 0:
        raise ValueError("floor_sum needs n, a, b >= 0 and m >= 1")
    total = 0
    while True:
        if a >= m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if b >= m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b = divmod(y_max, m)
        m, a = a, m

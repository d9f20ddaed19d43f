"""Heegaard-Floer correction terms used by the genus bounds.

Torus knots admit positive lens space surgeries, so the d-invariants of
their (+-1)-surgeries are read off from the torsion coefficient t0
of the Alexander polynomial; bounds.invariants says which hand gets
which sign.  d_b_circle_bundle's rational is exact: it imports
fractions.Fraction at the call, so only the audit path loads it.
"""

from .errors import InputError
from .numtheory import floor_sum
from .torus import check_pair


def t0(p, q):
    """Torsion coefficient sum j*a_j of the Alexander polynomial of T(p,q).

    T(p,q) is an L-space knot with semigroup <p, q>, so t0 = V_0 counts the
    semigroup elements a*p + b*q (a, b >= 0) below g = (p-1)(q-1)/2.  For
    each a, the b's number floor((g-1-a*p)/q) + 1, which sums to one
    floor_sum: O(log pq).  oracle.alexander_t0(torus.alexander(p, q)) is
    the independent oracle.  Raises InputError for a negative argument.
    """
    check_pair("t0", p, q)
    if q > p:
        p, q = q, p
    if q <= 1:
        return 0
    g = (p - 1) * (q - 1) // 2
    n = (g - 1) // p + 1
    return n + floor_sum(n, q, p, (g - 1) % p)


def d_b_circle_bundle(g, n):
    """Bottom correction term of the Euler-number -n circle bundle over a
    genus-g surface: 1/4 - g^2/n - n/4, valid only for n > 2g."""
    if g < 0 or n < 1:
        raise InputError("need g >= 0 and n >= 1 (got g=%d, n=%d)" % (g, n))
    if n <= 2 * g:
        raise InputError("formula requires n > 2g (got n=%d, g=%d)" % (n, g))
    from fractions import Fraction
    return Fraction(1, 4) - Fraction(g * g, n) - Fraction(n, 4)

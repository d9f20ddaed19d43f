"""Torus knot classes, Murasugi signatures, and Alexander polynomials.

The handedness and signature conventions live here: RIGHT denotes the
positive torus knot T(p,q), whose signature is negative (e.g. the right
trefoil has signature -2); LEFT denotes its mirror.  bounds.invariants
applies this convention, and the d-invariant one (the RIGHT knot has
d(+1) = -2*t0), to both hands.  sigma_rec computes the nonnegative
quantity -signature(T(p,q)); oracle.sigma_lattice checks it, and
oracle.alexander_t0 reads t0 off alexander to check heegaard.t0.  An
Alexander polynomial is a map {exponent: coefficient}.
"""

import math
from collections import namedtuple
from enum import Enum

from .errors import ConsistencyError, InputError


class Hand(Enum):
    RIGHT = "right"
    LEFT = "left"


class TorusKnotClass(namedtuple("TorusKnotClass", "p q hand",
                                defaults=(Hand.RIGHT,))):
    __slots__ = ()

    @property
    def is_unknot(self):
        return self.q <= 1

    def __str__(self):
        if self.is_unknot:
            return "unknot"
        side = "" if self.hand is Hand.RIGHT else "mirror "
        return "%sT(%d,%d)" % (side, self.p, self.q)


UNKNOT = TorusKnotClass(1, 0, Hand.RIGHT)


def canonicalize(a, b):
    """Normalize a primitive class (a, b) on the torus to canonical form.

    (a,b) ~ (-a,-b) is an orientation reversal (same knot, same hand);
    flipping the sign of exactly one coordinate mirrors the knot; (a,b) ~
    (b,a) swaps the torus factors.  Any class with min(|a|,|b|) <= 1 is an
    unknot and collapses to the canonical (1, 0, RIGHT).  Raises
    InputError for (0, 0) and for any other pair that is not coprime.
    """
    if a == 0 and b == 0:
        raise InputError("class (0, 0) is not a knot")
    if math.gcd(a, b) != 1:
        raise InputError("(%d, %d) are not coprime" % (a, b))
    hand = Hand.LEFT if (a < 0) != (b < 0) else Hand.RIGHT
    a, b = abs(a), abs(b)
    if b > a:
        a, b = b, a
    if min(a, b) <= 1:
        return UNKNOT
    return TorusKnotClass(a, b, hand)


def check_pair(name, p, q):
    """Raise InputError unless p and q are nonnegative and coprime."""
    if p < 0 or q < 0:
        raise InputError("%s expects nonnegative arguments, got (%d, %d)"
                         % (name, p, q))
    if math.gcd(p, q) != 1:
        raise InputError("(%d, %d) are not coprime" % (p, q))


def sigma_rec(p, q):
    """Murasugi's signature recursion, giving -signature(T(p,q)) >= 0.

    The recursion, with base cases first:
        sigma(p, q) = sigma(q, p)                        if q > p
        sigma(p, 1) = 0;  sigma(p, 2) = p - 1
        sigma(p, q) = sigma(p-2q, q) + q^2 - [q odd]     if 2q < p
        sigma(p, q) = -sigma(2q-p, q) + q^2 - 2 + [q odd]  if q < p < 2q
    Runs iteratively, and both recursive branches are batched: all
    descents by 2q at once, and all reflections that keep d = p - q in one
    closed-form alternating sum.  Each pass reduces the pair like a step of
    Euclid's algorithm, so the cost is O(log p) with no stack growth.
    """
    check_pair("sigma_rec", p, q)
    pair = (p, q)
    total = 0
    sign = 1
    while True:
        if q > p:
            p, q = q, p
        if q <= 1:
            base = 0
            break
        if q == 2:
            base = p - 1
            break
        if 2 * q < p:
            # batch all sigma(p-2q, q) descents at once
            r = p % (2 * q)
            steps = (p - r) // (2 * q)
            if r == 0:
                raise ConsistencyError("descent hit a non-coprime pair")
            total += sign * steps * (q * q - (q % 2))
            p = r
        elif p < 2 * q:
            # batch the n reflections (a + d, a) -> (a, a - d), a = q - i*d
            # for i < n, that keep d = p - q: terms alternate in sign, and
            # each pair of them, g(a) - g(a - d) with
            # g(a) = a^2 - 2 + [a odd], is 2ad - d^2 + e, e = +-[d odd]
            d = p - q
            n = (q - 1) // d
            m = n // 2
            e = (1 if q % 2 else -1) if d % 2 else 0
            total += sign * (m * (2 * d * q - d * d + e)
                             - 2 * d * d * m * (m - 1))
            p, q = q - (n - 1) * d, q - n * d
            if n % 2:
                total += sign * (p * p - 2 + (p % 2))
                sign = -sign
        else:
            raise ConsistencyError("p = 2q cannot occur for coprime q >= 2")
    result = total + sign * base
    if result % 2:
        raise ConsistencyError("odd signature value for (%d, %d)" % pair)
    return result


# Delta costs O(g) time and memory: at this limit the worst case,
# `alexander 2000001 2`, takes about 2 s and 340 MB (2-vCPU Xeon VM).
ALEXANDER_MAX_GENUS = 10 ** 6


def alexander(p, q):
    """Alexander polynomial of T(p,q) as a map {exponent: coefficient} of
    its symmetric Laurent form, with no zero coefficients.

    T(p,q) is an L-space knot whose semigroup is S = <p, q>, so with
    g = (p-1)(q-1)/2
        Delta = T^{-g} [(1-T) sum_{s in S, s < 2g} T^s + T^{2g}],
    exactly, with no division.  Each s < 2g is a*p + b*q for a single
    a < q, so the loop visits every such s once.  Returns {0: 1} for
    unknots (q <= 1); raises InputError for a negative argument (T(-3,2)
    is the mirror trefoil, not an unknot) and when g exceeds
    ALEXANDER_MAX_GENUS.
    """
    check_pair("alexander", p, q)
    if q > p:
        p, q = q, p
    if q <= 1:
        return {0: 1}
    g = (p - 1) * (q - 1) // 2
    if g > ALEXANDER_MAX_GENUS:
        raise InputError("alexander accepts genus (p-1)(q-1)/2 <= %d, got %d"
                         % (ALEXANDER_MAX_GENUS, g))
    terms = {g: 1}
    for ap in range(0, 2 * g, p):
        for e in range(ap - g, g, q):  # e = s - g for s = ap + bq < 2g
            terms[e] = terms.get(e, 0) + 1
            terms[e + 1] = terms.get(e + 1, 0) - 1
    return {e: c for e, c in terms.items() if c}


def alexander_text(delta):
    """Text of a coefficient map, highest exponent first, e.g.
    "T^3 - T^2 + 1 - T^-2 + T^-3"; the empty map is "0"."""
    parts = []
    for e in sorted(delta, reverse=True):
        c = delta[e]
        mag = "" if abs(c) == 1 and e else str(abs(c))
        var = "" if e == 0 else "T" if e == 1 else "T^%d" % e
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + mag + var)
    return " ".join(parts) or "0"

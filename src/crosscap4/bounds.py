"""Lower bounds on the nonorientable four-ball genus, and the exact-rational
audit of the inequality chain behind them.

invariants is the one home of the hand convention: it turns one sigma_rec
and one t0 into both chiralities' signature and d(-1-surgery) and the
closed-form lower bound max(1, sigma/2 - d) taken over both chiralities.
framed_profile gives the two bound families per framing n (e(F) = 2n):
the signature bound |sigma(K) - n| and the d-invariant bound
n - 2*d(-1 surgery).  Their max over n, minimized, reproduces the closed
form.
"""

from collections import namedtuple

from .errors import ConsistencyError, InputError
from .heegaard import d_b_circle_bundle, t0
from .torus import Hand, sigma_rec


def invariants(p, q):
    """Scalar invariants of T(p,q), (p, q) as canonicalize leaves it: the
    tuple (sigma_right, sigma_left, t0, d_minus1_right, d_minus1_left,
    gamma4_lower), BoundReport's fields in that order.

    The hand convention: RIGHT is the positive knot T(p,q), whose
    signature is -sigma_rec(p, q) and whose d-invariants are d(-1) = 0 and
    d(+1) = -2*t0 (Ni-Wu: d(S^3_{+1}) = -2*V_0, and V_0 = t0).  The mirror
    (LEFT) swaps and negates them: its signature is sigma_rec(p, q), its
    d(-1) is 2*t0, and d(+1) of a knot is -d(-1) of its mirror.  The lower
    bound is max(1, sigma/2 - d(-1)) over both hands, since the genus is
    mirror-invariant and the formula is not; it is never below 1, because
    every nonorientable surface has b1 >= 1.
    """
    s, t = sigma_rec(p, q), t0(p, q)
    sigma_right, sigma_left, d_right, d_left = -s, s, 0, 2 * t
    return (sigma_right, sigma_left, t, d_right, d_left,
            max(1, sigma_right // 2 - d_right, sigma_left // 2 - d_left))


def framed_profile(K, n_lo, n_hi):
    """Per-framing obstruction landscape over a contiguous n-interval.

    Yields a row (n, sig_bound, d_bound, combined) per framing n_lo <= n <=
    n_hi: it bounds b1 of a surface bounding K with normal Euler number 2n
    by the larger of the signature and d-invariant obstructions.  K's
    invariants are computed at the call, the rows one at a time.
    """
    inv = invariants(K.p, K.q)
    s, dm1 = (inv[0], inv[3]) if K.hand is Hand.RIGHT else (inv[1], inv[4])
    return ((n, sig_b, d_b, max(sig_b, d_b, 0)) for n, sig_b, d_b in
            ((n, abs(s - n), n - 2 * dm1) for n in range(n_lo, n_hi + 1)))


# Every field is an int but consistent, a bool, and the Fractions
# c1sq_direct, c1sq_reduced, eq2_lhs and eq2_rhs.
AuditRecord = namedtuple("AuditRecord", [
    "g", "m", "n", "a", "sign", "c1sq_direct", "c1sq_reduced", "pairing",
    "eq2_lhs", "eq2_rhs", "consistent"])


# Intersection form of the handle picture: a (-1)-sphere plus a hyperbolic
# pair.
_Q = ((-1, 0, 0), (0, 0, 1), (0, 1, 0))


def _q_pair(v, w):
    return sum(v[i] * _Q[i][j] * w[j] for i in range(3) for j in range(3))


def obstruction_audit(g, m, d):
    """Exact-rational replay of the cobordism inequality for a closed
    genus-g surface of square n = 4m-1 and a knot with d(-1-surgery) = d.

    Verifies, with exact arithmetic: exactly one sign choice makes the
    spin-c parameter a integral; the two expressions for c1^2 agree; the
    pairing of c1 with the surface class equals n - 2g; and the definite-
    cobordism inequality reduces identically to e(F)/2 <= 2d + b1(F).
    """
    from fractions import Fraction  # only the audit needs rationals

    if g < 0 or m < 1 or d < 0:
        raise InputError("need g >= 0, m >= 1, d >= 0 (got g=%d, m=%d, d=%d)"
                         % (g, m, d))
    n = 4 * m - 1
    if n <= 2 * g:
        raise InputError("need n = 4m-1 > 2g (got n=%d, g=%d)" % (n, g))

    # 2(m-g)-1 is odd, so exactly one of +-1 lands it on a multiple of 4.
    choices = [s for s in (1, -1) if (2 * (m - g) - 1 + s) % 4 == 0]
    if len(choices) != 1:
        raise ConsistencyError("sign choice for a is not unique")
    sign = choices[0]
    a = (2 * (m - g) - 1 + sign) // 4

    c1sq_direct = Fraction(-1 + 8 * a) - Fraction((n - 2 * g) ** 2, n)
    c1sq_reduced = Fraction(-2 + 2 * sign) - Fraction(4 * g * g, n)
    if c1sq_direct != c1sq_reduced:
        raise ConsistencyError("c1^2 expressions disagree")

    pd_c1 = (sign, 2, 2 * a)
    sigma_class = (1, 2, m)
    pairing = _q_pair(pd_c1, sigma_class)
    if pairing != n - 2 * g:
        raise ConsistencyError("c1 pairing %d != n - 2g = %d"
                               % (pairing, n - 2 * g))
    if _q_pair(pd_c1, pd_c1) != -1 + 8 * a:
        raise ConsistencyError("c1 self-pairing disagrees with -1 + 8a")

    eq2_lhs = Fraction(n - 1, 2)
    eq2_rhs = Fraction(2 * d + 2 * g + 1)

    # The cobordism inequality: c1^2 + b2^- <= 4*d_b + 4*d + 2*b1(bundle).
    # Its slack must equal 1 - n + 4d + 4g - 2*sign exactly (the g^2/n terms
    # cancel), and with the unfavorable sign -1 it is twice the slack of
    # e(F)/2 <= 2d + b1(F).
    db = d_b_circle_bundle(g, n)
    for s in (sign, -1):
        c1sq_s = Fraction(-2 + 2 * s) - Fraction(4 * g * g, n)
        gap = (4 * db + 4 * d + 2 * (2 * g)) - (c1sq_s + 2)
        if gap != 1 - n + 4 * d + 4 * g - 2 * s:
            raise ConsistencyError("inequality chain failed to reduce")
        if s == -1 and gap != 2 * (eq2_rhs - eq2_lhs):
            raise ConsistencyError("reduction does not match e/2 <= 2d + b1")

    return AuditRecord(
        g=g, m=m, n=n, a=a, sign=sign,
        c1sq_direct=c1sq_direct, c1sq_reduced=c1sq_reduced,
        pairing=pairing, eq2_lhs=eq2_lhs, eq2_rhs=eq2_rhs,
        consistent=eq2_lhs <= eq2_rhs,
    )

"""Brute-force oracles, and readers of CLI output, that only the tests call.

oracle_invariants derives both hands' signature and d(-1-surgery) from
the engines that bounds.invariants does not use, and minmax_over_framings
checks the closed-form lower bound gamma4_lower by minimizing the
per-framing obstruction over a whole window of framings;
step_walk checks the pinch runs and their tail by making the walk one
step at a time, with its own inverses, and trace_pairs and report_dict
build from it the pinch trace and the JSON object that the report emitters
print.  t0_lens derives t0 from the d-invariant of a lens space surgery,
in O(log pq) steps, sharing no code with heegaard.t0.  dinv_numbers reads
back the four d-invariants that `dinv` prints, and check_same_text
compares long texts such as a command's output.

mirror reflects a knot class, alexander_family is the closed form of the
Alexander polynomial of T(2k, 2k-1), and d_minus1_alternating gives d of
-1-surgery on an alternating knot from its signature.  No command needs
them, so they live here rather than in the package.
"""

import contextlib
import io
import math
import os
import re
from fractions import Fraction

from crosscap4.cli import main
from crosscap4.errors import ConsistencyError, InputError
from crosscap4.oracle import alexander_t0, sigma_lattice
from crosscap4.reports import BoundReport
from crosscap4.torus import Hand, TorusKnotClass, alexander


def mirror(K):
    """Reflect the knot; the unknot is its own mirror."""
    if K.is_unknot:
        return K
    flipped = Hand.LEFT if K.hand is Hand.RIGHT else Hand.RIGHT
    return TorusKnotClass(K.p, K.q, flipped)


def alexander_family(k):
    """Closed form of the Alexander polynomial of T(2k, 2k-1), k >= 2.

    The constant term is 1; each block j = 1..k-1 contributes the four
    symmetric monomials at exponents +-j(2k-1) and -+(j(2k-1)-(k-j)).
    Must agree with alexander(2k, 2k-1) exactly.
    """
    if k < 2:
        raise InputError("family formula needs k >= 2, got %d" % k)
    terms = {0: 1}
    for j in range(1, k):
        top = j * (2 * k - 1)
        terms[top] = 1
        terms[top - (k - j)] = -1
        terms[-top] = 1
        terms[-top + (k - j)] = -1
    return terms


def d_minus1_alternating(sigma):
    """d of -1-surgery on an alternating knot with the given signature.

    Equals max(0, 2*ceil(sigma/4)); the signature must be even.
    """
    if sigma % 2:
        raise InputError("knot signatures are even, got %d" % sigma)
    return max(0, 2 * (-((-sigma) // 4)))


def oracle_invariants(p, q):
    """(sigma_right, sigma_left, t0, d_minus1_right, d_minus1_left) of
    T(p,q), q >= 1, from the lattice count of sigma and the Alexander
    coefficients of t0, neither of which bounds.invariants calls.

    The convention, written out: the positive torus knot T(p,q) (RIGHT)
    has negative signature, -sigma_lattice(p, q).  It is an L-space knot
    whose V_0 is t0, so d(S^3_{+1}) = -2*V_0 and d(S^3_{-1}) = 0 (Ni-Wu).
    Mirroring (LEFT) negates the signature, and S^3_{-1} of the mirror is
    S^3_{+1} of the knot with its orientation reversed, which negates d.
    """
    t = alexander_t0(alexander(p, q))
    sigma_right = -sigma_lattice(p, q)
    d_minus1_right, d_plus1_right = 0, -2 * t
    sigma_left, d_minus1_left = -sigma_right, -d_plus1_right
    return sigma_right, sigma_left, t, d_minus1_right, d_minus1_left


def hand_invariants(K):
    """(signature, d of -1-surgery) of K's hand, by oracle_invariants."""
    inv = oracle_invariants(K.p, K.q)
    return (inv[0], inv[3]) if K.hand is Hand.RIGHT else (inv[1], inv[4])


def minmax_over_framings(K, n_lo, n_hi):
    """Brute-force counterpart of gamma4_lower: for each chirality, minimize
    the per-framing obstruction over every framing in [n_lo, n_hi], floor
    at 1, then take the max of the two chiralities."""
    if n_lo > n_hi:
        raise ValueError("empty framing window [%d, %d]" % (n_lo, n_hi))
    best = 1
    inv = oracle_invariants(K.p, K.q)
    for s, dm1 in ((inv[0], inv[3]), (inv[1], inv[4])):  # RIGHT, LEFT
        # |s - n| and n - 2*dm1 at every framing n in the window, as
        # ranges; the larger of the two is never negative.
        sig = map(abs, range(s - n_lo, s - n_hi - 1, -1))
        dinv = range(n_lo - 2 * dm1, n_hi - 2 * dm1 + 1)
        best = max(best, min(map(max, sig, dinv)))
    return best


def inverses(p, q):
    """The inverses (t, h) of a pinch on T(p,q), p > q >= 1 coprime, by
    extended Euclid: h = p^{-1} mod q and t = (p*h - 1) / q, so that
    p*h - q*t = 1; t, h = p - 1, 0 when q = 1."""
    if q == 1:
        return p - 1, 0
    r0, r1, x0, x1 = p, q, 1, 0  # r_i = x_i * p mod q
    while r1:
        k = r0 // r1
        r0, r1, x0, x1 = r1, r0 - k * r1, x1, x0 - k * x1
    h = x0 % q
    t = (p * h - 1) // q
    assert r0 == 1 and p * h - q * t == 1, (p, q)
    return t, h


def step_walk(K, gamma3=False):
    """The pinch walk made one pinch at a time, with primitivity and strict
    decrease checked at every step and a cap of K.p steps: the oracle for
    pinch_runs, and with gamma3 for the walk and its tail through T(m,1)
    down to a zero coordinate.  Yields each step's (p, q, t, h, r, s), as
    zip(*pinch.run_columns(run)) does for each run, with
    (r, s) = (p - 2t, q - 2h)."""
    p, q = K.p, K.q
    n = 0
    while q > (0 if gamma3 else 1):  # pairs stay descending, q <= p
        if n >= K.p:
            raise ConsistencyError(
                "pinch sequence from %s exceeded %d steps" % (K, K.p))
        t, h = inverses(p, q)
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
    """The pinch trace of K from step_walk: the start of each step, then
    the pair the last step lands on, canonical; K's own pair alone when
    the walk takes no step."""
    steps = list(step_walk(K))
    if not steps:
        return [(K.p, K.q)]
    r, s = map(abs, steps[-1][4:])
    return [step[:2] for step in steps] + [(max(r, s), min(r, s))]


def d_lens(p, q, i):
    """The correction term d(L(p,q), i), p > q >= 1 coprime or p = 1, by
    the Ozsvath-Szabo recursion
        d(L(p,q), i) = -1/4 + (2i + 1 - p - q)^2 / (4pq) - d(L(q,r), j)
    with r = p mod q, j = i mod q and d(L(1, .)) = 0, as a Fraction."""
    if p == 1:
        return Fraction(0)
    return (Fraction(-1, 4) + Fraction((2 * i + 1 - p - q) ** 2, 4 * p * q)
            - d_lens(q, p % q, i % q))


def t0_lens(p, q):
    """t0 of T(p,q), p > q >= 2 coprime, from a lens space: pq - 1
    surgery on T(p,q) is L(n, m) with n = pq - 1 and m = q^2 mod n
    (Moser), and its d-invariant at the spin^c structure i = (m - 1)/2 for
    m odd, (m - 1 + n)/2 for m even, is d(L(n,1), 0) - 2 t0 (Ni-Wu), so
    t0 = ((n - 1)/4 - d(L(n,m), i)) / 2.  The order matters: with p and q
    swapped the value is another, often not an integer."""
    n = p * q - 1
    m = q * q % n
    i = (m - 1) // 2 if m % 2 else (m - 1 + n) // 2
    return (Fraction(n - 1, 4) - d_lens(n, m, i)) / 2


def report_dict(r, trace):
    """The JSON object of report r as a dict: its scalar fields in field
    order, then "pinch_trace", the given list of pairs."""
    d = {name: getattr(r, name) for name in BoundReport._fields[:-1]}
    d["pinch_trace"] = trace
    return d


def dinv_numbers(p, q):
    """The four numbers `dinv p q` prints: right d(-1), d(+1), then left
    d(-1), d(+1)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["dinv", str(p), str(q)]) == 0
    return tuple(map(int, re.findall(r"= (-?\d+)", out.getvalue())))


def check_same_text(text, expected, case=""):
    """Raise AssertionError naming the case and the first difference, if
    any.  pytest would diff two long texts line by line, which takes
    minutes for a trace of thousands of pairs at each of hypothesis'
    shrink steps."""
    if text != expected:
        i = len(os.path.commonprefix([text, expected]))
        raise AssertionError("%stexts differ at character %d: %r != %r"
                             % (case and "%s: " % (case,), i,
                                text[i:i + 40], expected[i:i + 40]))

"""Pinch-move cobordisms on the torus: the construction side of the bounds.

Each pinch joins two adjacent strands of T(p,q) by a band, landing on the
class (p - 2t, q - 2h) where t = -q^{-1} mod p and h = p^{-1} mod q.  Every
pinch adds 1 to b1, so the number of steps down to an unknot is an upper
bound for the nonorientable four-ball genus; continuing until a coordinate
vanishes gives the in-S^3 (crosscap) bound when pq is even.

A walk takes O(p) steps on near-diagonal pairs (about p/2 for
T(2k, 2k-1)), so pinch_walk accepts p <= PINCH_MAX_P.  One step costs two
builtin modular inverses and a tuple, and the walk yields each step as it
is made, so no caller has to hold the whole walk.
"""

import math
from typing import NamedTuple

from .errors import ConsistencyError, InputError

GAMMA4 = "gamma4"
GAMMA3 = "gamma3"

# A walk from T(p, q) takes fewer than p steps; `pinch 1000000 999999`
# (500,000 steps, streamed) takes about 2 s and 17 MB on a 2-vCPU Intel
# Xeon VM.
PINCH_MAX_P = 10 ** 6


class PinchStep(NamedTuple):
    from_pair: tuple  # (p, q) with p > q >= 1
    t: int
    h: int
    raw_to: tuple  # (r, s) = (p - 2t, q - 2h), signs as computed


def pinch_step(p, q):
    """One pinch move on T(p,q), p > q >= 1 coprime."""
    if math.gcd(p, q) != 1:
        raise InputError("(%d, %d) are not coprime" % (p, q))
    if p <= q or q < 1:
        raise InputError("pinch needs p > q >= 1, got (%d, %d)" % (p, q))
    t = -pow(q, -1, p) % p
    h = pow(p, -1, q)  # 0 for q = 1: every residue mod 1 is 0
    return PinchStep((p, q), t, h, (p - 2 * t, q - 2 * h))


def pinch_walk(K, mode=GAMMA4):
    """Yield the pinch moves from K down to the mode's terminal form.

    GAMMA4 stops at the first unknot (q <= 1); GAMMA3 (pq even only) keeps
    pinching through T(n,1) forms until a coordinate is 0.  The GAMMA4 walk
    is therefore the prefix of the GAMMA3 walk whose steps start at q > 1.
    The arguments are checked at the call, not at the first step: raises
    InputError for GAMMA3 with pq odd and when K.p exceeds PINCH_MAX_P.
    Parity, primitivity and strict decrease are checked at every step,
    with a hard cap of K.p steps.
    """
    if mode not in (GAMMA4, GAMMA3):
        raise ValueError("unknown mode %r" % (mode,))
    if mode == GAMMA3 and (K.p * K.q) % 2 == 1:
        raise InputError("in-S^3 continuation needs p*q even, got %s" % (K,))
    if K.p > PINCH_MAX_P:
        raise InputError("pinch accepts p <= %d, got %d"
                         % (PINCH_MAX_P, K.p))
    return _walk(K, 1 if mode == GAMMA4 else 0)


def _walk(K, q_stop):
    p, q = K.p, K.q
    n = 0
    while q > q_stop:  # pairs stay descending, so q is the smaller one
        if n >= K.p:
            raise ConsistencyError(
                "pinch sequence from %s exceeded %d steps" % (K, K.p))
        step = pinch_step(p, q)
        r, s = step.raw_to
        if (r - p) % 2 or (s - q) % 2:
            raise ConsistencyError("pinch broke parity at %s" % (step,))
        if math.gcd(abs(r), abs(s)) != 1:
            raise ConsistencyError("pinch left a non-primitive class")
        r, s = abs(r), abs(s)
        if s > r:
            r, s = s, r
        if r >= p:
            raise ConsistencyError("pinch failed to decrease from %d" % p)
        yield step
        p, q = r, s
        n += 1


def gamma4_upper(K):
    """b1 of the pinch surface bounding K: an upper bound for the
    nonorientable four-ball genus.  1 for the unknot (Mobius band)."""
    return max(1, sum(1 for _ in pinch_walk(K, GAMMA4)))


def gamma3_upper(K):
    """b1 of the in-S^3 pinch surface; requires p*q even."""
    return max(1, sum(1 for _ in pinch_walk(K, GAMMA3)))

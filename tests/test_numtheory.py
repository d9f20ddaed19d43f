import math

import pytest
from hypothesis import given, strategies as st

from crosscap4.errors import NotInvertible
from crosscap4.numtheory import floor_sum, mod_inverse
from oracles import ext_gcd


def test_ext_gcd_examples():
    assert ext_gcd(3, 4) == (1, -1, 1)
    assert ext_gcd(0, 5) == (5, 0, 1)
    g, x, y = ext_gcd(240, 46)
    assert g == 2
    assert 240 * x + 46 * y == 2


def test_ext_gcd_degenerate():
    g, x, y = ext_gcd(0, 0)
    assert g == 0
    assert 0 * x + 0 * y == 0


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_bezout_identity(a, b):
    g, x, y = ext_gcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_mod_inverse_examples():
    assert mod_inverse(3, 4) == 3
    assert mod_inverse(7, 1) == 0
    assert mod_inverse(2, 5) == 3


def test_mod_inverse_not_invertible():
    with pytest.raises(NotInvertible):
        mod_inverse(6, 4)


def test_mod_inverse_exhaustive_small():
    for m in range(2, 200):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            inv = mod_inverse(a, m)
            assert 0 <= inv < m
            assert (inv * a) % m == 1


@given(st.integers())
def test_mod_1_convention(a):
    assert mod_inverse(a, 1) == 0


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_mod_inverse_matches_ext_gcd(a, m):
    g, x, _ = ext_gcd(a, m)
    if g != 1:
        with pytest.raises(NotInvertible):
            mod_inverse(a, m)
    else:
        assert mod_inverse(a, m) == x % m


@given(st.integers(0, 60), st.integers(1, 60), st.integers(0, 200),
       st.integers(0, 200))
def test_floor_sum_matches_direct_sum(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

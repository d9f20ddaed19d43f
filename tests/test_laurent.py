import pytest
from hypothesis import given, strategies as st

from crosscap4.errors import ConsistencyError
from crosscap4.laurent import LaurentPoly

P = LaurentPoly

polys = st.dictionaries(
    st.integers(-6, 6), st.integers(-9, 9), max_size=6).map(LaurentPoly)


def test_symmetric_coeffs():
    assert P({1: 1, 0: -1, -1: 1}).symmetric_coeffs() == (-1, [1])
    assert P({0: 1}).symmetric_coeffs() == (1, [])
    assert P({3: 1, 2: -1, 0: 1, -2: -1, -3: 1}).symmetric_coeffs() == \
        (1, [0, -1, 1])
    with pytest.raises(ConsistencyError,
                       match=r"coefficient of T\^1 is 1 but of T\^-1 is 0"):
        P({1: 1}).symmetric_coeffs()


def test_t0():
    assert P({1: 1, 0: -1, -1: 1}).t0() == 1
    assert P({0: 1}).t0() == 0
    delta_3_5 = P({4: 1, 3: -1, 1: 1, 0: -1,
                   -1: 1, -3: -1, -4: 1})
    assert delta_3_5.t0() == 2


def test_eval_at_one():
    assert P({0: 1, 1: -1}).eval_at_one() == 0
    assert P({1: 1, 0: -1, -1: 1}).eval_at_one() == 1
    assert P({3: 1, 2: -1, 0: 1, -2: -1, -3: 1}).eval_at_one() == 1


def test_render():
    assert str(P({3: 1, 2: -1, 0: 1, -2: -1, -3: 1})) == \
        "T^3 - T^2 + 1 - T^-2 + T^-3"
    assert str(P()) == "0"
    assert str(P({1: 2, -1: -2})) == "2T - 2T^-1"
    assert str(P({0: -3})) == "-3"


@given(polys)
def test_symmetric_reconstruction(p):
    terms = p.terms
    exps = set(terms) | {-e for e in terms}
    sym = LaurentPoly({e: terms.get(e, 0) + terms.get(-e, 0) for e in exps})
    a0, a = sym.symmetric_coeffs()
    rebuilt = {0: a0}
    for j, aj in enumerate(a, start=1):
        rebuilt[j] = rebuilt[-j] = aj
    assert LaurentPoly(rebuilt) == sym

from hypothesis import given, strategies as st

from crosscap4.numtheory import floor_sum


@given(st.integers(0, 60), st.integers(1, 60), st.integers(0, 200),
       st.integers(0, 200))
def test_floor_sum_matches_direct_sum(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))

"""Property-based checks of the exact counts and the saddle layer."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from polybern.exactcomb import c_relative, factorial, ml_degree, poly_bernoulli, stirling2
from polybern.saddle import f_dir, f_inverse

sizes = st.integers(min_value=0, max_value=60)
# log-uniform ratios r in [1/500, 500]
ratios = st.floats(min_value=-math.log(500.0), max_value=math.log(500.0)).map(math.exp)


@settings(deadline=None)
@given(sizes, sizes)
def test_d_at_most_c_at_most_b(n, k):
    assert ml_degree(n, k) <= c_relative(n, k) <= poly_bernoulli(n, k)


@settings(deadline=None)
@given(sizes, sizes)
def test_b_and_d_symmetric(n, k):
    assert poly_bernoulli(n, k) == poly_bernoulli(k, n)
    assert ml_degree(n, k) == ml_degree(k, n)


@settings(deadline=None)
@given(sizes, sizes)
def test_c_is_column_inclusion_exclusion_over_b(n, k):
    expected = sum((-1) ** j * math.comb(k, j) * poly_bernoulli(n, k - j) for j in range(k + 1))
    assert c_relative(n, k) == expected


@settings(deadline=None)
@given(sizes, sizes)
def test_b_matches_kaneko_one_row_form(n, k):
    expected = sum(
        (-1) ** (m + n) * factorial(m) * stirling2(n, m) * (m + 1) ** k for m in range(n + 1)
    )
    assert poly_bernoulli(n, k) == expected


@settings(deadline=None)
@given(ratios)
def test_f_inverse_round_trip(r):
    assert abs(f_dir(f_inverse(r)) - r) <= 1e-11 * max(1.0, r)


@settings(deadline=None)
@given(ratios)
def test_f_inverse_variety_identity(r):
    assert abs(math.exp(-f_inverse(r)) + math.exp(-f_inverse(1.0 / r)) - 1.0) <= 1e-11

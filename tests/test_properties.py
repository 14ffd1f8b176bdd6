"""Property-based checks of the exact counts and the saddle layer."""

import math
import warnings
from decimal import Decimal

from hypothesis import example, given, settings
from hypothesis import strategies as st

from polybern import exactcomb, oracle
from polybern.exactcomb import (
    c_relative,
    ml_degree,
    poly_bernoulli,
    stirling2,
    stirling2_explicit,
)
from polybern.quad import QuadratureSpec, residue_integral_b
from polybern.saddle import (
    CompactnessWarning,
    acsv_general_log,
    bivar_asym_log,
    diag_asym_log,
    excedance_asym_log,
    f_dir,
    f_inverse,
    ml_asym_log,
)

sizes = st.integers(min_value=0, max_value=60)
# log-uniform ratios r in [1/500, 500]
ratios = st.floats(min_value=-math.log(500.0), max_value=math.log(500.0)).map(math.exp)
# log-uniform integers in [1, 10**400]
huge_sizes = st.floats(min_value=0.0, max_value=400.0).map(
    lambda d: int(Decimal(10) ** Decimal(d))
)
# Stirling indices (n, m) with m <= n <= 200
triangle_points = st.integers(min_value=0, max_value=200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
)
# matrix shapes with n*k <= 20
matrix_shapes = st.integers(min_value=0, max_value=20).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=20 // n if n else 20))
)
# permutation shapes with n + k <= 12
permutation_shapes = st.integers(min_value=0, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=12 - n))
)


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
        (-1) ** (m + n) * math.factorial(m) * stirling2(n, m) * (m + 1) ** k for m in range(n + 1)
    )
    assert poly_bernoulli(n, k) == expected


@settings(deadline=None)
@given(matrix_shapes)
def test_matrix_oracles_match_formulas(shape):
    n, k = shape
    b = poly_bernoulli(n, k)
    assert oracle.count_lonesum(n, k) == b
    assert oracle.count_gamma_free(n, k) == b
    assert oracle.count_acyclic_orientations(n, k) == b
    assert oracle.count_lonesum_restricted(n, k, False, False) == b
    assert oracle.count_lonesum_restricted(n, k, False, True) == c_relative(n, k)
    assert oracle.count_lonesum_restricted(n, k, True, False) == c_relative(k, n)
    assert oracle.count_lonesum_restricted(n, k, True, True) == ml_degree(n, k)


@settings(deadline=None)
@given(permutation_shapes)
def test_permutation_oracles_match_formulas(shape):
    n, k = shape
    assert oracle.count_vesztergombi(n, k) == poly_bernoulli(n, k)
    if n >= 1:
        assert oracle.count_excedance_word(n, k) == c_relative(n, k)


@settings(deadline=None)
@given(ratios)
def test_f_inverse_round_trip(r):
    assert abs(f_dir(f_inverse(r)) - r) <= 1e-11 * max(1.0, r)


@settings(deadline=None)
@given(ratios)
def test_f_inverse_variety_identity(r):
    assert abs(math.exp(-f_inverse(r)) + math.exp(-f_inverse(1.0 / r)) - 1.0) <= 1e-11


@settings(deadline=None)
@given(st.lists(triangle_points, min_size=1, max_size=8))
def test_stirling_rows_grown_in_any_order_match_explicit(points):
    saved = exactcomb._rows
    exactcomb._rows = [[1]]
    try:
        for n, m in points:
            assert stirling2(n, m) == stirling2_explicit(n, m)
    finally:
        exactcomb._rows = saved


@settings(deadline=None)
@given(huge_sizes, huge_sizes)
@example(10**300, 10**300)
@example(10**308, 10**308)
@example(10**400, 10**400)
@example(1, 260)
@example(260, 1)
def test_every_estimator_is_finite_or_value_error(n, k):
    estimates = (
        lambda: bivar_asym_log(n, k),
        lambda: ml_asym_log(n, k),
        lambda: excedance_asym_log(n, k),
        lambda: acsv_general_log((1, 1), n, k),
        lambda: acsv_general_log((1, 0), n, k),
        lambda: acsv_general_log((0, 0), n, k),
        lambda: diag_asym_log(n, 1),
        lambda: diag_asym_log(k, 2),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CompactnessWarning)
        for estimate in estimates:
            try:
                value = estimate()
            except ValueError:
                continue
            assert isinstance(value, float) and math.isfinite(value)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=-30.0, max_value=8.0).map(math.exp),
)
@example(31, 1, None)
@example(38, 1, None)
def test_residue_is_finite_or_value_error(n, k, radius):
    # radius None is the saddle point; the others are log-uniform in [e^-30, e^8]
    try:
        value = residue_integral_b(n, k, QuadratureSpec(64), radius)
    except ValueError:
        return
    assert isinstance(value, float) and math.isfinite(value)

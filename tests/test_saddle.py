"""Direction function, saddle points, and log-space estimators."""

import math
import types
import warnings
from decimal import Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polybern import saddle
from polybern.exactcomb import c_relative, log_of_count, ml_degree, poly_bernoulli
from polybern.saddle import (
    DIAG_RATIO_C,
    F_T_MAX,
    ML_DEGREE_GF,
    POLY_BERNOULLI_GF,
    SECOND_ORDER_C,
    CompactnessWarning,
    SaddlePoint,
    acsv_general_log,
    bivar_asym_log,
    diag_asym_log,
    excedance_asym_log,
    f_dir,
    f_inverse,
    ml_asym_log,
    saddle_point,
)

LOG2 = math.log(2.0)


def paper_diagonal(k):
    # The paper's B(k,k) ~ (k!)^2 sqrt(1/(k pi (1 - log 2))) (1/log 2)^(2k+1), in log.
    return (
        2.0 * math.lgamma(k + 1)
        - (2 * k + 1) * math.log(LOG2)
        - 0.5 * math.log(k * math.pi * (1 - LOG2))
    )


def test_f_at_log2_is_one():
    assert f_dir(LOG2) == pytest.approx(1.0, abs=1e-12)


def test_f_at_one():
    assert f_dir(1.0) == pytest.approx(1.2688211094982893, abs=1e-12)


def test_f_monotone_increasing():
    grid = [0.05 * 1.2**i for i in range(40)]
    values = [f_dir(t) for t in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_f_small_t_leading_order():
    t = 1e-6
    assert f_dir(t) == pytest.approx(-1.0 / math.log(t), rel=0.05)


def test_f_inverse_at_one():
    assert f_inverse(1.0) == pytest.approx(LOG2, abs=1e-12)


def test_f_inverse_round_trip_wide_grid():
    for i in range(200):
        r = 0.05 * 400.0 ** (i / 199.0)
        t = f_inverse(r)
        assert abs(f_dir(t) - r) <= 1e-11 * max(1.0, r)


def test_f_inverse_handles_extreme_ratios():
    t = f_inverse(1.0 / 50.0)
    assert abs(f_dir(t) - 0.02) <= 1e-12
    t = f_inverse(50.0)
    assert abs(f_dir(t) - 50.0) <= 1e-11 * 50.0


def test_f_inverse_round_trip_in_t():
    assert f_inverse(f_dir(2.0)) == pytest.approx(2.0, abs=1e-12)


def test_f_inverse_reciprocal_pair_on_variety():
    t1 = f_inverse(10.0)
    t2 = f_inverse(0.1)
    assert math.exp(-t1) + math.exp(-t2) == pytest.approx(1.0, abs=1e-12)


def reference_f(t):
    # f in its cancellation-free form, each exponential taken where it is read
    return t * math.exp(-t) / ((-math.expm1(-t)) * (-saddle._log1mexp(t)))


@pytest.mark.parametrize("t", [
    LOG2, math.nextafter(LOG2, 0.0), math.nextafter(LOG2, 1.0),
    math.nextafter(math.nextafter(LOG2, 0.0), 0.0), math.nextafter(math.nextafter(LOG2, 1.0), 1.0),
    5e-324, 1e-300, 2.0**-40, 1e-3, 0.5, 1.0, 2.0, 37.5, 699.0, math.nextafter(F_T_MAX, 0.0),
])
def test_f_dir_is_the_solves_evaluator(t):
    # the solve's evaluator saddle._f reuses exp(-t) in both branches of the
    # log(1 - e^-t) split at log 2, and returns f_dir's float
    assert f_dir(t).hex() == saddle._f(t).hex() == reference_f(t).hex()


@settings(max_examples=300)
@given(st.floats(min_value=5e-324, max_value=F_T_MAX, exclude_max=True))
def test_f_dir_is_the_solves_evaluator_everywhere(t):
    assert f_dir(t).hex() == saddle._f(t).hex() == reference_f(t).hex()


def plain_f_inverse(r):
    # The bracketed bisection with f evaluated at every point: f_inverse
    # must return what this returns, float for float and error for error.
    if not r > 0:
        raise ValueError("f_inverse is defined for r > 0")
    target = max(r, 1.0 / r)
    cap = F_T_MAX * (1 - 2**-20)
    lo, hi = 2.0**-40, 1.0
    while f_dir(hi) < target:
        if hi >= cap:
            raise ValueError(f"r={r} outside the stable range of f, about [1/700, 700]")
        lo = hi
        hi = min(2.0 * hi, cap)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f_dir(mid) < target:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return t if r >= 1.0 else -saddle._log1mexp(t)


def outcome(solve, r):
    # the float returned, or the type and message of the exception raised
    try:
        return solve(r)
    except Exception as exc:
        return type(exc), str(exc)


CAP_RATIO = f_dir(F_T_MAX * (1 - 2**-20))


def edge_ratios():
    up, down = math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0)
    ratios = [1.0, 2.0, 0.5, 699.9, 699.99, 700.0, 700.1, 701.0, 1e6, 1e300, math.inf]
    ratios += [up**j for j in (1, 2, 3, 10, 1000, 2**20, 2**40)]
    ratios += [down**j for j in (1, 2, 3, 10, 1000, 2**20, 2**40)]
    ratios += [CAP_RATIO, math.nextafter(CAP_RATIO, 0.0), math.nextafter(CAP_RATIO, math.inf)]
    ratios += [1.0 / r for r in ratios if r != math.inf] + [5e-324, 0.0, -1.0, math.nan]
    return ratios


def test_f_inverse_is_plain_bisection_on_grid_and_edges():
    grid = [n / k for n in range(1, 61) for k in range(1, 61)]
    for r in grid + edge_ratios():
        assert outcome(f_inverse, r) == outcome(plain_f_inverse, r), r


@settings(deadline=None, max_examples=300)
@given(st.floats(min_value=math.log(1 / 710), max_value=math.log(710)).map(math.exp))
def test_f_inverse_is_plain_bisection(r):
    assert outcome(f_inverse, r) == outcome(plain_f_inverse, r)


@pytest.fixture
def evaluations(monkeypatch):
    # solve(r) -> (f_inverse(r), the evaluations of f it made), from an empty
    # root cache unless cold=False, so that a ratio an earlier test solved is
    # not answered from the memo; the evaluations go through saddle._f
    calls = [0]
    evaluate = saddle._f

    def counting(t):
        calls[0] += 1
        return evaluate(t)

    def solve(r, cold=True):
        if cold:
            saddle._root.cache_clear()
        calls[0] = 0
        t = f_inverse(r)
        return t, calls[0]

    monkeypatch.setattr(saddle, "_f", counting)
    yield solve
    saddle._root.cache_clear()


LOG_SPACED = [300.0 ** (2.0 * i / 499 - 1.0) for i in range(500)]


def test_f_inverse_evaluates_f_a_few_times(evaluations):
    total = sum(evaluations(r)[1] for r in LOG_SPACED)
    # the plain bisection takes about 58 evaluations per solve
    assert total / len(LOG_SPACED) <= 16


def test_f_inverse_falls_back_next_to_the_cap(evaluations):
    # the root lies within the window's width of the cap, so the window is
    # dropped and every midpoint is evaluated
    for r in (CAP_RATIO, math.nextafter(CAP_RATIO, 0.0)):
        t, calls = evaluations(r)
        assert calls > 50
        assert t == plain_f_inverse(r)


@pytest.mark.parametrize("skew", [1 + 1e-3, 1 - 1e-3, 1 + 2**-40, 1 - 2**-40, math.nan])
def test_f_inverse_checks_the_newton_guess(monkeypatch, evaluations, skew):
    # a guess whose window misses the root fails the check, and the solve
    # evaluates every midpoint instead, with the same result
    newton = saddle._newton_guess
    monkeypatch.setattr(saddle, "_newton_guess", lambda target: newton(target) * skew)
    for r in (1.0, 1.5, 10.0, 0.1, 299.0):
        t, calls = evaluations(r)
        assert calls > 50
        assert t == plain_f_inverse(r)


def test_a_repeated_ratio_evaluates_f_zero_times(evaluations):
    for r in (1.5, 10.0, 299.0, 1 / 7):
        t, calls = evaluations(r)
        assert calls > 0
        again, calls = evaluations(r, cold=False)
        assert calls == 0 and again.hex() == t.hex()
        # 1/r reads the same root
        mirror, calls = evaluations(1 / r, cold=False)
        assert calls == 0 and mirror.hex() == evaluations(1 / r)[0].hex()


def newton_steps(monkeypatch, target):
    # the steps _newton_guess takes: each calls math.expm1 once, and the
    # start does not
    steps = [0]
    counting = types.SimpleNamespace(**{name: getattr(math, name) for name in dir(math) if name[0] != "_"})

    def expm1(x):
        steps[0] += 1
        return math.expm1(x)

    counting.expm1 = expm1
    with monkeypatch.context() as patch:
        patch.setattr(saddle, "math", counting)
        saddle._newton_guess(target)
    return steps[0]


def test_newton_takes_few_steps_and_its_window_holds(monkeypatch, evaluations):
    steps = [newton_steps(monkeypatch, max(r, 1 / r)) for r in LOG_SPACED]
    assert sum(steps) / len(steps) <= 2.5
    # a window that fails its check makes the solve evaluate every midpoint,
    # 50 and more; with the window it evaluates about 13 times
    for n in range(1, 61):
        for k in range(1, 61):
            assert evaluations(n / k)[1] <= 20, (n, k)


def comparison_steps(lo, hi, w_lo, w_hi):
    # the bisection of [lo, hi] while its midpoints fall outside the window
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi or w_lo < mid < w_hi:
            return lo, hi
        if mid <= w_lo:
            lo = mid
        else:
            hi = mid


GRID = 2**52  # floats in a binade [2^j, 2^(j+1)]
grid_points = st.integers(0, GRID) | st.sampled_from([0, 1, 2**51 - 1, 2**51, 2**51 + 1, GRID - 1, GRID])


@settings(max_examples=500)
@given(st.integers(0, 8), grid_points, grid_points)
@example(0, 0, GRID)
@example(5, 2**51, 2**51 + 700)
@example(5, 2**51 - 700, 2**51)
@example(8, GRID - 1000, GRID)
@example(8, 17, 18)
def test_binade_jump_lands_where_the_comparisons_end(j, low, high):
    if low == high:
        return
    low, high = sorted((low, high))
    lo = 2.0**j
    w_lo, w_hi = lo + low * 2.0 ** (j - 52), lo + high * 2.0 ** (j - 52)
    assert saddle._binade_jump(lo, w_lo, w_hi) == comparison_steps(lo, 2 * lo, w_lo, w_hi)


def neighbours(x, steps=3):
    # x and the `steps` floats either side of it
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def window_end(r, high):
    # the low (high=False) or high end of the window f_inverse checks
    return saddle._newton_guess(max(r, 1 / r)) * (1 + 2.0**-44 if high else 1 - 2.0**-44)


def ratios_with_window_end_at(point, high):
    # the ratios among 400 floats around f(point), less the window's half
    # width, whose window has its low or high end exactly at `point`
    r = f_dir(point / (1 + 2.0**-44) if high else point / (1 - 2.0**-44))
    return [x for x in neighbours(r, 200) if window_end(x, high) == point]


def assert_solves_as_plain_bisection(evaluations, ratios):
    cold = lambda r: evaluations(r)[0]  # noqa: E731
    for r in ratios:
        assert outcome(cold, r) == outcome(plain_f_inverse, r), r
        assert outcome(cold, 1 / r) == outcome(plain_f_inverse, 1 / r), r


@pytest.mark.parametrize("j", range(10))
def test_f_inverse_at_a_binade_end(evaluations, j):
    # the root at 2^j, an end of the doubling's brackets, or a float or
    # three either side of it
    assert_solves_as_plain_bisection(evaluations, neighbours(f_dir(2.0**j)))


def test_f_inverse_with_the_window_at_the_bracket_end(evaluations):
    # w_hi == hi = 2^(j+1): the window reaches the end of its binade bracket
    ratios = [r for j in range(9) for r in ratios_with_window_end_at(2.0 ** (j + 1), high=True)]
    assert len(ratios) >= 8
    assert_solves_as_plain_bisection(evaluations, ratios)


@pytest.mark.parametrize("high", [False, True])
@pytest.mark.parametrize("point", [1.5, 1.25, 1.75, 1.0 + 2.0**-20])
def test_f_inverse_with_a_window_end_on_a_midpoint(evaluations, point, high):
    # a window end on a midpoint the bisection of [2^j, 2^(j+1)] visits,
    # where the window's comparisons tie
    ratios = [r for j in range(9) for r in ratios_with_window_end_at(point * 2.0**j, high)]
    assert len(ratios) >= 4
    assert_solves_as_plain_bisection(evaluations, ratios)


def test_saddle_point_symmetric_direction():
    for k in (1, 7, 199, 10**300):
        assert saddle_point(k, k) == SaddlePoint(LOG2, LOG2, 1.0)


def test_saddle_point_variety_identity():
    for n, k in [(3, 11), (11, 3), (10, 12), (1, 50)]:
        sp = saddle_point(n, k)
        assert math.exp(-sp.a) + math.exp(-sp.b) == pytest.approx(1.0, abs=1e-11)


def test_saddle_point_critical_equation():
    for n in range(1, 51):
        for k in range(1, 51):
            sp = saddle_point(n, k)
            lhs = k * sp.a * math.exp(-sp.a)
            rhs = n * sp.b * math.exp(-sp.b)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_saddle_point_far_off_diagonal_is_mirror_image():
    sp = saddle_point(1, 200)
    sq = saddle_point(200, 1)
    assert (sp.a, sp.b) == (sq.b, sq.a)
    assert math.exp(-sp.a) + math.exp(-sp.b) == pytest.approx(1.0, abs=1e-11)


def test_estimators_outside_representable_cone_raise_value_error():
    for estimator in (bivar_asym_log, ml_asym_log, excedance_asym_log):
        for n, k in ((400, 1), (1, 400)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CompactnessWarning)
                with pytest.raises(ValueError, match="representable cone"):
                    estimator(n, k)


def test_acsv_cancellation_is_value_error_on_both_sides():
    for shift in (POLY_BERNOULLI_GF, ML_DEGREE_GF, (1, 0)):
        for n, k in ((260, 1), (1, 260)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CompactnessWarning)
                with pytest.raises(ValueError, match=rf"direction \({n},{k}\)"):
                    acsv_general_log(shift, n, k)


def test_saddle_point_swap_swaps_components():
    sp = saddle_point(5, 9)
    sq = saddle_point(9, 5)
    assert (sp.a, sp.b) == (sq.b, sq.a)


def test_correction_constants():
    expected = (2 * LOG2**3 + 3 * LOG2**2 - 12 * LOG2 + 6) / (16 * (1 - LOG2) ** 2)
    assert SECOND_ORDER_C == pytest.approx(expected, rel=1e-15)
    assert SECOND_ORDER_C == pytest.approx(-0.13962990570650863, abs=1e-16)
    assert DIAG_RATIO_C == pytest.approx(SECOND_ORDER_C - 0.5, rel=1e-15)


def test_bivar_log_frozen_value():
    assert bivar_asym_log(10, 12) == pytest.approx(42.08249346629643, rel=1e-14)


@settings(deadline=None)
@given(st.floats(min_value=0.0, max_value=300.0).map(lambda d: int(Decimal(10) ** Decimal(d))))
@example(1)
@example(5)
@example(20)
@example(50)
@example(10**300)
def test_bivar_matches_diagonal_form(k):
    # k log-uniform over the estimators' whole domain [1, 10**300]
    assert diag_asym_log(k, 1) == bivar_asym_log(k, k)
    assert math.isclose(ml_asym_log(k, k), paper_diagonal(k) - math.log(4.0), rel_tol=1e-10)


def test_bivar_off_diagonal_accuracy():
    log_exact = log_of_count(poly_bernoulli(20, 30))
    assert abs(math.exp(log_exact - bivar_asym_log(20, 30)) - 1.0) <= 0.05


def test_bivar_smallest_input_finite():
    assert math.isfinite(bivar_asym_log(1, 1))


def test_bivar_tracks_exact_count():
    log_exact = log_of_count(poly_bernoulli(30, 30))
    estimate = diag_asym_log(30, 1)
    assert abs(math.exp(log_exact - estimate) - 1.0) < 0.03


def test_diag_orders():
    assert diag_asym_log(30, 1) == pytest.approx(169.99149075031409, rel=1e-14)
    assert diag_asym_log(30, 2) == pytest.approx(169.97043064359124, rel=1e-14)
    with pytest.raises(ValueError):
        diag_asym_log(30, 3)


def test_diag_k1_closed_form():
    expected = math.log(
        math.sqrt(1.0 / (math.pi * (1.0 - LOG2))) * (1.0 / LOG2) ** 3
    )
    assert diag_asym_log(1, 1) == pytest.approx(expected, rel=1e-13)


def test_diag_order2_is_closer():
    for k in range(10, 61):
        log_exact = log_of_count(poly_bernoulli(k, k))
        err1 = abs(log_exact - diag_asym_log(k, 1))
        err2 = abs(log_exact - diag_asym_log(k, 2))
        assert err2 < err1


def test_diag_ratio_constant_at_50():
    log_exact = log_of_count(poly_bernoulli(50, 50))
    ratio = math.exp(log_exact - diag_asym_log(50, 1))
    assert abs((ratio - 1.0) * 50 - DIAG_RATIO_C) <= 0.1 * abs(DIAG_RATIO_C)


def test_d_diag_shift():
    assert ml_asym_log(30, 30) == pytest.approx(
        diag_asym_log(30, 1) - math.log(4.0), rel=1e-15
    )
    assert ml_asym_log(30, 30) == pytest.approx(168.6051963891942, rel=1e-14)


def test_d_diag_tracks_exact_count():
    log_exact = log_of_count(ml_degree(20, 20))
    assert abs(math.exp(log_exact - ml_asym_log(20, 20)) - 1.0) <= 0.1
    assert math.isfinite(ml_asym_log(1, 1))


def test_ml_log_frozen_value():
    assert ml_asym_log(10, 12) == pytest.approx(40.65377148216483, rel=1e-14)


def test_ml_is_bivar_shifted_by_saddle():
    sp = saddle_point(10, 12)
    assert ml_asym_log(10, 12) == pytest.approx(
        bivar_asym_log(10, 12) - sp.a - sp.b, abs=1e-12
    )


def test_ml_tracks_exact_count():
    log_exact = log_of_count(ml_degree(40, 40))
    assert abs(math.exp(log_exact - ml_asym_log(40, 40)) - 1.0) < 0.03


def test_ml_off_diagonal_accuracy():
    log_exact = log_of_count(ml_degree(20, 30))
    assert abs(math.exp(log_exact - ml_asym_log(20, 30)) - 1.0) <= 0.05
    assert math.isfinite(ml_asym_log(1, 1))


def test_excedance_estimator():
    assert excedance_asym_log(40, 60) == pytest.approx(326.35169600154836, rel=1e-14)
    log_exact = log_of_count(c_relative(40, 60))
    assert abs(math.exp(log_exact - excedance_asym_log(40, 60)) - 1.0) < 0.01


def test_excedance_diagonal_relation():
    assert excedance_asym_log(5, 5) == pytest.approx(
        bivar_asym_log(5, 5) - LOG2, abs=1e-12
    )
    assert math.isfinite(excedance_asym_log(1, 1))


def test_excedance_error_shrinks_with_size():
    def rel_error(r, s):
        log_exact = log_of_count(c_relative(r, s))
        return abs(math.exp(log_exact - excedance_asym_log(r, s)) - 1.0)

    assert rel_error(5, 5) < rel_error(3, 3)


def test_acsv_reproduces_closed_forms():
    for n in range(1, 31):
        for k in range(1, 31):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CompactnessWarning)
                assert abs(
                    acsv_general_log(POLY_BERNOULLI_GF, n, k) - bivar_asym_log(n, k)
                ) <= 1e-9
                assert abs(
                    acsv_general_log(ML_DEGREE_GF, n, k) - ml_asym_log(n, k)
                ) <= 1e-9
                assert abs(
                    acsv_general_log((1, 0), n, k) - excedance_asym_log(n, k)
                ) <= 1e-9


def test_acsv_ml_diagonal_is_corrected_form():
    for k in (5, 15, 30):
        assert acsv_general_log(ML_DEGREE_GF, k, k) == pytest.approx(
            paper_diagonal(k) - math.log(4.0), abs=1e-10
        )


def test_acsv_frozen_values():
    assert acsv_general_log(POLY_BERNOULLI_GF, 10, 12) == pytest.approx(
        42.08249346629643, rel=1e-14
    )
    assert acsv_general_log(ML_DEGREE_GF, 10, 12) == pytest.approx(
        40.65377148216483, rel=1e-14
    )


def test_compactness_warning_fires_off_cone():
    with pytest.warns(CompactnessWarning):
        bivar_asym_log(1, 50)
    with pytest.warns(CompactnessWarning):
        excedance_asym_log(50, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bivar_asym_log(10, 12)

"""Gaussian limit profiles and sup-norm discrepancy measurements."""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polybern import exactcomb, lclt
from polybern.exactcomb import GuardError, log_of_count
from polybern.lclt import (
    ML_SHAPE_K_MAX,
    ML_SHAPE_N_GUARD,
    gaussian_params,
    lclt_discrepancy,
    lclt_rows,
    ml_limit_discrepancy,
    ml_limit_shape,
    ml_scaled_coefficient,
    ml_window,
    nu_density,
    window_limit,
)

E = math.e


def test_gaussian_constants_closed_forms():
    p = gaussian_params("B")
    rho = 1.0 - math.log(E - 1.0)
    assert p.rho == pytest.approx(rho, rel=1e-15)
    assert p.amplitude == pytest.approx(E / ((1 - math.log(E - 1)) * (E - 1)), rel=1e-15)
    assert p.mean_rate == pytest.approx(p.amplitude / E, rel=1e-15)
    assert p.variance_rate == pytest.approx(
        p.mean_rate**2 * math.log(E - 1.0), rel=1e-15
    )


@pytest.mark.parametrize(
    "field,digits",
    [("rho", 458), ("amplitude", 3449), ("mean_rate", 1268), ("variance_rate", 871)],
)
def test_gaussian_constants_printed_digits(field, digits):
    p = gaussian_params("B")
    assert math.floor(getattr(p, field) * 1000) == digits


def test_prefactors():
    assert gaussian_params("B").prefactor == 1.0
    assert gaussian_params("C").prefactor == math.exp(-1.0)
    assert gaussian_params("D").prefactor == math.exp(-1.0) * (1.0 - math.exp(-1.0))


def test_gaussian_params_shared_shape():
    b, d = gaussian_params("B"), gaussian_params("D")
    assert (b.rho, b.mean_rate, b.variance_rate) == (d.rho, d.mean_rate, d.variance_rate)
    with pytest.raises(ValueError):
        gaussian_params("X")


def test_nu_density_frozen_value():
    p = gaussian_params("B")
    assert nu_density(40, 51, p) == pytest.approx(0.23284399868732936, rel=1e-14)


def test_nu_density_peaks_near_mean():
    p = gaussian_params("B")
    n = 60
    center = n * p.mean_rate
    k_star = round(center)
    assert nu_density(n, k_star, p) > nu_density(n, k_star + 8, p)
    assert nu_density(n, k_star, p) > nu_density(n, k_star - 8, p)


def test_nu_density_symmetric_about_mean():
    p = gaussian_params("B")
    center = 40 * p.mean_rate
    for delta in (0.5, 1.5, 4.0):
        assert nu_density(40, center + delta, p) == pytest.approx(
            nu_density(40, center - delta, p), rel=1e-12
        )


def test_nu_density_total_mass():
    p = gaussian_params("B")
    total = sum(nu_density(100, k, p) for k in range(400))
    assert total == pytest.approx(p.amplitude, rel=0.01)


def test_scaled_counts_at_n_2():
    p = gaussian_params("B")
    b_rows, _ = lclt_rows(2, "B")
    d_rows, _ = lclt_rows(2, "D")
    # B(2,1) = 4 and D(2,1) = 1, over 2! 1!
    assert b_rows[1][1] == pytest.approx(2.0 * p.rho**2, rel=1e-14)
    assert d_rows[1][1] == pytest.approx(p.rho**2 / 2.0, rel=1e-14)
    # D(2,0) = 0 has no log
    assert d_rows[0][1] == 0.0


def _per_k_rows(n, which):
    # Reference: one triangle sum per k, each scaled by the expression
    # lclt_rows uses, so the two must agree bit for bit.
    p = gaussian_params(which)
    rows = []
    for k in range(window_limit(n, p) + 1):
        value = exactcomb._shifted_sum(n, k, exactcomb.SHIFTS[which])
        scaled = 0.0
        if value != 0:
            scaled = math.exp(
                n * math.log(p.rho) + log_of_count(value) - math.lgamma(n + 1) - math.lgamma(k + 1)
            )
        rows.append((k, scaled, p.prefactor * nu_density(n, k, p)))
    return rows


@pytest.mark.parametrize("which", ["B", "C", "D"])
@pytest.mark.parametrize("n", [2, 57, 200])
def test_rows_equal_the_per_k_path(n, which):
    assert lclt_rows(n, which)[0] == _per_k_rows(n, which)


def test_window_limit_covers_the_mass():
    p = gaussian_params("B")
    assert window_limit(10, p) == 49
    assert window_limit(300, p) == 400


def test_a_window_that_cuts_the_mass_raises(monkeypatch):
    # a window ending at the mean leaves an edge term near the sup
    monkeypatch.setattr(lclt, "window_limit", lambda n, p: round(n * p.mean_rate))
    with pytest.raises(ArithmeticError) as error:
        lclt_rows(50, "B")
    assert type(error.value) is ArithmeticError
    assert str(error.value).startswith("window truncation unsafe at n=50")


@pytest.mark.parametrize(
    "n,sup,argmax",
    [
        (10, 0.047393956997030334, 18),
        (20, 0.023502648548364535, 32),
        (40, 0.011598506349406165, 60),
        (80, 0.0057215559384704365, 115),
    ],
)
def test_discrepancy_b_frozen(n, sup, argmax):
    report = lclt_discrepancy(n, "B")
    assert report.n == n
    assert report.sup == pytest.approx(sup, rel=1e-12)
    assert report.argmax_k == argmax


@pytest.mark.parametrize(
    "n,sup,argmax",
    [
        (10, 0.005879459708163344, 7),
        (20, 0.002643715916034712, 17),
        (40, 0.0012448401147569206, 39),
        (80, 0.0005962856066581814, 85),
    ],
)
def test_discrepancy_d_frozen(n, sup, argmax):
    report = lclt_discrepancy(n, "D")
    assert report.sup == pytest.approx(sup, rel=1e-12)
    assert report.argmax_k == argmax


@pytest.mark.parametrize(
    "n,sup,argmax",
    [
        (10, 0.02424772049537878, 10),
        (20, 0.011933156790355226, 21),
        (40, 0.006002774231898031, 45),
        (80, 0.0030098924991464188, 94),
    ],
)
def test_discrepancy_c_frozen(n, sup, argmax):
    report = lclt_discrepancy(n, "C")
    assert report.sup == pytest.approx(sup, rel=1e-12)
    assert report.argmax_k == argmax


@pytest.mark.parametrize("which", ["B", "C", "D"])
def test_discrepancy_domain_is_2_to_200(which):
    # At n = 1 the window's edge gap is 6e-7 of the sup, above the tail
    # guard; the domain starts at 2 instead of raising ArithmeticError.
    for n in (1, 201):
        with pytest.raises(GuardError):
            lclt_discrepancy(n, which)
    assert lclt_discrepancy(2, which).n == 2
    assert lclt_discrepancy(200, which).n == 200
    with pytest.raises(ValueError):
        lclt_discrepancy(30, "ML")


@pytest.mark.parametrize(
    "which,n", [("B", 2), ("B", 57), ("C", 2), ("C", 200), ("D", 2), ("D", 200), ("ML", 2), ("ML", 57)]
)
def test_rows_carry_their_report(which, n):
    rows, report = lclt_rows(n, which)
    if which == "ML":
        lo, hi = ml_window(n, 2.0)
        assert report == ml_limit_discrepancy(n)
    else:
        lo, hi = 0, window_limit(n, gaussian_params(which))
        assert report == lclt_discrepancy(n, which)
    assert [k for k, _, _ in rows] == list(range(lo, hi + 1))
    worst = max(rows, key=lambda row: abs(row[1] - row[2]))
    assert (report.n, report.sup, report.argmax_k) == (n, abs(worst[1] - worst[2]), worst[0])


def test_discrepancy_peaks_near_the_mode():
    p = gaussian_params("B")
    report = lclt_discrepancy(40, "B")
    center = 40 * p.mean_rate
    spread = 3.0 * math.sqrt(40 * p.variance_rate)
    assert center - spread <= report.argmax_k <= center + spread


@pytest.mark.parametrize("which", ["B", "C", "D"])
def test_discrepancy_decreases_raw_and_scaled(which):
    sups = [lclt_discrepancy(n, which).sup for n in (10, 20, 40, 80)]
    assert sups[0] > sups[1] > sups[2] > sups[3]
    scaled = [s * math.sqrt(n) for s, n in zip(sups, (10, 20, 40, 80))]
    assert scaled[0] > scaled[1] > scaled[2] > scaled[3]


def test_ml_limit_shape_peak():
    peak = 1.0 / ((4.0 * math.log(2.0)) * math.sqrt(1.0 - math.log(2.0)))
    assert ml_limit_shape(50, 25) == pytest.approx(peak, abs=1e-12)
    assert ml_limit_shape(50, 25) == pytest.approx(0.6511026884815051, abs=1e-14)


def test_ml_limit_shape_symmetric():
    for offset in range(1, 15):
        left = ml_limit_shape(50, 25 - offset)
        right = ml_limit_shape(50, 25 + offset)
        assert left == pytest.approx(right, rel=1e-12)


def test_ml_window_and_scaled():
    assert ml_window(30, 2.0) == (5, 25)
    assert ml_scaled_coefficient(30, 15) == pytest.approx(0.6630603224173085, rel=1e-13)


@pytest.mark.parametrize(
    "n,sup,argmax",
    [
        (30, 0.011957633935803402, 15),
        (60, 0.005898412422243315, 30),
        (120, 0.002929824182988372, 60),
    ],
)
def test_ml_discrepancy_frozen(n, sup, argmax):
    report = ml_limit_discrepancy(n, 2.0)
    assert report.sup == pytest.approx(sup, rel=1e-12)
    assert report.argmax_k == argmax


def test_ml_discrepancy_decreases():
    sups = [ml_limit_discrepancy(n, 2.0).sup for n in (30, 60, 120)]
    assert sups[0] > sups[1] > sups[2]


def test_ml_guards():
    with pytest.raises(GuardError):
        ml_limit_discrepancy(121, 2.0)
    with pytest.raises(ValueError):
        ml_limit_discrepancy(30, 0.0)
    with pytest.raises(GuardError):
        ml_limit_discrepancy(1, 2.0)
    assert ml_limit_discrepancy(30, 3.5) == lclt_rows(30, "ML", 3.5)[1]


def test_empty_ml_window_is_value_error():
    # |k - 3/2| <= 0.05 sqrt(3) holds no integer k.
    with pytest.raises(ValueError, match=r"window 0.05 holds no integer k at n=3"):
        ml_window(3, 0.05)
    with pytest.raises(ValueError, match=r"at n=3"):
        ml_limit_discrepancy(3, 0.05)
    assert ml_window(4, 0.05) == (2, 2)
    # The default window 2.0 is never empty on the ML domain.
    for n in range(2, ML_SHAPE_N_GUARD + 1):
        lo, hi = ml_window(n, 2.0)
        assert lo <= hi


def test_window_is_ml_only():
    # ML reads 2.0 when no window is given; B, C and D take none.
    assert lclt_rows(30, "ML") == lclt_rows(30, "ML", 2.0)
    assert ml_limit_discrepancy(30) == ml_limit_discrepancy(30, 2.0)
    for which in exactcomb.SHIFTS:
        with pytest.raises(ValueError, match="window applies to 'ML' only"):
            lclt_rows(20, which, window=99)
        with pytest.raises(ValueError, match="window applies to 'ML' only"):
            lclt_rows(20, which, window=2.0)


@pytest.mark.parametrize("n", [10**17 + 3, 10**20 + 7, 10**40 + 1, 10**300])
@pytest.mark.parametrize("window", [0.05, 0.5, 1.0, 2.0, 3.5, 5.0])
def test_ml_window_is_exact_at_large_n(n, window):
    # lo and hi are the first and last k with (2k - n)^2 <= 4 window^2 n,
    # in exact arithmetic; float bounds drift off them from n ~ 1e17.
    def inside(k):
        return (2 * k - n) ** 2 <= 4 * Fraction(str(window)) ** 2 * n

    lo, hi = ml_window(n, window)
    assert inside(lo) and inside(hi) and not inside(lo - 1) and not inside(hi + 1)


def test_ml_window_reads_the_window_as_printed():
    # 0.3 is 3/10: |11 - 25/2| = 0.3 sqrt(25) lies on the edge and is kept,
    # as are both edges of |k - 225/2| <= 4.1 sqrt(225) = 61.5.
    assert ml_window(25, 0.3) == (11, 14)
    assert ml_window(225, 4.1) == (51, 174)


@settings(max_examples=500)
@given(
    st.integers(min_value=1, max_value=10**18),
    st.floats(min_value=0.0, max_value=ML_SHAPE_K_MAX, exclude_min=True),
)
@example(225, 4.1)
@example(3, 0.05)
@example(10**18, 5e-324)
def test_ml_window_is_the_exact_window_of_the_printed_decimal(n, window):
    # the window read from its repr by decimal, not by fractions.Fraction,
    # which ml_window uses
    p, q = Decimal(repr(window)).as_integer_ratio()

    def inside(k):
        return (2 * k - n) ** 2 * q * q <= 4 * p * p * n

    try:
        lo, hi = ml_window(n, window)
    except ValueError:
        # the window is an interval about n/2, so it is empty when neither
        # integer next to n/2 lies in it
        assert not inside(n // 2) and not inside((n + 1) // 2)
        return
    assert 0 <= lo <= hi <= n
    assert inside(lo) and inside(hi)
    assert lo == 0 or not inside(lo - 1)
    assert hi == n or not inside(hi + 1)


@pytest.mark.parametrize("k", [1e200, -1e200, 1.7e308])
def test_limit_densities_underflow_far_from_the_centre(k):
    # (k - centre)^2 leaves the float range, the value is 0.0
    assert ml_limit_shape(10, k) == 0.0
    assert nu_density(10, k, gaussian_params("B")) == 0.0
    assert ml_limit_shape(10**300, k) == 0.0
    assert nu_density(10**300, k, gaussian_params("D")) == 0.0

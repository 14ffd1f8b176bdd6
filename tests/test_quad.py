"""Quadrature layer: circle means, Laplace integrals, residue contours."""

import cmath
import math

import pytest

from polybern.exactcomb import GuardError, log_of_count, poly_bernoulli
from polybern.quad import (
    QuadratureSpec,
    laplace_integral_diag,
    laplace_integrand_diag,
    parseval_b,
    residue_defect,
    residue_integral_b,
    u_poly,
)
from polybern.saddle import diag_asym_log, saddle_point


def test_spec_validates_nodes():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=7)
    for radius in (-1.0, 0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            QuadratureSpec(nodes=10, radius=radius)
    spec = QuadratureSpec(nodes=64, radius=0.5)
    assert spec.nodes == 64 and spec.radius == 0.5


def test_u_poly_small_cases():
    assert u_poly(1, 0.0) == pytest.approx(2.0)
    assert u_poly(3, 0.0) == pytest.approx(26.0)
    assert u_poly(0, 1.7) == pytest.approx(1.0)


def test_u_poly_conjugate_symmetry():
    value = u_poly(4, 0.9)
    mirror = u_poly(4, -0.9)
    assert value.real == pytest.approx(mirror.real, rel=1e-12)
    assert value.imag == pytest.approx(-mirror.imag, rel=1e-12)


def test_u_poly_guard():
    with pytest.raises(GuardError):
        u_poly(61, 0.0)


@pytest.mark.parametrize("k", range(11))
def test_parseval_reproduces_diagonal(k):
    spec = QuadratureSpec(nodes=max(8, 2 * k + 4))
    value = parseval_b(k, spec)
    assert value == pytest.approx(poly_bernoulli(k, k), rel=1e-9)


@pytest.mark.parametrize("k", range(11))
def test_parseval_node_count_independent(k):
    coarse = parseval_b(k, QuadratureSpec(nodes=max(8, 2 * k + 4)))
    fine = parseval_b(k, QuadratureSpec(nodes=max(8, 4 * k + 8)))
    assert coarse == pytest.approx(fine, rel=1e-10)


def test_parseval_k0_trivial():
    assert parseval_b(0, QuadratureSpec(nodes=8)) == pytest.approx(1.0, rel=1e-12)


def test_parseval_k3_generous_nodes():
    assert parseval_b(3, QuadratureSpec(nodes=64)) == pytest.approx(230.0, rel=1e-9)


def test_parseval_guards():
    with pytest.raises(GuardError):
        parseval_b(21, QuadratureSpec(nodes=64))
    with pytest.raises(GuardError):
        parseval_b(10, QuadratureSpec(nodes=16))


def test_radius_applies_to_residue_only():
    spec = QuadratureSpec(nodes=64, radius=0.5)
    with pytest.raises(ValueError, match="radius 0.5 applies to residue_integral_b only"):
        parseval_b(3, spec)
    with pytest.raises(ValueError, match="radius 0.5 applies to residue_integral_b only"):
        laplace_integral_diag(3, spec)


def test_laplace_integrand_positive_and_frozen():
    assert laplace_integrand_diag(2, 1.0) == pytest.approx(5.501144009623934, rel=1e-13)
    assert laplace_integrand_diag(5, 0.0) > 0.0


def test_laplace_integrand_center_value():
    assert laplace_integrand_diag(0, 0.0) == pytest.approx(
        1.0 / math.log(2.0) ** 2, rel=1e-13
    )


def test_laplace_integrand_even():
    for phi in (0.3, 1.1, 2.9):
        assert laplace_integrand_diag(4, phi) == pytest.approx(
            laplace_integrand_diag(4, -phi), rel=1e-13
        )


def test_laplace_integrand_rejects_endpoints():
    with pytest.raises(ValueError):
        laplace_integrand_diag(3, math.pi)
    with pytest.raises(ValueError):
        laplace_integrand_diag(3, -math.pi)


def test_laplace_matches_prediction_at_100():
    log_integral = laplace_integral_diag(100, QuadratureSpec(nodes=512))
    log_prediction = diag_asym_log(100, 1) - 2.0 * math.lgamma(101.0)
    assert abs(math.exp(log_integral - log_prediction) - 1.0) <= 0.02


def test_laplace_ratio_improves_with_k():
    defects = []
    for k in (25, 50, 100, 200):
        log_integral = laplace_integral_diag(k, QuadratureSpec(nodes=1024))
        log_prediction = diag_asym_log(k, 1) - 2.0 * math.lgamma(k + 1.0)
        defects.append(abs(math.exp(log_integral - log_prediction) - 1.0))
    assert defects[1] > defects[2] > defects[3]


def test_laplace_value_scale_small_k():
    log_value = laplace_integral_diag(25, QuadratureSpec(nodes=512))
    assert log_value == pytest.approx(math.log(26063264.686964307), abs=1e-12)


def test_residue_matches_exact_count():
    spec = QuadratureSpec(nodes=4096)
    defect = residue_defect(8, 12, spec)
    assert abs(defect) <= 1e-4
    assert defect == pytest.approx(-5.602172166163655e-07, abs=1e-9)


def test_residue_mean_is_nearly_real():
    # The trapezoid mean of x^-n / ((1 - e^-x) (-log(1 - e^-x))^(k+1)),
    # evaluated directly: its imaginary part cancels, and n! k! times its
    # real part is what residue_integral_b returns in log space.
    n, k, nodes = 8, 12, 4096
    radius = saddle_point(n, k).a
    total = 0j
    for j in range(nodes):
        x = radius * cmath.exp(2j * math.pi * j / nodes)
        lg = cmath.log(1.0 - cmath.exp(-x))
        total += x**-n / (1.0 - cmath.exp(-x)) / (-lg) ** (k + 1)
    mean = total / nodes
    assert abs(mean.imag) <= 1e-8 * abs(mean.real)
    direct = math.lgamma(n + 1) + math.lgamma(k + 1) + math.log(mean.real)
    assert residue_integral_b(n, k, QuadratureSpec(nodes=nodes)) == pytest.approx(direct, rel=1e-12)


def test_residue_doubling_is_stable():
    lo = residue_integral_b(8, 12, QuadratureSpec(nodes=2048))
    hi = residue_integral_b(8, 12, QuadratureSpec(nodes=4096))
    assert abs(lo - hi) < 1e-6


def test_residue_explicit_radius():
    log_integral = residue_integral_b(6, 6, QuadratureSpec(nodes=2048, radius=0.5))
    log_exact = log_of_count(poly_bernoulli(6, 6))
    assert abs(log_integral - log_exact) < 1e-4


def test_residue_rejects_singular_radius():
    with pytest.raises(ValueError):
        residue_integral_b(6, 6, QuadratureSpec(nodes=2048, radius=2 * math.pi))


@pytest.mark.parametrize("n,k", [(31, 1), (38, 1)])
def test_residue_failure_is_a_value_error_naming_the_radius(n, k):
    # At (31, 1) the quadrature mean loses positivity; at (38, 1)
    # 1 - exp(-x) rounds to 1 at the node x = radius.
    with pytest.raises(ValueError, match=rf"^radius [0-9.]+ at \({n},{k}\): "):
        residue_integral_b(n, k, QuadratureSpec(1024))


def test_residue_guard():
    with pytest.raises(GuardError):
        residue_integral_b(41, 5, QuadratureSpec(nodes=2048))
    with pytest.raises(ValueError):
        residue_integral_b(0, 5, QuadratureSpec(nodes=2048))

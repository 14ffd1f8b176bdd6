"""Quadrature layer: circle means, Laplace integrals, residue contours."""

import cmath
import math

import pytest

from polybern.exactcomb import GuardError, log_of_count, poly_bernoulli
from polybern.quad import (
    NODES_GUARD,
    QuadratureSpec,
    _laplace_exponent,
    laplace_integral_diag,
    parseval_b,
    residue_integral_b,
)
from polybern.saddle import diag_asym_log, saddle_point


def test_spec_validates_nodes():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=7)
    for nodes in (10.0, True, "64"):
        with pytest.raises(ValueError, match=f"nodes must be an int, got {nodes!r}"):
            QuadratureSpec(nodes=nodes)
    assert QuadratureSpec(nodes=64).nodes == 64


def test_spec_guards_the_node_count():
    assert QuadratureSpec(nodes=NODES_GUARD).nodes == 2**16
    for nodes in (NODES_GUARD + 2, 10**9):
        with pytest.raises(GuardError, match=f"nodes={nodes} exceeds node guard 65536"):
            QuadratureSpec(nodes=nodes)


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


# The Laplace rule averages the integrand 1/|log(1 + exp(-i phi))|^(2k+2)
# through its log, _laplace_exponent.


def test_laplace_integrand_positive_and_frozen():
    assert math.exp(_laplace_exponent(2, 1.0)) == pytest.approx(5.501144009623934, rel=1e-13)
    assert math.exp(_laplace_exponent(5, 0.0)) > 0.0


def test_laplace_integrand_center_value():
    assert math.exp(_laplace_exponent(0, 0.0)) == pytest.approx(
        1.0 / math.log(2.0) ** 2, rel=1e-13
    )


def test_laplace_integrand_even():
    for phi in (0.3, 1.1, 2.9):
        assert math.exp(_laplace_exponent(4, phi)) == pytest.approx(
            math.exp(_laplace_exponent(4, -phi)), rel=1e-13
        )


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
    defect = residue_integral_b(8, 12, spec) - log_of_count(poly_bernoulli(8, 12))
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


@pytest.mark.parametrize("n,k", [(31, 1), (38, 1)])
def test_residue_failure_is_a_value_error_naming_the_radius(n, k):
    # At (31, 1) the quadrature mean loses positivity; at (38, 1)
    # 1 - exp(-x) rounds to 1 at the node x = radius.
    with pytest.raises(ValueError, match=rf"^radius [0-9.]+ at \({n},{k}\): "):
        residue_integral_b(n, k, QuadratureSpec(1024))

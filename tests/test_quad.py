"""Quadrature layer: circle means, Laplace integrals, residue contours."""

import cmath
import math
import re

import pytest

from polybern.exactcomb import GuardError, log_of_count, poly_bernoulli
from polybern.quad import (
    NODES_GUARD,
    QuadratureSpec,
    _horner,
    _laplace_log,
    _u_coefficients,
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
# through its log, -(2k+2) times _laplace_log.


def _laplace_exponent(k, phi):
    return -(2 * k + 2) * _laplace_log(phi)


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


# Each rule evaluates one half of its conjugate-symmetric circle. These
# full-circle loops are the rules as they were before, kept here to bound
# what the halving changed.


def _full_parseval(k, nodes):
    coeffs = _u_coefficients(k)
    return sum(abs(_horner(coeffs, cmath.exp(1j * (2 * math.pi * j / nodes)))) ** 2 for j in range(nodes)) / nodes


def _full_laplace(k, nodes):
    exponents = [_laplace_exponent(k, -math.pi + (j + 0.5) * 2 * math.pi / nodes) for j in range(nodes)]
    top = max(exponents)
    return top + math.log(sum(math.exp(e - top) for e in exponents) / nodes)


def _full_residue(n, k, nodes):
    radius = saddle_point(n, k).a
    logs = []
    for j in range(nodes):
        x = radius * cmath.exp(2j * math.pi * j / nodes)
        lg = cmath.log(1.0 - cmath.exp(-x))
        logs.append(-n * cmath.log(x) - lg - (k + 1) * cmath.log(-lg))
    top = max(w.real for w in logs)
    mean = sum(cmath.exp(w - top) for w in logs) / nodes
    return math.lgamma(n + 1) + math.lgamma(k + 1) + top + math.log(mean.real)


@pytest.mark.parametrize("k", range(21))
def test_parseval_half_circle_equals_full_circle(k):
    for nodes in (max(8, 2 * k + 4), max(8, 2 * k + 6), 64):
        assert parseval_b(k, QuadratureSpec(nodes)) == pytest.approx(_full_parseval(k, nodes), rel=1e-14, abs=0)


@pytest.mark.parametrize("k", [0, 1, 50, 300])
def test_laplace_half_circle_equals_full_circle(k):
    for nodes in (8, 64, 512, 4096):
        assert laplace_integral_diag(k, QuadratureSpec(nodes)) == pytest.approx(_full_laplace(k, nodes), abs=1e-13)


@pytest.mark.parametrize("nodes", [64, 1024, 4096])
def test_residue_half_circle_equals_full_circle(nodes):
    # Bounded where the rule recovers B: within 1e-4 of log B(n, k).
    sides = (1, 2, 5, 12, 25, 33, 40)
    compared = 0
    for n in sides:
        for k in sides:
            try:
                half = residue_integral_b(n, k, QuadratureSpec(nodes))
            except ValueError:
                continue
            if abs(half - log_of_count(poly_bernoulli(n, k))) <= 1e-4:
                assert half == pytest.approx(_full_residue(n, k, nodes), abs=1e-12), (n, k)
                compared += 1
    assert compared >= 25


@pytest.mark.parametrize(
    "n,k,nodes,reason",
    [
        (1, 37, 1024, "quadrature mean -0.00070680578[0-9]* lost positivity"),
        (31, 1, 1024, r"quadrature mean -6\.3871236[0-9]*e-06 lost positivity"),
        (38, 1, 1024, r"1 - exp\(-x\) rounds to 0 or 1 at a node"),
        (33, 1, 4096, r"quadrature mean -6\.5218541[0-9]*e-05 lost positivity"),
    ],
    ids=["1-37", "31-1", "38-1", "33-1"],
)
def test_residue_failure_is_a_value_error_naming_the_radius(n, k, nodes, reason):
    # Where the rule breaks down on the saddle circle: the mean, the real
    # part of the full-circle mean, is negative, or 1 - exp(-x) rounds to
    # 1 at the node x = radius.
    radius = re.escape(str(saddle_point(n, k).a))
    with pytest.raises(ValueError, match=rf"^radius {radius} at \({n},{k}\): {reason}$"):
        residue_integral_b(n, k, QuadratureSpec(nodes))


# The rules read per-node tables kept per node count; these references
# compute every node inline, as the rules did before the tables, and must
# agree with them float for float and error for error.


def _nodewise_parseval(k, nodes):
    # each root from its angle, as the rule took them before it read the
    # residue rule's table of unit roots
    two_pi = 2.0 * math.pi
    coeffs = _u_coefficients(k)
    inner = sum(abs(_horner(coeffs, cmath.exp(1j * (two_pi * j / nodes)))) ** 2 for j in range(1, nodes // 2))
    ends = abs(_horner(coeffs, cmath.exp(1j * 0.0))) ** 2 + abs(_horner(coeffs, cmath.exp(1j * math.pi))) ** 2
    return (ends + 2.0 * inner) / nodes


def _nodewise_laplace(k, nodes):
    two_pi = 2.0 * math.pi
    exponents = [
        -(2 * k + 2) * math.log(abs(cmath.log(1.0 + cmath.exp(-1j * ((j + 0.5) * two_pi / nodes)))))
        for j in range(nodes // 2)
    ]
    top = max(exponents)
    mean = 2.0 * sum(math.exp(e - top) for e in exponents) / nodes
    return top + math.log(mean)


def _nodewise_residue(n, k, nodes):
    two_pi = 2.0 * math.pi
    radius = saddle_point(n, k).a
    half = nodes // 2
    logs = []
    try:
        for j in range(half + 1):
            x = radius * cmath.exp(1j * two_pi * j / nodes)
            lg = cmath.log(1.0 - cmath.exp(-x))
            logs.append(-n * cmath.log(x) - lg - (k + 1) * cmath.log(-lg))
    except ValueError:
        raise ValueError(f"radius {radius} at ({n},{k}): 1 - exp(-x) rounds to 0 or 1 at a node") from None
    top = max(w.real for w in logs)
    inner = sum(cmath.exp(logs[j] - top).real for j in range(1, half))
    mean = (cmath.exp(logs[0] - top).real + cmath.exp(logs[half] - top).real + 2.0 * inner) / nodes
    if mean <= 0:
        raise ValueError(f"radius {radius} at ({n},{k}): quadrature mean {mean} lost positivity")
    return math.lgamma(n + 1) + math.lgamma(k + 1) + top + math.log(mean)


def _hex_outcome(rule, *args):
    # the float returned, by float.hex, or the type and message raised
    try:
        return rule(*args).hex()
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("k", range(21))
def test_parseval_equals_the_nodewise_rule(k):
    # 2k+4 and 2k+6 are not powers of two for most k
    for nodes in (max(8, 2 * k + 4), max(8, 2 * k + 6), 64, 4096):
        assert parseval_b(k, QuadratureSpec(nodes)).hex() == _nodewise_parseval(k, nodes).hex(), nodes


@pytest.mark.parametrize("nodes", [512, 1024])
def test_laplace_equals_the_nodewise_rule(nodes):
    for k in range(301):
        assert laplace_integral_diag(k, QuadratureSpec(nodes)).hex() == _nodewise_laplace(k, nodes).hex(), k


@pytest.mark.parametrize("nodes", [64, 1024, 4096])
def test_residue_equals_the_nodewise_rule(nodes):
    raised = 0
    for n in range(1, 41):
        for k in range(1, 41):
            got = _hex_outcome(residue_integral_b, n, k, QuadratureSpec(nodes))
            assert got == _hex_outcome(_nodewise_residue, n, k, nodes), (n, k)
            raised += isinstance(got, tuple)
    # the breakdown points of the saddle circle: 10, 9 and 11 of them
    assert raised == {64: 10, 1024: 9, 4096: 11}[nodes]


def test_rules_equal_the_nodewise_rules_after_the_tables_are_evicted():
    # more distinct node counts than the tables keep (4 and 8), then the first again
    counts = [8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 8]
    for nodes in counts:
        for k in (0, 7, 300):
            assert laplace_integral_diag(k, QuadratureSpec(nodes)).hex() == _nodewise_laplace(k, nodes).hex()
        for k in (0, 2, min(20, nodes // 2 - 2)):
            assert parseval_b(k, QuadratureSpec(nodes)).hex() == _nodewise_parseval(k, nodes).hex(), (k, nodes)
        for n, k in ((1, 1), (12, 5), (5, 12), (40, 40)):
            got = _hex_outcome(residue_integral_b, n, k, QuadratureSpec(nodes))
            assert got == _hex_outcome(_nodewise_residue, n, k, nodes), (n, k, nodes)

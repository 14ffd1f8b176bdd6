"""Periodic-trapezoid cross-checks of the integral identities.

The unit-circle mean of a squared coefficient polynomial recovers the
diagonal counts exactly; the integral of the dominant term on the saddle
circle estimates log B(n,k), which the caller compares with the count;
the diagonal contour integral approaches its quadratic-peak (Laplace)
prediction. Each integrand is conjugate-symmetric, so each rule evaluates
one half of its N nodes and `_fold` counts each node off the real axis
twice, for itself and its mirror. Each rule converts its real and integer
operands to complex (or float) once per call rather than at every node; the
operations on them are the same, so the floats are too.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .exactcomb import GuardError, LogEstimate, _check_sizes, _u_row
from .saddle import _solve

PARSEVAL_GUARD = 20
LAPLACE_GUARD = 300
RESIDUE_GUARD = 40
# The Laplace and residue rules hold about N/2 terms before averaging, so time
# and memory grow with N; 2^16 is 16 times the most any check uses.
NODES_GUARD = 2**16


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count for one trapezoid rule."""

    nodes: int

    def __post_init__(self):
        _check_sizes("nodes must be an int", "nodes", 0, NODES_GUARD, "node guard", self.nodes)
        if self.nodes < 8 or self.nodes % 2:
            raise ValueError(f"nodes must be even and >= 8, got {self.nodes}")


def _horner(coeffs: list[complex] | list[float], y: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def _fold(ends: float, inner: list[float], nodes: int) -> float:
    # The N-node circle mean of a conjugate-symmetric integrand from its nodes
    # in [0, pi]: the real-axis ends once, each inner node twice. math.fsum is
    # correctly rounded, so the mean is the same float on every Python.
    return (ends + 2.0 * math.fsum(inner)) / nodes


def parseval_b(k: int, spec: QuadratureSpec) -> float:
    """B(k,k) as the circle mean of |u_k|^2, u_k(y) = sum_m m! S(k+1,m+1) y^m.

    The integrand is a trigonometric polynomial of degree k, so any node
    count >= 2k+2 is exact up to rounding; the guard demands 2k+4.
    """
    _check_sizes("k must be an int", "k", 0, PARSEVAL_GUARD, "parseval guard", k)
    if spec.nodes < 2 * k + 4:
        raise GuardError(f"nodes={spec.nodes} below exactness bound {2 * k + 4}")
    # complex coefficients, so that Horner adds no float-to-complex promotion
    coeffs = [complex(u) for u in _u_row(k, 1)]
    # |u| is even in phi (real coefficients)
    terms = [abs(_horner(coeffs, y)) ** 2 for y in _half_circle(spec.nodes)]
    return _fold(terms[0] + terms[-1], terms[1:-1], spec.nodes)


def _laplace_log(phi: float) -> float:
    # log|log(1 + exp(-i phi))|; the integrand's log is -(2k+2) times it
    return math.log(abs(cmath.log(1.0 + cmath.exp(-1j * phi))))


# Per-node tables, kept per node count: Laplace's logs for the last 4 counts,
# and the unit roots parseval and the residue rule share for the last 8 (an
# estimates benchmark pass reads six: 8, 16, 32, 64, 1024, 4096). At NODES_GUARD
# a table of logs holds 1.05 MB and one of roots 1.31 MB (tracemalloc), so the
# twelve hold at most about 15 MB.
@functools.lru_cache(maxsize=4)
def _laplace_logs(nodes: int) -> tuple[float, ...]:
    # _laplace_log at the N/2 midpoint nodes in (0, pi)
    return tuple(_laplace_log((j + 0.5) * math.tau / nodes) for j in range(nodes // 2))


@functools.lru_cache(maxsize=8)
def _half_circle(nodes: int) -> tuple[complex, ...]:
    # exp(2 pi i j / N) for j = 0..N/2
    return tuple(cmath.exp(1j * math.tau * j / nodes) for j in range(nodes // 2 + 1))


def laplace_integral_diag(k: int, spec: QuadratureSpec) -> LogEstimate:
    """Natural log of the trapezoid value of the diagonal contour integral."""
    _check_sizes("k must be an int", "k", 0, LAPLACE_GUARD, "laplace guard", k)
    # Midpoint-offset nodes keep the rule away from the phi = +-pi
    # singularity; terms are combined in log space since the peak value
    # grows like (1/log 2)^(2k+2). The exponent is even in phi, and no node
    # lies on the real axis.
    # power < 0 and rounding is monotone, so power * min(logs) is the largest
    # exponent power * g as a float
    power = float(-(2 * k + 2))
    logs = _laplace_logs(spec.nodes)
    top = power * min(logs)
    exp = math.exp
    return top + math.log(_fold(0.0, [exp(power * g - top) for g in logs], spec.nodes))


def residue_integral_b(n: int, k: int, spec: QuadratureSpec) -> LogEstimate:
    """Log of n! k! times the dominant term's integral on the saddle circle.

    Integrates the dominant term on the circle |x| = a through the saddle
    point (a, b) = saddle_point(n, k) and folds n! k! back in; the result
    estimates log B(n,k), and near the guard it can be far from it. The
    term at node N - j is the conjugate of node j's, so the rule evaluates
    the N/2 + 1 nodes j = 0..N/2 and keeps the real part,
    (T_0 + T_N/2 + 2 sum Re T_j)/N.
    Raises ValueError naming the radius where the rule breaks down on it.
    """
    _check_sizes("indices must be ints", "n k", 1, RESIDUE_GUARD, "residue guard", n, k)
    radius = _solve(n, k)[0]
    # the operands each node would promote to complex, promoted once
    scale, minus_n, k1, one = complex(radius), complex(-n), complex(k + 1), complex(1.0)
    log, exp = cmath.log, cmath.exp
    logs = []
    try:
        for root in _half_circle(spec.nodes):
            x = scale * root
            lg = log(one - exp(-x))
            logs.append(minus_n * log(x) - lg - k1 * log(-lg))
    except ValueError:  # cmath.log(0)
        raise ValueError(f"radius {radius} at ({n},{k}): 1 - exp(-x) rounds to 0 or 1 at a node") from None
    # each term rescaled by the peak magnitude, so none overflows
    top = max(w.real for w in logs)
    terms = [exp(w - top).real for w in logs]
    mean = _fold(terms[0] + terms[-1], terms[1:-1], spec.nodes)
    if mean <= 0:
        raise ValueError(f"radius {radius} at ({n},{k}): quadrature mean {mean} lost positivity")
    return math.lgamma(n + 1) + math.lgamma(k + 1) + top + math.log(mean)

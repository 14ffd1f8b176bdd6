"""Periodic-trapezoid cross-checks of the integral identities.

The unit-circle mean of a squared coefficient polynomial recovers the
diagonal counts exactly; a circle integral around the origin recovers
B(n,k) up to an exponentially small defect; the diagonal contour integral
approaches its quadratic-peak (Laplace) prediction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .exactcomb import GuardError, LogEstimate, stirling2
from .saddle import saddle_point

TWO_PI = 2.0 * math.pi

PARSEVAL_GUARD = 20
LAPLACE_GUARD = 300
RESIDUE_GUARD = 40
# Each rule holds one term per node before averaging, so time and memory
# grow with the node count; 2^16 is 16 times the most any check uses.
NODES_GUARD = 2**16


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count for one trapezoid rule."""

    nodes: int

    def __post_init__(self):
        if isinstance(self.nodes, bool) or not isinstance(self.nodes, int):
            raise ValueError(f"nodes must be an int, got {self.nodes!r}")
        if self.nodes < 8 or self.nodes % 2:
            raise ValueError(f"nodes must be even and >= 8, got {self.nodes}")
        if self.nodes > NODES_GUARD:
            raise GuardError(f"nodes={self.nodes} exceeds node guard {NODES_GUARD}")


def _check_k(k: int, guard: int, rule: str) -> None:
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > guard:
        raise GuardError(f"k={k} exceeds {rule} guard {guard}")


def _u_coefficients(k: int) -> list[float]:
    # m! S(k+1,m+1) for m = 0..k; parseval_b reads them once for all nodes.
    return [float(math.factorial(m) * stirling2(k + 1, m + 1)) for m in range(k + 1)]


def _horner(coeffs: list[float], phi: float) -> complex:
    y = cmath.exp(1j * phi)
    acc = complex(0.0)
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def parseval_b(k: int, spec: QuadratureSpec) -> float:
    """B(k,k) as the circle mean of |u_k|^2, u_k(y) = sum_m m! S(k+1,m+1) y^m.

    The integrand is a trigonometric polynomial of degree k, so any node
    count >= 2k+2 is exact up to rounding; the guard demands 2k+4.
    """
    _check_k(k, PARSEVAL_GUARD, "parseval")
    if spec.nodes < 2 * k + 4:
        raise GuardError(f"nodes={spec.nodes} below exactness bound {2 * k + 4}")
    coeffs = _u_coefficients(k)
    total = 0.0
    for j in range(spec.nodes):
        total += abs(_horner(coeffs, TWO_PI * j / spec.nodes)) ** 2
    return total / spec.nodes


def _laplace_exponent(k: int, phi: float) -> float:
    # log of the integrand: -(2k+2) log|log(1 + exp(-i phi))|
    return -(2 * k + 2) * math.log(abs(cmath.log(1.0 + cmath.exp(-1j * phi))))


def laplace_integral_diag(k: int, spec: QuadratureSpec) -> LogEstimate:
    """Natural log of the trapezoid value of the diagonal contour integral."""
    _check_k(k, LAPLACE_GUARD, "laplace")
    # Midpoint-offset nodes keep the rule away from the phi = +-pi
    # singularity; terms are combined in log space since the peak value
    # grows like (1/log 2)^(2k+2).
    exponents = [_laplace_exponent(k, -math.pi + (j + 0.5) * TWO_PI / spec.nodes) for j in range(spec.nodes)]
    top = max(exponents)
    mean = sum(math.exp(e - top) for e in exponents) / spec.nodes
    return top + math.log(mean)


def residue_integral_b(n: int, k: int, spec: QuadratureSpec) -> LogEstimate:
    """Log of the circle-integral recovery of B(n,k).

    Parameterizes the full circle |x| = a through the saddle point
    (a, b) = saddle_point(n, k), folds n! k! back in, and keeps the real
    part; the imaginary part cancels by conjugate symmetry. Raises
    ValueError naming the radius where the rule breaks down on it.
    """
    if not (1 <= n <= RESIDUE_GUARD and 1 <= k <= RESIDUE_GUARD):
        raise GuardError(f"(n,k)=({n},{k}) outside residue guard 1..{RESIDUE_GUARD}")
    radius = saddle_point(n, k).a
    logs = []
    try:
        for j in range(spec.nodes):
            x = radius * cmath.exp(1j * TWO_PI * j / spec.nodes)
            lg = cmath.log(1.0 - cmath.exp(-x))
            logs.append(-n * cmath.log(x) - lg - (k + 1) * cmath.log(-lg))
    except ValueError:  # cmath.log(0)
        raise ValueError(f"radius {radius} at ({n},{k}): 1 - exp(-x) rounds to 0 or 1 at a node") from None
    # terms are rescaled by the peak magnitude before averaging
    top = max(w.real for w in logs)
    mean = sum(cmath.exp(w - top) for w in logs) / spec.nodes
    if mean.real <= 0:
        raise ValueError(f"radius {radius} at ({n},{k}): quadrature mean {mean} lost positivity")
    return math.lgamma(n + 1) + math.lgamma(k + 1) + top + math.log(mean.real)

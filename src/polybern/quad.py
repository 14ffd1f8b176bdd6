"""Periodic-trapezoid cross-checks of the integral identities.

The unit-circle mean of a squared coefficient polynomial recovers the
diagonal counts exactly; a circle integral around the origin recovers
B(n,k) up to an exponentially small defect; the diagonal contour integral
approaches its quadratic-peak (Laplace) prediction. Each integrand is
conjugate-symmetric, so each rule evaluates one half of its N nodes and
counts each node off the real axis twice, for itself and its mirror.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .exactcomb import GuardError, LogEstimate, stirling2
from .saddle import _solve

TWO_PI = 2.0 * math.pi

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
        if isinstance(self.nodes, bool) or not isinstance(self.nodes, int):
            raise ValueError(f"nodes must be an int, got {self.nodes!r}")
        if self.nodes < 8 or self.nodes % 2:
            raise ValueError(f"nodes must be even and >= 8, got {self.nodes}")
        if self.nodes > NODES_GUARD:
            raise GuardError(f"nodes={self.nodes} exceeds node guard {NODES_GUARD}")


def _check_k(k: int, guard: int, rule: str) -> None:
    if not isinstance(k, int):
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > guard:
        raise GuardError(f"k={k} exceeds {rule} guard {guard}")


def _u_coefficients(k: int) -> list[float]:
    # m! S(k+1,m+1) for m = 0..k; parseval_b reads them once for all nodes.
    return [float(math.factorial(m) * stirling2(k + 1, m + 1)) for m in range(k + 1)]


def _horner(coeffs: list[float], y: complex) -> complex:
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
    # |u| is even in phi (real coefficients): nodes 0 < j < N/2 count twice. The
    # pi end is exp(i pi), which the table's last root is not for some N.
    roots = _half_circle(spec.nodes)
    inner = sum(abs(_horner(coeffs, y)) ** 2 for y in roots[1:-1])
    ends = abs(_horner(coeffs, roots[0])) ** 2 + abs(_horner(coeffs, cmath.exp(1j * math.pi))) ** 2
    return (ends + 2.0 * inner) / spec.nodes


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
    return tuple(_laplace_log((j + 0.5) * TWO_PI / nodes) for j in range(nodes // 2))


@functools.lru_cache(maxsize=8)
def _half_circle(nodes: int) -> tuple[complex, ...]:
    # exp(2 pi i j / N) for j = 0..N/2
    return tuple(cmath.exp(1j * TWO_PI * j / nodes) for j in range(nodes // 2 + 1))


def laplace_integral_diag(k: int, spec: QuadratureSpec) -> LogEstimate:
    """Natural log of the trapezoid value of the diagonal contour integral."""
    _check_k(k, LAPLACE_GUARD, "laplace")
    # Midpoint-offset nodes keep the rule away from the phi = +-pi
    # singularity; terms are combined in log space since the peak value
    # grows like (1/log 2)^(2k+2). The exponent is even in phi, so the N/2
    # nodes in (0, pi) count twice.
    power = -(2 * k + 2)
    exponents = [power * g for g in _laplace_logs(spec.nodes)]
    top = max(exponents)
    mean = 2.0 * sum(math.exp(e - top) for e in exponents) / spec.nodes
    return top + math.log(mean)


def residue_integral_b(n: int, k: int, spec: QuadratureSpec) -> LogEstimate:
    """Log of the circle-integral recovery of B(n,k).

    Integrates on the circle |x| = a through the saddle point (a, b) =
    saddle_point(n, k) and folds n! k! back in. The term at node N - j is
    the conjugate of node j's, so the rule evaluates the N/2 + 1 nodes
    j = 0..N/2 and keeps the real part, (T_0 + T_N/2 + 2 sum Re T_j)/N.
    Raises ValueError naming the radius where the rule breaks down on it.
    """
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError(f"indices must be ints, got {n!r}, {k!r}")
    if not (1 <= n <= RESIDUE_GUARD and 1 <= k <= RESIDUE_GUARD):
        raise GuardError(f"(n,k)=({n},{k}) outside residue guard 1..{RESIDUE_GUARD}")
    radius = _solve(n, k)[0]
    half = spec.nodes // 2
    logs = []
    try:
        for root in _half_circle(spec.nodes):
            x = radius * root
            lg = cmath.log(1.0 - cmath.exp(-x))
            logs.append(-n * cmath.log(x) - lg - (k + 1) * cmath.log(-lg))
    except ValueError:  # cmath.log(0)
        raise ValueError(f"radius {radius} at ({n},{k}): 1 - exp(-x) rounds to 0 or 1 at a node") from None
    # terms are rescaled by the peak magnitude before averaging
    top = max(w.real for w in logs)
    inner = sum(cmath.exp(logs[j] - top).real for j in range(1, half))
    mean = (cmath.exp(logs[0] - top).real + cmath.exp(logs[half] - top).real + 2.0 * inner) / spec.nodes
    if mean <= 0:
        raise ValueError(f"radius {radius} at ({n},{k}): quadrature mean {mean} lost positivity")
    return math.lgamma(n + 1) + math.lgamma(k + 1) + top + math.log(mean)

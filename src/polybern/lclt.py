"""Gaussian limit densities and sup-norm discrepancy measurement.

Scaled coefficient sequences of the B, C and D arrays are compared
against their limiting Gaussian densities, and the near-diagonal ML
sequence against its limit shape, over explicitly truncated windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .exactcomb import (
    LOG2,
    MAX_ESTIMATE_SIZE,
    SHIFTS,
    _check_ints,
    _check_sizes,
    _shifted_row,
    log_of_count,
    ml_degree,
)

SCALED_N_GUARD = 200
SCALED_K_GUARD = 400
ML_SHAPE_N_GUARD = 120
ML_SHAPE_K_MAX = 5.0

# Window edge must sit this far below the running sup before truncation
# is accepted.
_TAIL_RATIO = 1e-8

# The sequences a refused `which` is told it may name.
_LETTERS = ", ".join(map(repr, SHIFTS))


@dataclass(frozen=True)
class GaussianParams:
    """Constants of one limiting Gaussian density.

    rho is the exponential scaling rate, amplitude/mean_rate/variance_rate
    the density constants, prefactor the sequence's multiple of the
    density: exp(-(1 - dn) rho - (1 - dk)) for its shift pair (dn, dk), the
    generating function's numerator at the pole (rho, 1). That is 1 for B,
    exp(-1) for C and exp(-1)(1 - exp(-1)) for D.
    """

    rho: float
    amplitude: float
    mean_rate: float
    variance_rate: float
    prefactor: float


@dataclass(frozen=True)
class DiscrepancyReport:
    """Sup-norm discrepancy over the truncated window and where it occurred."""

    n: int
    sup: float
    argmax_k: int


# One figure row: k, the scaled exact coefficient, its limit reference.
Row = tuple[int, float, float]


def _check_row(n: int) -> None:
    _check_ints("n must be an int", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_ESTIMATE_SIZE:
        power = len(str(MAX_ESTIMATE_SIZE)) - 1
        raise ValueError(f"n must be <= 10**{power}; n times the rate constants leaves the float range")


def _square_gap(k: float, centre: float) -> float:
    # (k - centre) ** 2 for a finite k, or inf where that overflows (from
    # |k - centre| >= 2^512, or for an int k past the float range). For
    # n <= 10**300 every Gaussian exponent then lies below -1e8: exp gives 0.0.
    try:
        x = k - centre
    except OverflowError:
        return math.inf
    if not math.isfinite(k):
        raise ValueError(f"k must be finite, got {k}")
    return x**2 if abs(x) < 2.0**512 else math.inf


def gaussian_params(which: str) -> GaussianParams:
    """Limit constants for a letter of exactcomb.SHIFTS; closed forms, no fitting."""
    # a tuple, so that an unhashable which is refused here, not by TypeError
    if which not in tuple(SHIFTS):
        raise ValueError(f"which must be one of {_LETTERS}, got {which!r}")
    log_em1 = math.log(math.e - 1.0)
    rho = 1.0 - log_em1
    amplitude = math.e / ((1.0 - log_em1) * (math.e - 1.0))
    mean_rate = amplitude / math.e
    variance_rate = mean_rate**2 * log_em1
    dn, dk = SHIFTS[which]
    prefactor = math.exp(-(1 - dn) * rho - (1 - dk))
    return GaussianParams(
        rho=rho,
        amplitude=amplitude,
        mean_rate=mean_rate,
        variance_rate=variance_rate,
        prefactor=prefactor,
    )


def nu_density(n: int, k: float, p: GaussianParams) -> float:
    """Gaussian density value at index k for row n (prefactor not applied)."""
    _check_row(n)
    spread = 2.0 * p.variance_rate * n
    return p.amplitude / math.sqrt(math.pi * spread) * math.exp(-_square_gap(k, n * p.mean_rate) / spread)


def window_limit(n: int, p: GaussianParams) -> int:
    """Largest k the discrepancy sweep inspects for row n.

    ceil(n omega + 12 sqrt(n sigma)), capped at SCALED_K_GUARD = 400; both
    sides of the comparison are below 1e-9 of the peak beyond the cap.
    """
    _check_row(n)
    return min(math.ceil(n * p.mean_rate + 12.0 * math.sqrt(n * p.variance_rate)), SCALED_K_GUARD)


def ml_limit_shape(n: int, k: float) -> float:
    """Limit-shape value 2^(-2(k - n/2)^2/(n(1 - log 2))) / ((4 log 2) sqrt(1 - log 2))."""
    _check_row(n)
    exponent = -2.0 * _square_gap(k, n / 2.0) / (n * (1.0 - LOG2)) * LOG2
    return math.exp(exponent) / ((4.0 * LOG2) * math.sqrt(1.0 - LOG2))


def ml_window(n: int, window: float) -> tuple[int, int]:
    """Integer k range with |k - n/2| <= window sqrt(n), clipped to [0, n].

    Exact for every n, reading the window through fractions.Fraction as
    the decimal it prints as (0.3 is 3/10). Raises ValueError when no
    integer k lies in it.
    """
    _check_row(n)
    if not 0 < window <= ML_SHAPE_K_MAX:
        raise ValueError(f"window must lie in (0, {ML_SHAPE_K_MAX}], got {window}")
    from fractions import Fraction  # only here: it imports decimal, which only ml_window needs

    w = Fraction(repr(float(window)))
    width = math.isqrt(4 * w.numerator**2 * n // w.denominator**2)  # floor(2 window sqrt(n))
    lo, hi = max(0, (n - width + 1) // 2), min(n, (n + width) // 2)
    if lo > hi:
        raise ValueError(f"window {window} holds no integer k at n={n}")
    return lo, hi


def ml_scaled_coefficient(n: int, k: int) -> float:
    """Exact side of the limit-shape comparison: (2 log 2)^n/n! ML(n-k,k)."""
    _check_ints("indices must be ints", n, k)
    _check_sizes("n must be an int", "n", 2, ML_SHAPE_N_GUARD, "shape guard", n)
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    count = ml_degree(n - k, k)
    if count == 0:
        return 0.0
    return math.exp(n * math.log(2.0 * LOG2) - math.lgamma(n + 1) + log_of_count(count))


def _report(n: int, rows: list[Row]) -> DiscrepancyReport:
    # sup of |scaled - reference| over the (nonempty) rows, at its first k
    k, scaled, reference = max(rows, key=lambda row: abs(row[1] - row[2]))
    return DiscrepancyReport(n=n, sup=abs(scaled - reference), argmax_k=k)


def lclt_rows(n: int, which: str, window: float | None = None) -> tuple[list[Row], DiscrepancyReport]:
    """Figure rows (k, scaled, reference) of row n and their sup-norm report.

    'B', 'C' or 'D', a letter of exactcomb.SHIFTS (2 <= n <= 200):
    rho^n X(n,k)/(n! k!) for that sequence X, from one row of exact counts,
    against the prefactor times nu_density for k = 0..window_limit(n); a
    tail guard asserts the last row's gap is negligible against the sup.
    'ML' (2 <= n <= 120): ml_scaled_coefficient against ml_limit_shape over
    ml_window(n, window), with window 2.0 when None. Passing a window for
    'B', 'C' or 'D' is a ValueError.
    """
    if which == "ML":
        lo, hi = ml_window(n, 2.0 if window is None else window)
        rows = [(k, ml_scaled_coefficient(n, k), ml_limit_shape(n, k)) for k in range(lo, hi + 1)]
        return rows, _report(n, rows)
    if window is not None:
        raise ValueError(f"window applies to 'ML' only, got {window} for {which!r}")
    # n = 1 is left out: its window ends at k = 13, where the gap is still
    # 6e-7 against a sup of 0.5, far above the tail guard.
    _check_sizes("n must be an int", "n", 2, SCALED_N_GUARD, "row guard", n)
    p = gaussian_params(which)
    counts = _shifted_row(n, window_limit(n, p), SHIFTS[which])
    log_rate, log_n_factorial = n * math.log(p.rho), math.lgamma(n + 1)
    rows = []
    for k, count in enumerate(counts):
        scaled = 0.0
        if count:
            scaled = math.exp(log_rate + log_of_count(count) - log_n_factorial - math.lgamma(k + 1))
        rows.append((k, scaled, p.prefactor * nu_density(n, k, p)))
    report = _report(n, rows)
    _, scaled, reference = rows[-1]
    last = abs(scaled - reference)
    if last > _TAIL_RATIO * report.sup:
        raise ArithmeticError(f"window truncation unsafe at n={n}: edge term {last} vs sup {report.sup}")
    return rows, report


def lclt_discrepancy(n: int, which: str) -> DiscrepancyReport:
    """Sup-norm gap between the scaled sequence and its Gaussian limit.

    The report of lclt_rows(n, which) for 'B', 'C' or 'D', 2 <= n <= 200.
    """
    if which == "ML":
        raise ValueError(f"which must be one of {_LETTERS}, got 'ML'; use ml_limit_discrepancy")
    return lclt_rows(n, which)[1]


def ml_limit_discrepancy(n: int, window: float | None = None) -> DiscrepancyReport:
    """Sup-norm gap between (2 log 2)^n/n! ML(n-k,k) and the limit shape.

    Swept over integer k with |k - n/2| <= window sqrt(n), clipped to [0,n];
    window is 2.0 when None.
    """
    return lclt_rows(n, "ML", window)[1]

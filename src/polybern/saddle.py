"""Direction function, saddle points, and log-space asymptotic estimators.

Everything returns natural logs (LogEstimate) because the estimated
quantities overflow machine floats almost immediately.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

from .exactcomb import LogEstimate

LOG2 = math.log(2.0)

# Second-order diagonal correction constant in closed form.
SECOND_ORDER_C = (2 * LOG2**3 + 3 * LOG2**2 - 12 * LOG2 + 6) / (16 * (1 - LOG2) ** 2)

# The order-1 diagonal prefactor carries sqrt(k) while the order-2 one
# carries sqrt(k+1); pulling sqrt(k/(k+1)) into the correction shifts its
# 1/k coefficient by -1/2, which is what a ratio against the order-1
# estimate actually converges to.
DIAG_RATIO_C = SECOND_ORDER_C - 0.5

# Largest t the stable evaluation of f supports; beyond it exp(-t)
# degrades into subnormals and the quotient loses all precision.
F_T_MAX = 700.0

# Largest n or k saddle_point, and so every estimator, takes. lgamma(n + 1)
# leaves the float range from n of about 2.5e305; below 10**300 every sum
# the estimators form stays finite.
MAX_ESTIMATE_SIZE = 10**300


class CompactnessWarning(UserWarning):
    """Direction n/k left the policy band [1/10, 10] where the estimates are trusted."""


@dataclass(frozen=True)
class SaddlePoint:
    """Positive solution (a, b) of the critical system for direction ratio = n/k.

    Lies on the variety exp(-a) + exp(-b) = 1 with f(a)·f(b) = 1; the
    diagonal ratio 1 gives a = b = log 2.
    """

    a: float
    b: float
    ratio: float


# Numerator shifts (dn, dk) of the shared denominator exp(-x) + exp(-y) - 1:
# the numerator is exp(-(1-dn) x - (1-dk) y), so B is (1, 1), C is (1, 0)
# and D = ML is (0, 0), the same pairs as in exactcomb.
POLY_BERNOULLI_GF = (1, 1)
ML_DEGREE_GF = (0, 0)


def _log1mexp(t: float) -> float:
    # log(1 - exp(-t)) for t > 0, split at log 2 to keep full precision
    # at both ends.
    if t > LOG2:
        return math.log1p(-math.exp(-t))
    return math.log(-math.expm1(-t))


def f_dir(t: float) -> float:
    """Direction function f(t) = t / ((1 - e^t) log(1 - e^{-t})).

    Strictly increasing from 0 to infinity; evaluated in the cancellation-free
    form t e^{-t} / ((-expm1(-t)) (-log(1 - e^{-t}))).
    """
    if not t > 0:
        raise ValueError("f is defined for t > 0")
    if t >= F_T_MAX:
        raise ValueError(f"t={t} overflows the stable form (limit {F_T_MAX})")
    # _log1mexp takes e^-t again; the solve never evaluates f, so no hot path pays
    return t * math.exp(-t) / (-math.expm1(-t) * -_log1mexp(t))


# Newton's start below target 2: the quadratic in the target through the
# points (f(t), t) at t = log 2, 1 and 2, in Newton's divided-difference form.
_F1, _F2 = f_dir(1.0), f_dir(2.0)
_SLOPE1 = (1.0 - LOG2) / (_F1 - 1.0)
_CURVE = (1.0 / (_F2 - _F1) - _SLOPE1) / (_F2 - 1.0)

# Largest target f_inverse solves: f a margin below F_T_MAX, so that every
# root up to it stays inside the stable form.
_F_CAP = f_dir(F_T_MAX * (1 - 2**-20))


def _out_of_range(r: float) -> ValueError:
    return ValueError(f"r={r} outside the stable range of f, about [1/700, 700]")


# Holds verify's 960 distinct ratios; an entry (the float key in a 1-tuple,
# the float root, the cache's link and its dict slot) takes about 165 bytes,
# so the full cache about 0.17 MB.
@functools.lru_cache(maxsize=1024)
def _root(target: float) -> float:
    # f^{-1}(target) for target >= 1, memoized by the target; an int target
    # shares the entry of its equal float, whose root it has. Out of range
    # it raises, naming the target, and nothing is cached.
    if target > _F_CAP:
        raise _out_of_range(target)
    # f(t) = t (1 + e^-t / 2 + O(e^-2t)); above 37, where e^-t / 2 < 2^-53,
    # the root this gives is the true one to within its rounding.
    if target > 2.0:
        t = target * (1.0 - 0.5 * math.exp(-target))
        if target > 37.0:
            return t
    else:
        t = LOG2 + (target - 1.0) * (_SLOPE1 + (target - _F1) * _CURVE)
    # Newton on log f(t) = log target. With log_one = log(1 - e^-t), so that
    # 1 - e^-t = e^log_one, log f = log t - log_one - log(-log_one e^t): no
    # 1 - e^-t is rounded apart from log_one. The slope of log f is
    # 1/t - (1 + e^-t/log_one)/(1 - e^-t). Once a step is at most 2^-30 t,
    # what is left is of order its square, far below f's rounding: 1 to 4
    # steps on [1, 37].
    for _ in range(8):
        e = math.exp(-t)
        log_one = math.log1p(-e)
        step = (math.log(t / target) - log_one - math.log(log_one / -e)) / (
            1.0 / t - (1.0 + e / log_one) / (1.0 - e)
        )
        t -= step
        if abs(step) <= 2.0**-30 * t:
            return t
    raise ArithmeticError(f"Newton on f(t) = {target} did not settle in 8 steps")


def f_inverse(r: float) -> float:
    """Unique t > 0 with f(t) = r, by Newton's method on log f.

    Solves f(t) = max(r, 1/r) >= 1. For r >= 1 the result is within 4 ulp
    of the true root. Up to r = 37 Newton's error is f's rounding over
    the slope of log f; 3.38 ulp was the worst measured. Above 37 the
    closed form t = r (1 - e^{-r}/2) is correctly rounded. For r < 1 the
    answer is the partner on the variety, -log(1 - exp(-f^{-1}(1/r))).
    The variety identity then holds to the rounding. The error grows by
    up to a factor of about f^{-1}(1/r), as much as one rounding of r
    moves the root there: 444 ulp was measured near r = 1/640. Roots are
    memoized by max(r, 1/r), so a repeated ratio solves nothing.
    Defined for 1/R <= r <= R with R = f(F_T_MAX (1 - 2^-20)), about 700;
    raises ValueError outside.
    """
    if not r > 0:
        raise ValueError("f_inverse is defined for r > 0")
    # 1 / r, not 1.0 / r: an int r past the float range then reaches the
    # range check instead of overflowing here.
    try:
        t = _root(max(r, 1 / r))
    except ValueError:
        raise _out_of_range(r) from None
    return t if r >= 1.0 else -_log1mexp(t)


def _solve(n: int, k: int) -> tuple[float, float]:
    # saddle_point's (a, b), without building the dataclass
    if not (isinstance(n, int) and isinstance(k, int)):
        raise ValueError(f"indices must be ints, got {n!r}, {k!r}")
    if not (1 <= n <= MAX_ESTIMATE_SIZE and 1 <= k <= MAX_ESTIMATE_SIZE):
        raise ValueError("saddle_point needs 1 <= n, k <= 10**300")
    big = _root(n / k if n > k else k / n)
    small = -_log1mexp(big)
    return (big, small) if n > k else (small, big)


def saddle_point(n: int, k: int) -> SaddlePoint:
    """Critical point (a, b) = (f^{-1}(n/k), f^{-1}(k/n)) for direction (n, k).

    It is solved on the side whose ratio is >= 1; the other coordinate
    comes from the variety equation exp(-a) + exp(-b) = 1, which keeps the
    on-variety identity exact and makes swapping (n, k) swap (a, b) bit for
    bit. On the diagonal n == k both come out as the float log 2, the
    exact solution a = b = log 2 rounded. Takes int
    1 <= n, k <= MAX_ESTIMATE_SIZE, the estimators' domain; a bool reads
    as its int.
    """
    a, b = _solve(n, k)
    return SaddlePoint(a=a, b=b, ratio=n / k)


def _smooth_log(n: int, k: int, dn: int, dk: int) -> LogEstimate:
    # Leading-order smooth-point estimate of the coefficient n! k! [x^n y^k]
    # of exp(-(1-dn) x - (1-dk) y) / (exp(-x) + exp(-y) - 1).
    a, b = _solve(n, k)
    ratio = n / k
    if not 0.1 <= ratio <= 10.0:
        warnings.warn(
            f"direction n/k = {ratio:.6g} outside the compact band [1/10, 10]; "
            "estimate returned but untrusted",
            CompactnessWarning,
            stacklevel=3,
        )
    aea = a * math.exp(-a)
    beb = b * math.exp(-b)
    bracket = beb + aea - a * b
    if bracket <= 0:
        raise ArithmeticError(f"variance bracket {bracket} <= 0 at direction ({n},{k})")
    variance = 2.0 * math.pi * aea * bracket
    if variance < sys.float_info.min:
        raise ValueError(
            f"direction n/k = {ratio:.6g} outside the representable cone, about "
            "[1/355, 358], where the variance term leaves the normal float range"
        )
    value = (
        math.lgamma(n + 1)
        + math.lgamma(k + 1)
        - n * math.log(a)
        - k * math.log(b)
        - 0.5 * math.log(k)
        - 0.5 * math.log(variance)
    )
    return value - (1 - dn) * a - (1 - dk) * b


def bivar_asym_log(n: int, k: int) -> LogEstimate:
    """Log of the leading-order bivariate estimate of B(n,k)."""
    return _smooth_log(n, k, 1, 1)


def diag_asym_log(k: int, order: int = 1) -> LogEstimate:
    """Log of the diagonal estimate of B(k,k).

    Order 1 is bivar_asym_log(k, k), the smooth-point estimate at the
    saddle point (log 2, log 2); order 2 replaces k by k+1 under its square
    root and multiplies by (1 + SECOND_ORDER_C/k).
    """
    if not isinstance(order, int):
        raise ValueError(f"order must be an int, got {order!r}")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    value = _smooth_log(k, k, 1, 1)
    if order == 1:
        return value
    return value + math.log1p(SECOND_ORDER_C / k) - 0.5 * math.log1p(1.0 / k)


def ml_asym_log(n: int, k: int) -> LogEstimate:
    """Log of the leading-order estimate of D(n,k) = ML(n,k).

    Exactly bivar_asym_log(n,k) - a - b at the shared saddle point.
    """
    return _smooth_log(n, k, 0, 0)


def excedance_asym_log(r: int, s: int) -> LogEstimate:
    """Log of the estimate for the excedance-word bracket count at (r, s).

    Exactly bivar_asym_log(r,s) - b at the shared saddle point.
    """
    return _smooth_log(r, s, 1, 0)


def acsv_general_log(shift: tuple[int, int], n: int, k: int) -> LogEstimate:
    """Log of the general smooth-point estimate for the coefficient count.

    The numerator shift (dn, dk), with dn and dk each the int 0 or 1 (a
    bool reads as its int), gives
    log G = -(1-dn) x - (1-dk) y over H = exp(-x) + exp(-y) - 1.
    Evaluates G(x,y) sqrt(-y H_y / (2 pi k Q)) x^{-n} y^{-k} n! k! at
    the saddle point, with the H partials taken analytically and Q
    assembled from them literally; must reproduce the closed-form
    estimators to 1e-9 inside 1/10 <= n/k <= 10. Beyond that
    band Q cancels more and more: the gap stays near 1e-13 up to
    n/k ~ 240, then drifts (2.3e-6 at (493, 2), 0.019 at (250, 1)).
    Raises ValueError where Q cancels fully, outside about
    1/250 <= n/k <= 250.
    """
    if not (
        isinstance(shift, (tuple, list))
        and len(shift) == 2
        and all(isinstance(d, int) and d in (0, 1) for d in shift)
    ):
        raise ValueError(f"shift must be a pair from {{0, 1}}, got {shift}")
    dn, dk = shift
    x, y = _solve(n, k)
    g_log = -(1 - dn) * x - (1 - dk) * y
    hx = -math.exp(-x)
    hy = -math.exp(-y)
    hxx = math.exp(-x)
    hyy = math.exp(-y)
    hxy = 0.0
    q = (
        -(y**2) * hy**2 * x * hx
        - y * hy * x**2 * hx**2
        - x**2 * y**2 * (hy**2 * hxx + hx**2 * hyy - 2.0 * hx * hy * hxy)
    )
    if q <= 0:
        # Q > 0 analytically; its terms cancel in floating point once n/k
        # leaves about [1/250, 250].
        raise ValueError(
            f"Q = {q} at direction ({n},{k}) cancels in floating point; "
            "acsv_general_log needs n/k within about [1/250, 250]"
        )
    inner = -y * hy / (k * q)
    if inner <= 0:
        raise ArithmeticError(f"radicand {inner} <= 0 at direction ({n},{k})")
    return (
        math.lgamma(n + 1)
        + math.lgamma(k + 1)
        + g_log
        - 0.5 * math.log(2.0 * math.pi)
        - n * math.log(x)
        - k * math.log(y)
        + 0.5 * math.log(inner)
    )

"""Direction function, saddle points, and log-space asymptotic estimators.

Everything returns natural logs (LogEstimate) because the estimated
quantities overflow machine floats almost immediately.
"""

from __future__ import annotations

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

_BISECTION_STEPS = 120

# Largest n or k the estimators take. lgamma(n + 1) leaves the float range
# from n of about 2.5e305; below 10**300 every sum they form stays finite.
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
    if t <= 0:
        raise ValueError("f is defined for t > 0")
    if t >= F_T_MAX:
        raise ValueError(f"t={t} overflows the stable form (limit {F_T_MAX})")
    return t * math.exp(-t) / ((-math.expm1(-t)) * (-_log1mexp(t)))


def f_inverse(r: float) -> float:
    """Unique t > 0 with f(t) = r, by bracketed bisection.

    Solves f(t) = max(r, 1/r) >= 1 from the bracket [2^-40, 1], whose upper
    end is doubled until the sign changes, then bisected 120 times; for
    r < 1 the answer comes from the variety, -log(1 - exp(-f^{-1}(1/r))).
    Defined for 1/R <= r <= R with R = f(F_T_MAX (1 - 2^-20)), about 700;
    raises ValueError outside.
    """
    if r <= 0:
        raise ValueError("f_inverse is defined for r > 0")
    target = max(r, 1.0 / r)
    cap = F_T_MAX * (1 - 2**-20)
    lo, hi = 2.0**-40, 1.0
    while f_dir(hi) < target:
        if hi >= cap:
            raise ValueError(f"r={r} outside the stable range of f, about [1/700, 700]")
        lo = hi
        hi = min(2.0 * hi, cap)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f_dir(mid) < target:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return t if r >= 1.0 else -_log1mexp(t)


def saddle_point(n: int, k: int) -> SaddlePoint:
    """Critical point (a, b) = (f^{-1}(n/k), f^{-1}(k/n)) for direction (n, k).

    On the diagonal n == k the critical system is solved exactly by
    a = b = log 2 and no solve runs. Elsewhere it is solved on the side
    whose ratio is > 1; the other coordinate comes from the variety
    equation exp(-a) + exp(-b) = 1, which keeps the on-variety identity
    exact and makes swapping (n, k) swap (a, b) bit for bit.
    """
    if n < 1 or k < 1:
        raise ValueError("saddle_point needs n, k >= 1")
    if n == k:
        return SaddlePoint(a=LOG2, b=LOG2, ratio=1.0)
    if n > k:
        a = f_inverse(n / k)
        b = -_log1mexp(a)
    else:
        b = f_inverse(k / n)
        a = -_log1mexp(b)
    return SaddlePoint(a=a, b=b, ratio=n / k)


def _check_size(*sizes: int) -> None:
    if max(sizes) > MAX_ESTIMATE_SIZE:
        raise ValueError(
            "estimates need n, k <= 10**300; lgamma(n + 1) leaves the float range "
            "from about 2.5e305"
        )


def _smooth_log(n: int, k: int, dn: int, dk: int) -> LogEstimate:
    # Leading-order smooth-point estimate of the coefficient n! k! [x^n y^k]
    # of exp(-(1-dn) x - (1-dk) y) / (exp(-x) + exp(-y) - 1).
    if n < 1 or k < 1:
        raise ValueError("estimate needs n, k >= 1")
    _check_size(n, k)
    ratio = n / k
    if not 0.1 <= ratio <= 10.0:
        warnings.warn(
            f"direction n/k = {ratio:.6g} outside the compact band [1/10, 10]; "
            "estimate returned but untrusted",
            CompactnessWarning,
            stacklevel=3,
        )
    sp = saddle_point(n, k)
    a, b = sp.a, sp.b
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
    if k < 1:
        raise ValueError("diag_asym_log needs k >= 1")
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

    The numerator shift (dn, dk) gives log G = -(1-dn) x - (1-dk) y over
    H = exp(-x) + exp(-y) - 1. Evaluates G(x,y) sqrt(-y H_y / (2 pi k Q))
    x^{-n} y^{-k} n! k! at the saddle point, with the H partials taken
    analytically and Q assembled from them literally; must reproduce the
    closed-form estimators to 1e-9 inside 1/10 <= n/k <= 10. Beyond that
    band Q cancels more and more: the gap stays near 1e-13 up to
    n/k ~ 240, then drifts (2.3e-6 at (493, 2), 0.019 at (250, 1)).
    Raises ValueError where Q cancels fully, outside about
    1/250 <= n/k <= 250.
    """
    if n < 1 or k < 1:
        raise ValueError("acsv_general_log needs n, k >= 1")
    _check_size(n, k)
    dn, dk = shift
    sp = saddle_point(n, k)
    x, y = sp.a, sp.b
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

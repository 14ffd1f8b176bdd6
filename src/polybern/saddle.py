"""Direction function, saddle points, and log-space asymptotic estimators.

Everything returns natural logs (LogEstimate) because the estimated
quantities overflow machine floats almost immediately.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from bisect import bisect
from dataclasses import dataclass

# saddle uses neither pair; bench/worker.py reads them here.
from .exactcomb import LOG2, ML_DEGREE_GF, POLY_BERNOULLI_GF, LogEstimate, _check_ints

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

# Smallest normal float: the smooth-point variance must not fall below it.
_FLOAT_MIN = sys.float_info.min


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


# Newton's start on [1, 37] is t = r g(log r) for the target r, where g is
# a quintic Hermite interpolant of t / f(t) in s = log f(t). Its 41 nodes
# lie at t = log 2 (38 / log 2)^(i/40), from log 2, where f = 1 and s = 0
# exactly, to 38, past f = 37. Each carries g and its first two
# s-derivatives, from dt/ds = 1/l1 and d2t/ds2 = -l2/l1^3 with l1 the slope
# of log f and l2 its derivative. The start is within 6.3e-11 of the root,
# relative, on 20000 log-uniform targets. The table is built once, at
# import (about 0.2 ms): _QUINTICS holds each interval's (s0, c0, ..., c5),
# the interpolant being the sum of c_j (s - s0)^j, and _BREAKS the interior
# nodes' s for bisect.
def _start_table() -> tuple[tuple[float, ...], tuple[tuple[float, ...], ...]]:
    nodes = []
    for i in range(41):
        t = LOG2 * (38.0 / LOG2) ** (i / 40)
        target = f_dir(t)
        e = math.exp(-t)
        one = 1.0 - e
        log_one = math.log1p(-e)
        l1 = 1.0 / t - (1.0 + e / log_one) / one
        l2 = (e / one + e / log_one * (1.0 / one + e / (one * log_one))) / one - 1.0 / (t * t)
        dt = 1.0 / l1
        d2t = -l2 * dt * dt * dt
        nodes.append((math.log(target), t / target, (dt - t) / target, 0.5 * (d2t - 2.0 * dt + t) / target))
    quintics = []
    for (s, g, dg, half), (s1, g1, dg1, half1) in zip(nodes, nodes[1:]):
        # the cubic, quartic and quintic terms take up what the quadratic
        # Taylor polynomial at s misses of g, dg and d2g / 2 at s1
        h = s1 - s
        gap = g1 - (g + h * (dg + h * half))
        slope_gap = h * (dg1 - dg - 2.0 * h * half)
        bend_gap = h * h * (half1 - half)
        c3 = (10.0 * gap - 4.0 * slope_gap + bend_gap) / h**3
        c4 = (7.0 * slope_gap - 15.0 * gap - 2.0 * bend_gap) / h**4
        c5 = (6.0 * gap - 3.0 * slope_gap + bend_gap) / h**5
        quintics.append((s, g, dg, half, c3, c4, c5))
    return tuple(quintic[0] for quintic in quintics[1:]), tuple(quintics)


_BREAKS, _QUINTICS = _start_table()


# Largest target f_inverse solves: f a margin below F_T_MAX, so that every
# root up to it stays inside the stable form.
_F_CAP = f_dir(F_T_MAX * (1 - 2**-20))


def _out_of_range(r: float) -> ValueError:
    return ValueError(f"r={r} outside the stable range of f, about [1/700, 700]")


# Holds verify's 960 distinct ratios; an entry (the float key in a 1-tuple,
# the (root, partner) pair of floats, the cache's link and its dict slot)
# takes about 235 bytes, so the full cache about 0.24 MB.
@functools.lru_cache(maxsize=1024)
def _root(target: float) -> tuple[float, float]:
    # (t, -log(1 - e^-t)) for t = f^{-1}(target) and target >= 1, memoized
    # by the target; an int target shares the entry of its equal float,
    # whose root it has. Out of range it raises, naming the target, and
    # nothing is cached.
    if target > _F_CAP:
        raise _out_of_range(target)
    # f(t) = t (1 + e^-t / 2 + O(e^-2t)); above 37, where e^-t / 2 < 2^-53,
    # the root this gives is the true one to within its rounding.
    if target > 37.0:
        t = target * (1.0 - 0.5 * math.exp(-target))
        return t, -_log1mexp(t)
    s = math.log(target)
    s0, c0, c1, c2, c3, c4, c5 = _QUINTICS[bisect(_BREAKS, s)]
    d = s - s0
    t = target * (c0 + d * (c1 + d * (c2 + d * (c3 + d * (c4 + d * c5)))))
    # One Newton step on log f(t) = log target. With log_one = log(1 - e^-t),
    # so that 1 - e^-t = e^log_one, log f = log t - log_one - log(-log_one e^t):
    # no 1 - e^-t is rounded apart from log_one. The slope of log f is
    # 1/t - (1 + e^-t/log_one)/(1 - e^-t). The tabulated start is within
    # 2^-31 t, so the step is at most 2^-30 t and what is left is of order
    # its square, far below f's rounding. A larger step means the table
    # missed the root, an internal bug.
    e = math.exp(-t)
    log_one = math.log1p(-e)
    step = (math.log(t / target) - log_one - math.log(log_one / -e)) / (
        1.0 / t - (1.0 + e / log_one) / (1.0 - e)
    )
    t -= step
    if not abs(step) <= 2.0**-30 * t:
        raise ArithmeticError(f"Newton on f(t) = {target} did not settle in one step from its table")
    return t, -_log1mexp(t)


def f_inverse(r: float) -> float:
    """Unique t > 0 with f(t) = r, by one Newton step from a tabulated start.

    Solves f(t) = max(r, 1/r) >= 1. For r >= 1 the result is within 4 ulp
    of the true root. Up to r = 37 a quintic interpolant of the root in
    log r starts Newton's method on log f within 2^-31 of the root, so one
    step settles it; its error is f's rounding over the slope of log f.
    Above 37 the closed form t = r (1 - e^{-r}/2) is correctly rounded.
    For r < 1 the answer is the partner on the variety,
    -log(1 - exp(-f^{-1}(1/r))). The variety identity then holds to the
    rounding. The error grows by up to a factor of about f^{-1}(1/r), as
    much as one rounding of r moves the root there: 444 ulp was measured
    near r = 1/640. Roots and their partners are memoized by max(r, 1/r),
    so a repeated ratio solves nothing.
    Defined for 1/R <= r <= R with R = f(F_T_MAX (1 - 2^-20)), about 700;
    raises ValueError outside.
    """
    if not r > 0:
        raise ValueError("f_inverse is defined for r > 0")
    # 1 / r, not 1.0 / r: an int r past the float range then reaches the
    # range check instead of overflowing here.
    try:
        t, partner = _root(max(r, 1 / r))
    except ValueError:
        raise _out_of_range(r) from None
    return t if r >= 1.0 else partner


def _solve(n: int, k: int) -> tuple[float, float]:
    # saddle_point's (a, b), without building the dataclass
    _check_ints("indices must be ints", n, k)
    if not (1 <= n <= MAX_ESTIMATE_SIZE and 1 <= k <= MAX_ESTIMATE_SIZE):
        raise ValueError("saddle_point needs 1 <= n, k <= 10**300")
    big, small = _root(n / k if n > k else k / n)
    return (big, small) if n > k else (small, big)


def saddle_point(n: int, k: int) -> SaddlePoint:
    """Critical point (a, b) = (f^{-1}(n/k), f^{-1}(k/n)) for direction (n, k).

    It is solved on the side whose ratio is >= 1; the other coordinate
    comes from the variety equation exp(-a) + exp(-b) = 1, which keeps the
    on-variety identity exact and makes swapping (n, k) swap (a, b) bit for
    bit. On the diagonal n == k both come out as the float log 2, the
    exact solution a = b = log 2 rounded. Takes int 1 <= n, k <=
    MAX_ESTIMATE_SIZE with 1/R <= n/k <= R (f_inverse's R, about 700), the
    estimators' domain, and raises ValueError outside; a bool reads as its int.
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
    if variance < _FLOAT_MIN:
        raise ValueError(
            f"direction n/k = {ratio:.6g} outside the representable cone, about "
            "[1/355, 358], where the variance term leaves the normal float range"
        )
    value = (
        math.lgamma(n + 1)
        + math.lgamma(k + 1)
        - n * math.log(a)
        - k * math.log(b)
        - 0.5 * math.log(k * variance)
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
    _check_ints("order must be an int", order)
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
    hxx = -hx
    hyy = -hy
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

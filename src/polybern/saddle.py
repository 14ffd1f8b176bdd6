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

_BISECTION_STEPS = 120

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


def _f(t: float) -> float:
    # f_dir without its domain checks, for the solve's inner loops: exp(-t)
    # is taken once and read by both branches of _log1mexp.
    e = math.exp(-t)
    one = -math.expm1(-t)
    return t * e / (one * -(math.log1p(-e) if t > LOG2 else math.log(one)))


def f_dir(t: float) -> float:
    """Direction function f(t) = t / ((1 - e^t) log(1 - e^{-t})).

    Strictly increasing from 0 to infinity; evaluated in the cancellation-free
    form t e^{-t} / ((-expm1(-t)) (-log(1 - e^{-t}))).
    """
    if not t > 0:
        raise ValueError("f is defined for t > 0")
    if t >= F_T_MAX:
        raise ValueError(f"t={t} overflows the stable form (limit {F_T_MAX})")
    return _f(t)


# Newton's start below target 2: the quadratic in the target through the
# points (f(t), t) at t = log 2, 1 and 2, in Newton's divided-difference form.
_F1, _F2 = _f(1.0), _f(2.0)
_SLOPE1 = (1.0 - LOG2) / (_F1 - 1.0)
_CURVE = (1.0 / (_F2 - _F1) - _SLOPE1) / (_F2 - 1.0)


def _newton_guess(target: float) -> float:
    # Newton on log f(t) = log target, with d log f/dt = 1/t - 1/(1 - e^-t)
    # + e^-t / ((1 - e^-t) L) and L = -log(1 - e^-t). Above 2 it starts from
    # f(t) = t (1 + e^-t / 2 + O(e^-2t)), below from the quadratic above. It
    # stops once a step is at most 2^-26 t: convergence is quadratic, so the
    # error left is of order the step squared, at most 2^-49.8 t on 200k
    # targets against the window's 2^-44. 1 to 3 steps on [1, 699], 1.6 on
    # average. NaN off (0, F_T_MAX).
    if not target < F_T_MAX:
        return math.nan
    if target > 2.0:
        t = target * (1.0 - 0.5 * math.exp(-target))
    else:
        t = LOG2 + (target - 1.0) * (_SLOPE1 + (target - _F1) * _CURVE)
    log_target = math.log(target)
    for _ in range(20):
        if not 0.0 < t < F_T_MAX:
            return math.nan
        # the terms of _f, kept apart because the slope reads them too
        e, one = math.exp(-t), -math.expm1(-t)
        q = one * -(math.log1p(-e) if t > LOG2 else math.log(one))
        step = (math.log(t * e / q) - log_target) / (1.0 / t - 1.0 / one + e / q)
        t -= step
        if abs(step) <= 2.0**-26 * t:
            break
    return t if 0.0 < t < F_T_MAX else math.nan


def _out_of_range(r: float) -> ValueError:
    return ValueError(f"r={r} outside the stable range of f, about [1/700, 700]")


def _binade_jump(lo: float, w_lo: float, w_hi: float) -> tuple[float, float]:
    # Where the bisection of the binade bracket [lo, 2 lo], lo = 2^j, goes
    # while its midpoints fall outside the window [w_lo, w_hi] it holds.
    # Every such midpoint is exact on the grid u = 2^(j-52) of the binade's
    # floats, so these steps, which only compare, end in the deepest grid
    # interval [lo + A u, lo + (A + 2^p) u], A a multiple of 2^p, that holds
    # the window's ends lo + L u and lo + H u: the one where L and H - 1
    # first agree above their low p bits.
    u = lo * 2.0**-52
    low, high = int((w_lo - lo) / u), int((w_hi - lo) / u)
    p = (low ^ (high - 1)).bit_length()
    a = low >> p << p
    return lo + a * u, lo + (a + (1 << p)) * u


# Holds verify's 960 distinct ratios; an entry (the float key in a 1-tuple,
# the float root, the cache's link and its dict slot) takes about 165 bytes,
# so the full cache about 0.17 MB.
@functools.lru_cache(maxsize=1024)
def _root(target: float) -> float:
    # f^{-1}(target) for target >= 1, memoized by the target; an int target
    # shares the entry of its equal float, whose root it has. Out of range
    # it raises, naming the target, and nothing is cached.
    cap = F_T_MAX * (1 - 2**-20)
    # Rounded f_dir is monotone only to a few ulps, so a window too narrow
    # misjudges points just outside it: on 200k r, 2^-51 changed 71 results
    # and 2^-50 none; 2^-44 keeps a 64-fold margin.
    guess = _newton_guess(target)
    w_lo, w_hi = guess * (1 - 2.0**-44), guess * (1 + 2.0**-44)
    if not (w_hi < cap and _f(w_lo) < target <= _f(w_hi)):
        w_lo, w_hi = 0.0, math.inf
    lo, hi = 2.0**-40, 1.0
    while hi <= w_lo or (hi < w_hi and _f(hi) < target):
        if hi >= cap:
            raise _out_of_range(target)
        lo = hi
        hi = min(2.0 * hi, cap)
    if hi == 2.0 * lo and lo <= w_lo and w_hi <= hi:
        lo, hi = _binade_jump(lo, w_lo, w_hi)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= w_lo or (mid < w_hi and _f(mid) < target):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def f_inverse(r: float) -> float:
    """Unique t > 0 with f(t) = r, by bracketed bisection, Newton-seeded.

    Solves f(t) = max(r, 1/r) >= 1 from the bracket [2^-40, 1], whose upper
    end is doubled until the sign changes, then bisected 120 times; for
    r < 1 the answer comes from the variety, -log(1 - exp(-f^{-1}(1/r))).
    A Newton guess, checked by f at both ends of a window of relative
    half-width 2^-44 around it, lets the bisection evaluate f only inside
    the window: it takes the same path and returns the same float as with
    f evaluated everywhere, which it does when the check fails. Roots are
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
    if n == k:
        return LOG2, LOG2
    big = _root(n / k if n > k else k / n)
    small = -_log1mexp(big)
    return (big, small) if n > k else (small, big)


def saddle_point(n: int, k: int) -> SaddlePoint:
    """Critical point (a, b) = (f^{-1}(n/k), f^{-1}(k/n)) for direction (n, k).

    On the diagonal n == k the critical system is solved exactly by
    a = b = log 2 and no solve runs. Elsewhere it is solved on the side
    whose ratio is > 1; the other coordinate comes from the variety
    equation exp(-a) + exp(-b) = 1, which keeps the on-variety identity
    exact and makes swapping (n, k) swap (a, b) bit for bit. Takes int
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

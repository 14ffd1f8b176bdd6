"""Reference values the benchmark checks the library's outputs against.

Nothing here imports polybern: every exact count and every closed-form
estimate is recomputed from its own formula, so a wrong answer in the
library cannot also pass its own check.
"""

from __future__ import annotations

import math

LOG2 = math.log(2.0)

# Tolerances stated by the library and by `polybern verify`.
ACSV_TOL = 1e-9
# Above |reference| = 1e5 an absolute 1e-9 is finer than float resolution,
# so acsv is held to this relative gap there instead. Over seeds 1-40 of
# `estimates` the largest relative gap seen with |reference| >= 1 was
# 1.1e-15 (5.4e-16 above 1e5); this leaves a margin of ten.
ACSV_REL_TOL = 1e-14
PARSEVAL_TOL = 1e-9
VARIETY_TOL = 1e-11
CRITICAL_TOL = 1e-9


class ExactReference:
    """Exact B, C and D from a Stirling triangle grown on demand.

    B uses Kaneko's one-row form, C the shifted square sum, and D the
    double inclusion-exclusion over B with both binomial sums done in
    closed form (see `d`).
    """

    def __init__(self) -> None:
        self._rows: list[list[int]] = [[1]]
        self._fact: list[int] = [1]

    def stirling_row(self, n: int) -> list[int]:
        rows = self._rows
        while len(rows) <= n:
            prev = rows[-1]
            size = len(prev)
            row = [0] * (size + 1)
            for m in range(1, size):
                row[m] = m * prev[m] + prev[m - 1]
            row[size] = 1
            rows.append(row)
        return rows[n]

    def factorial(self, m: int) -> int:
        fact = self._fact
        while len(fact) <= m:
            fact.append(fact[-1] * len(fact))
        return fact[m]

    def b(self, n: int, k: int) -> int:
        """B(n,k) = sum_m (-1)^(m+n) m! S(n,m) (m+1)^k."""
        row = self.stirling_row(n)
        total = 0
        for m in range(n + 1):
            term = self.factorial(m) * row[m] * (m + 1) ** k
            total += -term if (m + n) % 2 else term
        return total

    def c(self, n: int, k: int) -> int:
        """C(n,k) = sum_m (m!)^2 S(n+1,m+1) S(k,m)."""
        top = self.stirling_row(n + 1)
        side = self.stirling_row(k)
        return sum(self.factorial(m) ** 2 * top[m + 1] * side[m] for m in range(min(n, k) + 1))

    def d(self, n: int, k: int) -> int:
        """D(n,k) = sum_{i,j} (-1)^(i+j) binom(n,i) binom(k,j) B(n-i,k-j).

        With B in Kaneko's form the column sum collapses by the binomial
        theorem, sum_j (-1)^j binom(k,j) (m+1)^(k-j) = m^k, and the row sum
        by sum_i binom(n,i) S(n-i,m) = S(n+1,m+1), leaving
        sum_m (-1)^(n+m) m! S(n+1,m+1) m^k. `d_inclusion_exclusion` is the
        literal double sum; the self-tests check the two agree.
        """
        row = self.stirling_row(n + 1)
        total = 0
        for m in range(n + 1):
            term = self.factorial(m) * row[m + 1] * m**k
            total += -term if (m + n) % 2 else term
        return total

    def d_inclusion_exclusion(self, n: int, k: int) -> int:
        total = 0
        for i in range(n + 1):
            for j in range(k + 1):
                term = math.comb(n, i) * math.comb(k, j) * self.b(n - i, k - j)
                total += -term if (i + j) % 2 else term
        return total


def _log1mexp(t: float) -> float:
    # log(1 - e^-t) for t > 0: log1p is exact for large t, expm1 for small t.
    return math.log1p(-math.exp(-t)) if t > LOG2 else math.log(-math.expm1(-t))


def f_dir(t: float) -> float:
    # f(t) = t / ((1 - e^t) log(1 - e^-t)), written without cancellation.
    return t * math.exp(-t) / (-math.expm1(-t) * -_log1mexp(t))


def _solve_at_least_one(r: float) -> float:
    # f is increasing with f(log 2) = 1 and f(t) >= t, so for r >= 1 the
    # root lies in [log 2, r]; bisect until the bracket stops shrinking.
    lo, hi = LOG2, r + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if f_dir(mid) < r:
            lo = mid
        else:
            hi = mid


def saddle(n: int, k: int) -> tuple[float, float]:
    """Positive (a, b) with e^-a + e^-b = 1 and f(a) = n/k.

    Solved on the side whose ratio is at least 1, which keeps the root in
    a bracket of ordinary floats; the other side follows from the variety.
    """
    if n >= k:
        a = _solve_at_least_one(n / k)
        return a, -_log1mexp(a)
    b = _solve_at_least_one(k / n)
    return -_log1mexp(b), b


def bivar_log(n: int, k: int) -> float:
    """Closed-form leading estimate of log B(n,k) at the reference saddle point."""
    a, b = saddle(n, k)
    aea = a * math.exp(-a)
    bracket = b * math.exp(-b) + aea - a * b
    return (
        math.lgamma(n + 1)
        + math.lgamma(k + 1)
        - n * math.log(a)
        - k * math.log(b)
        - 0.5 * math.log(k)
        - 0.5 * math.log(2.0 * math.pi * aea * bracket)
    )


def acsv_closed_form(kind: str, n: int, k: int) -> float:
    """Closed form the general smooth-point estimate must reproduce: B, or D = B e^(-a-b)."""
    value = bivar_log(n, k)
    if kind == "D":
        a, b = saddle(n, k)
        value -= a + b
    return value


def acsv_close(value: float, reference: float) -> bool:
    """Within ACSV_TOL absolutely, or ACSV_REL_TOL relatively once that is coarser."""
    return math.isfinite(value) and abs(value - reference) <= max(ACSV_TOL, ACSV_REL_TOL * abs(reference))

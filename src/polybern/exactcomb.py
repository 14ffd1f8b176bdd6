"""Exact arbitrary-precision combinatorics.

Stirling numbers of the second kind, poly-Bernoulli numbers B(n,k), and
the relatives C(n,k) and D(n,k) = ML(n,k), all as exact integers, plus a
lossless conversion of huge counts to natural logs.
"""

from __future__ import annotations

import math
from functools import lru_cache

# Counts are plain Python ints: arbitrary precision, nonnegative, and they
# round-trip exactly through str()/int().
Count = int

# Log-space estimates are plain floats holding the natural log of a
# positive quantity.
LogEstimate = float

LOG2 = math.log(2.0)

# Largest n or k the float formulas take, checked by _check_estimate_sizes:
# lgamma(n + 1) leaves the float range from n of about 2.5e305; below 10**300
# every sum saddle's estimators form, and n times lclt's rate constants, stays
# finite. A power of ten, so the refusal prints it as 10**e.
MAX_ESTIMATE_SIZE = 10**300

# Largest n or k a caller may pass to the exact tables. B(n, k) and C(n, k)
# read row n + 1, so the triangle reaches at most row TABLE_GUARD + 1.
TABLE_GUARD = 512

# The triangle keeps every row up to here, and past it row r when r % s == 0
# for a stride s that doubles each time r doubles: 2 on rows 129..256, 4 on
# 257..512. Rows 0..513 take 7.52 MiB so, 8.96 MiB with one row in four kept
# above 256 and every row below, and 25.4 MiB with every row (tracemalloc,
# Python 3.11); the table grows x4, not x8, each time its top row doubles.
_DENSE_ROWS = 128

# Largest n or k ml_degree_inclusion_exclusion takes. It reads n+1 rows of B,
# each costing about 45 triangle sums at n = 64, so its time grows steeply:
# 0.021 s at (64, 64), 0.16 s at (120, 120) and 1.6 s at (240, 240) (Python
# 3.11, x86-64).
IE_GUARD = 64


class GuardError(ValueError):
    """A size past its guard, as "n*k=36 exceeds enumeration guard 30" or "n=1 outside row guard 2..200"."""


# The Stirling triangle, read and grown by _stirling_row alone.
_rows: list[list[Count] | None] = [[1]]


def _shown(value: object) -> str:
    # A value as every refusal prints it: by repr, a tuple or list entry by entry (nested ones by repr, so
    # a list that holds itself ends), and an int past str()'s 4300-digit limit by its sign and bit length.
    if isinstance(value, (tuple, list)):
        entries = ", ".join(repr(entry) if isinstance(entry, (tuple, list)) else _shown(entry) for entry in value)
        return f"[{entries}]" if isinstance(value, list) else f"({entries}{',' * (len(value) == 1)})"
    if isinstance(value, int) and value.bit_length() > 14000:
        return f"{'-' * (value < 0)}<{value.bit_length()}-bit int>"
    return repr(value)


def _check_ints(what: str, *values: int) -> None:
    # The library's one int check: a float, NaN or None in an int's place
    # is refused by name, and a bool reads as its int. `what` is the whole
    # phrase, as "k must be an int".
    for value in values:
        if not isinstance(value, int):
            raise ValueError(f"{what}, got {', '.join(map(_shown, values))}")


def _check_sizes(what: str, names: str, lo: int, hi: int, guard: str, *sizes: int) -> None:
    # The library's one size rule: the int rule, with `what` its phrase; then
    # a negative size, a ValueError; then the first size outside its guard's
    # window lo..hi, a GuardError. `names` names the sizes, space-separated.
    # Callers read each guard at call time, so cached rows do not lift it.
    # The refusal is built only once a size fails the one test on the hot path.
    for size in sizes:
        if not (isinstance(size, int) and lo <= size <= hi):
            _check_ints(what, *sizes)
            if min(sizes) < 0:
                raise ValueError(f"{what.partition(' must ')[0]} must be nonnegative")
            name, size = next(pair for pair in zip(names.split(), sizes) if not lo <= pair[1] <= hi)
            window = f"outside {guard} {lo}..{hi}" if lo else f"exceeds {guard} {hi}"
            raise GuardError(f"{name}={_shown(size)} {window}")


def _check_estimate_sizes(what: str, *sizes: int) -> None:
    # The float formulas' one size check: the int rule, with `what` its phrase,
    # then each size in 1..MAX_ESTIMATE_SIZE as read at call time. The float
    # range is no guard: past it is a ValueError, built only once a size fails.
    for size in sizes:
        if not (isinstance(size, int) and 1 <= size <= MAX_ESTIMATE_SIZE):
            _check_ints(what, *sizes)
            bound = f"1..10**{len(str(MAX_ESTIMATE_SIZE)) - 1}"
            raise ValueError(f"{what.partition(' must ')[0]} must lie in {bound}, got {', '.join(map(_shown, sizes))}")


def _step(prev: list[Count], width: int) -> list[Count]:
    # S(r, 0..width-1) from the whole row r-1 by S(r, m) = m S(r-1, m) + S(r-1, m-1).
    r = len(prev)
    row = [0] + [m * prev[m] + prev[m - 1] for m in range(1, min(width, r))]
    if width > r:
        row.append(1)
    return row


def _stirling_row(r: int, width: int) -> list[Count]:
    # A row whose first `width` entries are S(r, 0..width-1), read by
    # stirling2 and the sums. _rows[r] is the row S(r, 0..r), returned as
    # it is, or None where the stride rule at _DENSE_ROWS does not keep it.
    # Any other read walks down once to the nearest kept row and steps up to
    # row r in one loop: for a row inside the table r % s steps `width` wide,
    # local to the call; for one past its top whole rows, r + 1 wide, which
    # the table keeps by its stride. A step costs about r^2 and the sum
    # reading the row about r^3, so a stride growing with r keeps the derived
    # row's share of a read level: a step takes about 14 us at row 129, 35 us
    # at 257 and 0.11 ms at 513, and a B or D value 11% more on rows 129..255
    # and 17% more on 257..511 than with every row kept. Growth rebinds the
    # name to an extended copy, so a reader of the old list keeps a valid
    # triangle and needs no lock.
    global _rows
    rows = _rows
    row = rows[r] if r < len(rows) else None
    if row is None:
        known = min(r, len(rows) - 1)
        while rows[known] is None:
            known -= 1
        row, table = rows[known], rows[: known + 1]
        for size in range(known + 1, r + 1):
            row = _step(row, width if r < len(rows) else r + 1)
            table.append(None if size % (1 << ((size - 1) // _DENSE_ROWS).bit_length()) else row)
        if len(table) > len(rows):
            _rows = table
    return row


def stirling2(n: int, m: int) -> Count:
    """Stirling number of the second kind: partitions of an n-set into m blocks."""
    _check_sizes("indices must be ints", "n k", 0, TABLE_GUARD, "table bound", n, m)
    if m > n:
        return 0
    return _stirling_row(n, m + 1)[m]


def stirling2_explicit(n: int, m: int) -> Count:
    """Independent evaluation of stirling2 by the alternating-sum formula.

    Uses m! * S(n,m) = sum_j (-1)^j binom(m,j) (m-j)^n and divides out m!.
    Exists as a cross-check oracle for the recurrence rows; never used by
    the other formulas. Has the exact tables' size guard.
    """
    _check_sizes("indices must be ints", "n k", 0, TABLE_GUARD, "table bound", n, m)
    if m > n:
        raise ValueError("explicit form requires m <= n")
    total = 0
    for j in range(m + 1):
        term = math.comb(m, j) * (m - j) ** n
        total += -term if j % 2 else term
    if total < 0:
        raise ArithmeticError(f"alternating sum for S({n},{m}) came out negative")
    q, r = divmod(total, math.factorial(m))
    if r:
        raise ArithmeticError(f"alternating sum for S({n},{m}) not divisible by {m}!")
    return q


# Shift pairs (dn, dk) of B, C and D = ML, as _shifted_sum takes them: over the
# shared denominator exp(-x) + exp(-y) - 1 the numerator is exp(-(1-dn) x - (1-dk) y).
SHIFTS = {"B": (1, 1), "C": (1, 0), "D": (0, 0)}
POLY_BERNOULLI_GF = SHIFTS["B"]
ML_DEGREE_GF = SHIFTS["D"]


def _shifted_sum(n: int, k: int, shift: tuple[int, int]) -> Count:
    # sum_m (m!)^2 S(n+dn, m+dn) S(k+dk, m+dk) for shift = (dn, dk): B, C and
    # D are the pairs of SHIFTS (Kaneko 1997). Nested from the top term
    # down, sum_m (m!)^2 t_m = t_0 + 1^2 (t_1 + 2^2 (t_2 + ...)), so the
    # weight is a small multiplier and each term costs one big product.
    _check_sizes("indices must be ints", "n k", 0, TABLE_GUARD, "table bound", n, k)
    dn, dk = shift
    low = min(n, k)
    top = _stirling_row(n + dn, low + 1 + dn)
    # On a diagonal such as B(k, k) both sides read one row, and dn >= dk,
    # so the row already read is wide enough: a derived row is derived once.
    side = top if n + dn == k + dk else _stirling_row(k + dk, low + 1 + dk)
    total = 0
    for m in range(low, -1, -1):
        total = total * ((m + 1) * (m + 1)) + top[m + dn] * side[m + dk]
    return total


def _u_row(n: int, delta: int) -> list[Count]:
    # u_delta(n) = (m! S(n+delta, m+delta)) for m = 0..n, Kaneko's coefficient
    # row (1997); it reads row n+delta, so its caller checks the table guard.
    stirling = _stirling_row(n + delta, n + delta + 1)
    row = []
    factorial = 1  # m!
    for m in range(n + 1):
        row.append(factorial * stirling[m + delta])
        factorial *= m + 1
    return row


def _shifted_row(n: int, top: int, shift: tuple[int, int]) -> list[Count]:
    # _shifted_sum(n, k, shift) for k = 0..top from the single Stirling
    # row n+1-dn: sum_j (-1)^(n-j) u_{1-dn}(n)_j (j+dk)^k, Kaneko's
    # one-row form of B at (1,1). Step k -> k+1 multiplies term j by the
    # small int j+dk. A whole row costs as much as 45-70 triangle sums at
    # its top k, but only 26-80% of its values summed one by one (B, top = n
    # = 64 and 256, and n = 500 with top = 512; Python 3.11, x86-64): so
    # lclt and the inclusion-exclusion, which need every k, read rows, and
    # a single value keeps the triangle sum.
    _check_sizes("indices must be ints", "n k", 0, TABLE_GUARD, "table bound", n, top)
    dn, dk = shift
    terms = [-u if (n - j) % 2 else u for j, u in enumerate(_u_row(n, 1 - dn))]
    bases = range(dk, n + 1 + dk)
    row = [sum(terms)]
    for _ in range(top):
        terms = [term * base for term, base in zip(terms, bases)]
        row.append(sum(terms))
    return row


# One row per n inside IE_GUARD, each read by every k: criterion 2 of
# verify builds 16. The 65 rows of 65 ints take about 0.29 MB (tracemalloc).
@lru_cache(maxsize=IE_GUARD + 1)
def _b_row(n: int) -> tuple[Count, ...]:
    # B(n, 0..IE_GUARD) from the one-row form, a tuple since callers share it.
    return tuple(_shifted_row(n, IE_GUARD, SHIFTS["B"]))


def poly_bernoulli(n: int, k: int) -> Count:
    """Number of n x k lonesum 0-1 matrices, B(n,k).

    B(n,k) = sum_m (m!)^2 S(n+1,m+1) S(k+1,m+1); symmetric in (n,k).
    """
    return _shifted_sum(n, k, SHIFTS["B"])


def c_relative(n: int, k: int) -> Count:
    """C(n,k): lonesum n x k matrices with no all-zero column.

    C(n,k) = sum_m (m!)^2 S(n+1,m+1) S(k,m); not symmetric in general.
    """
    return _shifted_sum(n, k, SHIFTS["C"])


def ml_degree(n: int, k: int) -> Count:
    """D(n,k): lonesum n x k matrices with no all-zero row and no all-zero column.

    Equals the maximum likelihood degree of the n x k missing-data
    multinomial model; D(n,k) = sum_m (m!)^2 S(n,m) S(k,m), symmetric.
    """
    return _shifted_sum(n, k, SHIFTS["D"])


# Letter -> (exact count, the name of its saddle estimator), for the CLI and verify.
FAMILY = {
    "B": (poly_bernoulli, "bivar_asym_log"),
    "C": (c_relative, "excedance_asym_log"),
    "D": (ml_degree, "ml_asym_log"),
}


def ml_degree_inclusion_exclusion(n: int, k: int) -> Count:
    """D(n,k) by double inclusion-exclusion over rows and columns of B.

    Sums (-1)^(m+l) C(n,m) C(k,l) B(n-m, k-l) over m <= n, l <= k. Each
    row B(n-m, 0..k) comes from Kaneko's one-row form, which has no (m!)^2
    weight, so the check is independent of ml_degree's direct sum and
    catches a wrong weight there. The signed intermediate is asserted
    nonnegative to catch index-shift bugs. Takes n, k <= IE_GUARD.
    """
    _check_sizes("indices must be ints", "n k", 0, IE_GUARD, "inclusion-exclusion guard", n, k)
    # signs[l] = (-1)^l C(k,l), read against B(n-m, k-l)
    signs = [-math.comb(k, ell) if ell % 2 else math.comb(k, ell) for ell in range(k + 1)]
    total = 0
    for m in range(n + 1):
        row = _b_row(n - m)
        term = math.comb(n, m) * sum(sign * b for sign, b in zip(signs, row[k::-1]))
        total += -term if m % 2 else term
    if total < 0:
        raise ArithmeticError(f"inclusion-exclusion for D({n},{k}) came out negative")
    return total


def log_of_count(c: Count) -> LogEstimate:
    """Natural log of a positive count, relative error below 1e-12.

    Every count is shifted right to a head of at most 53 bits before the
    float log and shift * log 2 is added back, so the value never goes
    through a lossy full-width conversion; the shift is zero below 54 bits.
    """
    _check_ints("count must be an int", c)
    if c <= 0:
        raise ValueError("count must be positive to take its log")
    shift = max(c.bit_length() - 53, 0)
    return math.log(c >> shift) + shift * LOG2

"""Enumeration oracles for the combinatorial interpretations.

Every counter decides membership from the raw definition, independently
of the closed-form layer in exactcomb, under a hard size guard. Matrices
are built depth first one row at a time, keeping a row only if it fits
the rows above it; every matrix property here is hereditary, so a failed
prefix is never extended. Permutations are placed one position at a
time, each from its own range of values. Ground truth, not speed.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Callable, Iterator, Sequence

from .exactcomb import Count, GuardError

MATRIX_GUARD = 24
ORIENTATION_GUARD = 20
VESZTERGOMBI_GUARD = 9
EXCEDANCE_GUARD = 10


def _row_sweep(n: int, k: int, fits: Callable[[list[int], int], bool]) -> Iterator[list[int]]:
    # Every n-row matrix of k-bit row masks whose each row fits the rows
    # above it, depth first. The yielded list is the live prefix, valid
    # until the sweep resumes.
    rows: list[int] = []
    choices = range(1 << k)

    def extend() -> Iterator[list[int]]:
        if len(rows) == n:
            yield rows
            return
        for row in choices:
            if fits(rows, row):
                rows.append(row)
                yield from extend()
                rows.pop()

    return extend()


def _comparable(rows: Sequence[int], row: int) -> bool:
    # A column where only one row is set plus a column where only the other
    # is set give one of the two forbidden 2x2 patterns in one column order
    # or the other, so a row pair is safe iff either difference set is empty.
    for above in rows:
        if above & ~row and row & ~above:
            return False
    return True


def is_lonesum(rows: Sequence[int]) -> bool:
    """True iff no 2x2 submatrix equals (1,0 / 0,1) or (0,1 / 1,0).

    The matrix is given as its rows, each a bitmask of its set columns.
    """
    return all(_comparable(rows[:i], rows[i]) for i in range(len(rows)))


def _gamma_free_below(rows: Sequence[int], row: int) -> bool:
    # Violation: entries (i,j), (i,j'), (i',j) all 1 with i<i', j<j', the
    # new row being row i'. Take the lowest column it shares with a row
    # above; any higher set bit of that row completes the pattern.
    for above in rows:
        c = above & row
        if c and above >> (c & -c).bit_length():
            return False
    return True


def _acyclic_with(rows: Sequence[int], row: int) -> bool:
    # Bit j of a row orients row -> column j, otherwise column j -> row.
    # The rows above are acyclic, so a new cycle passes through the new
    # row: search depth first for a directed path from it back to it. The
    # stack holds the out-columns of the rows reached.
    seen_rows = seen_cols = 0
    stack = [row]
    while stack:
        cols = stack.pop() & ~seen_cols
        if not cols:
            continue
        if cols & ~row:
            return False  # a column the new row lacks points back at it
        seen_cols |= cols
        for i, above in enumerate(rows):
            if cols & ~above and not seen_rows >> i & 1:
                seen_rows |= 1 << i
                stack.append(above)
    return True


@functools.lru_cache(maxsize=None)
def _lonesum_census(n: int, k: int) -> dict[tuple[bool, bool], Count]:
    # One sweep counts lonesum matrices by (no zero row, no zero column).
    # Comparable rows form a chain under inclusion: the largest is the union.
    full = (1 << k) - 1
    census: Counter[tuple[bool, bool]] = Counter()
    for rows in _row_sweep(n, k, _comparable):
        census[all(rows), max(rows, default=0) == full] += 1
    return census


def _check_matrix_guard(n: int, k: int, guard: int) -> None:
    if n < 0 or k < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if max(n, k, n * k) > guard:
        raise GuardError(f"{n}x{k} exceeds enumeration guard {guard} on n*k or a side")


def count_lonesum(n: int, k: int) -> Count:
    """Number of n x k lonesum matrices by exhaustive sweep (n*k, n, k <= 24)."""
    _check_matrix_guard(n, k, MATRIX_GUARD)
    return sum(_lonesum_census(n, k).values())


def count_lonesum_restricted(n: int, k: int, forbid_zero_rows: bool, forbid_zero_cols: bool) -> Count:
    """Lonesum count with all-zero rows and/or columns excluded (n*k, n, k <= 24).

    (False, True) matches c_relative; (True, True) matches ml_degree.
    """
    _check_matrix_guard(n, k, MATRIX_GUARD)
    return sum(
        count
        for (rows_ok, cols_ok), count in _lonesum_census(n, k).items()
        if rows_ok >= forbid_zero_rows and cols_ok >= forbid_zero_cols
    )


def count_gamma_free(n: int, k: int) -> Count:
    """Number of n x k matrices avoiding (1,1 / 1,0) and (1,1 / 1,1) (n*k, n, k <= 24)."""
    _check_matrix_guard(n, k, MATRIX_GUARD)
    return sum(1 for _ in _row_sweep(n, k, _gamma_free_below))


def count_acyclic_orientations(n: int, k: int) -> Count:
    """Acyclic orientations of the complete bipartite graph K(n,k) (n*k, n, k <= 20).

    Each added row is checked by a depth-first search for a directed cycle
    through its vertex, deliberately not by any forbidden submatrix or
    four-cycle criterion.
    """
    _check_matrix_guard(n, k, ORIENTATION_GUARD)
    return sum(1 for _ in _row_sweep(n, k, _acyclic_with))


def _count_permutations(allowed: Sequence[range]) -> Count:
    # Permutations pi with pi(j) in allowed[j - 1] for every position j,
    # placing one position at a time and never reusing a value.
    m = len(allowed)

    def extend(pos: int, used: int) -> Count:
        if pos == m:
            return 1
        total = 0
        for v in allowed[pos]:
            bit = 1 << v
            if not used & bit:
                total += extend(pos + 1, used | bit)
        return total

    return extend(0, 0)


def count_vesztergombi(n: int, k: int) -> Count:
    """Permutations pi of {1,...,n+k} with -k <= pi(i)-i <= n (n+k <= 9)."""
    if n < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    if n + k > VESZTERGOMBI_GUARD:
        raise GuardError(f"n+k={n + k} exceeds enumeration guard {VESZTERGOMBI_GUARD}")
    m = n + k
    return _count_permutations([range(max(1, i - k), min(m, i + n) + 1) for i in range(1, m + 1)])


def count_excedance_word(r: int, s: int) -> Count:
    """Permutations of {1,...,r+s} whose first r-1 positions are excedances
    and positions r through r+s-1 are not (r+s <= 10).

    A position j is an excedance when pi(j) > j; the last position is free.
    """
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    m = r + s
    if m > EXCEDANCE_GUARD:
        raise GuardError(f"r+s={m} exceeds enumeration guard {EXCEDANCE_GUARD}")
    allowed = [range(j + 1, m + 1) if j < r else range(1, j + 1) for j in range(1, m)]
    return _count_permutations([*allowed, range(1, m + 1)])

"""Enumeration oracles for the combinatorial interpretations.

Every counter decides membership from the raw definition, independently
of the closed-form layer in exactcomb, under a hard size guard. The
counters count states, not objects. A matrix is built one row at a time,
keeping a row only if it fits the rows above it; each test reads those
rows only as a set, so the sweep keeps, per set of distinct rows, the
number of prefixes holding it. Each property is closed under transpose,
so rows are swept at width min(n, k). Permutations are placed one
position at a time, each from its own range of values, and counted per
set of values used (the bitmask permanent recurrence).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Collection, Hashable, Sequence

from .exactcomb import Count, GuardError

# One guard per sweep: the set sweep of matrices, the mask sweep of permutations.
MATRIX_GUARD = 30
PERMUTATION_GUARD = 14


def _set_sweep(
    n: int,
    k: int,
    fits: Callable[[frozenset[int], int], bool],
    leaf: Callable[[frozenset[int]], Hashable],
) -> Counter[Hashable]:
    # Every n-row matrix of k-bit row masks whose each row fits the rows
    # above it, tallied by leaf(set of its distinct rows). `fits` must read
    # the rows above only as a set; then a prefix's completions depend on
    # its set alone, and each layer maps a set to the prefixes reaching it.
    layer = {frozenset(): 1}
    for _ in range(n):
        below: dict[frozenset[int], Count] = {}
        for above, ways in layer.items():
            for row in range(1 << k):
                if fits(above, row):
                    key = above | {row}
                    below[key] = below.get(key, 0) + ways
        layer = below
    tally: Counter[Hashable] = Counter()
    for rows, ways in layer.items():
        tally[leaf(rows)] += ways
    return tally


def _count_matrices(n: int, k: int, fits: Callable[[frozenset[int], int], bool]) -> Count:
    # The property is closed under transpose: sweep the narrower side.
    return sum(_set_sweep(max(n, k), min(n, k), fits, lambda rows: None).values())


def _comparable(rows: Collection[int], row: int) -> bool:
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


def _gamma_free_below(rows: Collection[int], row: int) -> bool:
    # Violation: entries (i,j), (i,j'), (i',j) all 1 with i<i', j<j', the
    # new row being row i'. Take the lowest column it shares with a row
    # above; any higher set bit of that row completes the pattern.
    for above in rows:
        c = above & row
        if c and above >> (c & -c).bit_length():
            return False
    return True


def _acyclic_with(rows: Collection[int], row: int) -> bool:
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


def _lonesum_census(n: int, k: int) -> Counter[tuple[bool, bool]]:
    # One sweep counts lonesum matrices by (no zero row, no zero column).
    # Comparable rows form a chain under inclusion: the largest is the union.
    # Transposing swaps the two flags.
    width = min(n, k)
    full = (1 << width) - 1
    census = _set_sweep(
        max(n, k), width, _comparable, lambda rows: (0 not in rows, max(rows, default=0) == full)
    )
    if n >= k:
        return census
    return Counter({(cols_ok, rows_ok): count for (rows_ok, cols_ok), count in census.items()})


def _check_matrix_guard(n: int, k: int) -> None:
    if n < 0 or k < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if max(n, k, n * k) > MATRIX_GUARD:
        raise GuardError(f"{n}x{k} exceeds enumeration guard {MATRIX_GUARD} on n*k or a side")


def count_lonesum(n: int, k: int) -> Count:
    """Number of n x k lonesum matrices by exhaustive sweep (n*k, n, k <= 30)."""
    _check_matrix_guard(n, k)
    return sum(_lonesum_census(n, k).values())


def count_lonesum_restricted(n: int, k: int, forbid_zero_rows: bool, forbid_zero_cols: bool) -> Count:
    """Lonesum count with all-zero rows and/or columns excluded (n*k, n, k <= 30).

    (False, True) matches c_relative; (True, True) matches ml_degree.
    """
    _check_matrix_guard(n, k)
    return sum(
        count
        for (rows_ok, cols_ok), count in _lonesum_census(n, k).items()
        if rows_ok >= forbid_zero_rows and cols_ok >= forbid_zero_cols
    )


def count_gamma_free(n: int, k: int) -> Count:
    """Number of n x k matrices avoiding (1,1 / 1,0) and (1,1 / 1,1) (n*k, n, k <= 30)."""
    _check_matrix_guard(n, k)
    return _count_matrices(n, k, _gamma_free_below)


def count_acyclic_orientations(n: int, k: int) -> Count:
    """Acyclic orientations of the complete bipartite graph K(n,k) (n*k, n, k <= 30).

    Each added row is checked by a depth-first search for a directed cycle
    through its vertex, deliberately not by any forbidden submatrix or
    four-cycle criterion. Transposing reverses every edge, which keeps an
    orientation acyclic.
    """
    _check_matrix_guard(n, k)
    return _count_matrices(n, k, _acyclic_with)


def _count_permutations(allowed: Sequence[range]) -> Count:
    # Permutations pi with pi(j) in allowed[j - 1] for every position j,
    # placing one position at a time and never reusing a value. The values
    # used so far fix the position, so each step maps a used-value mask to
    # the number of partial permutations reaching it.
    layer = {0: 1}
    for values in allowed:
        step: dict[int, Count] = {}
        for used, ways in layer.items():
            for v in values:
                bit = 1 << v
                if not used & bit:
                    step[used | bit] = step.get(used | bit, 0) + ways
        layer = step
    return sum(layer.values())


def count_vesztergombi(n: int, k: int) -> Count:
    """Permutations pi of {1,...,n+k} with -k <= pi(i)-i <= n (n+k <= 14)."""
    if n < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    if n + k > PERMUTATION_GUARD:
        raise GuardError(f"n+k={n + k} exceeds enumeration guard {PERMUTATION_GUARD}")
    m = n + k
    return _count_permutations([range(max(1, i - k), min(m, i + n) + 1) for i in range(1, m + 1)])


def count_excedance_word(r: int, s: int) -> Count:
    """Permutations of {1,...,r+s} whose first r-1 positions are excedances
    and positions r through r+s-1 are not (r+s <= 14).

    A position j is an excedance when pi(j) > j; the last position is free.
    """
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    m = r + s
    if m > PERMUTATION_GUARD:
        raise GuardError(f"r+s={m} exceeds enumeration guard {PERMUTATION_GUARD}")
    allowed = [range(j + 1, m + 1) if j < r else range(1, j + 1) for j in range(1, m)]
    return _count_permutations([*allowed, range(1, m + 1)])

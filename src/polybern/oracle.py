"""Enumeration oracles for the combinatorial interpretations.

Every counter decides membership from the raw definition, independently
of the closed-form layer in exactcomb. The counters count states, not
objects: one forward tally keeps, per state, the number of paths reaching
it. A matrix grows one row at a time, a row kept only if it fits the
rows above it; each test reads those rows only as a set, which is the
state. Each property is closed under transpose, so rows are swept at
width min(n, k). A permutation is placed one position at a time, each
from its own range, and the state is the mask of values used (the bitmask
permanent recurrence). Each sweep checks its own size guard first.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Collection, Hashable, Iterable, Sequence
from typing import TypeVar

from .exactcomb import Count, GuardError

# One guard per sweep: the set sweep of matrices, the mask sweep of permutations.
MATRIX_GUARD = 30
PERMUTATION_GUARD = 14

State = TypeVar("State", bound=Hashable)


def _tally(start: State, moves: Sequence[Callable[[State], Iterable[State]]]) -> dict[State, Count]:
    # Step j maps each state to the states moves[j] reaches from it, and
    # each reached state to the number of paths from start that reach it.
    layer = {start: 1}
    for move in moves:
        step: dict[State, Count] = {}
        for state, ways in layer.items():
            for reached in move(state):
                step[reached] = step.get(reached, 0) + ways
        layer = step
    return layer


def _check_ints(what: str, *values: int) -> None:
    # The layer's one type check, run before any sign test or sweep.
    if not all(isinstance(v, int) for v in values):
        raise ValueError(f"{what} must be ints, got {', '.join(map(repr, values))}")


def _row_sets(n: int, k: int, fits: Callable[[frozenset[int], int], bool]) -> dict[frozenset[int], Count]:
    # Every max(n, k)-row matrix of min(n, k)-bit rows, each fitting the rows
    # above it, tallied by its set of distinct rows. `fits` must read the
    # rows above only as a set, and the property be closed under transpose.
    _check_ints("dimensions", n, k)
    if n < 0 or k < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if max(n, k, n * k) > MATRIX_GUARD:
        raise GuardError(f"{n}x{k} exceeds enumeration guard {MATRIX_GUARD} on n*k or a side")
    rows = range(1 << min(n, k))
    grow = [lambda above: (above | {row} for row in rows if fits(above, row))]
    return _tally(frozenset(), grow * max(n, k))


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
    _check_ints("rows", *rows)
    rows = [int(r) for r in rows]  # a bool reads as its int; ~ on a bool is deprecated
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
    # Lonesum matrices by (no zero row, no zero column). Comparable rows
    # form a chain under inclusion: the largest is the union. Transposing
    # swaps the two flags.
    sets = _row_sets(n, k, _comparable)
    full = (1 << min(n, k)) - 1
    census: Counter[tuple[bool, bool]] = Counter()
    for rows, ways in sets.items():
        flags = (0 not in rows, max(rows, default=0) == full)
        census[flags if n >= k else flags[::-1]] += ways
    return census


def count_lonesum(n: int, k: int) -> Count:
    """Number of n x k lonesum matrices by exhaustive sweep (n*k, n, k <= 30)."""
    return sum(_row_sets(n, k, _comparable).values())


def count_lonesum_restricted(n: int, k: int, forbid_zero_rows: bool, forbid_zero_cols: bool) -> Count:
    """Lonesum count with all-zero rows and/or columns excluded (n*k, n, k <= 30).

    (False, True) matches c_relative; (True, True) matches ml_degree.
    """
    flags = forbid_zero_rows, forbid_zero_cols  # a bool, or 0 or 1 read as one
    if not all(isinstance(flag, int) and flag in (0, 1) for flag in flags):
        raise ValueError(f"flags must be bools, got {', '.join(map(repr, flags))}")
    return sum(
        count
        for (rows_ok, cols_ok), count in _lonesum_census(n, k).items()
        if rows_ok >= forbid_zero_rows and cols_ok >= forbid_zero_cols
    )


def count_gamma_free(n: int, k: int) -> Count:
    """Number of n x k matrices avoiding (1,1 / 1,0) and (1,1 / 1,1) (n*k, n, k <= 30)."""
    return sum(_row_sets(n, k, _gamma_free_below).values())


def count_acyclic_orientations(n: int, k: int) -> Count:
    """Acyclic orientations of the complete bipartite graph K(n,k) (n*k, n, k <= 30).

    Each added row is checked by a depth-first search for a directed cycle
    through its vertex, deliberately not by any forbidden submatrix or
    four-cycle criterion. Transposing reverses every edge, which keeps an
    orientation acyclic.
    """
    return sum(_row_sets(n, k, _acyclic_with).values())


def _count_permutations(m: int, allowed: Callable[[int], range]) -> Count:
    # Permutations pi of {1,...,m} with pi(j) in allowed(j) for every
    # position j, placed in order without reusing a value; the values used
    # so far fix the position, so the state is their mask.
    if m > PERMUTATION_GUARD:
        raise GuardError(f"permutation length {m} exceeds enumeration guard {PERMUTATION_GUARD}")
    layers = [[1 << v for v in allowed(j)] for j in range(1, m + 1)]
    moves = [lambda used, bits=bits: (used | b for b in bits if not used & b) for bits in layers]
    return sum(_tally(0, moves).values())


def count_vesztergombi(n: int, k: int) -> Count:
    """Permutations pi of {1,...,n+k} with -k <= pi(i)-i <= n (n+k <= 14)."""
    _check_ints("dimensions", n, k)
    if n < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    m = n + k
    return _count_permutations(m, lambda i: range(max(1, i - k), min(m, i + n) + 1))


def count_excedance_word(r: int, s: int) -> Count:
    """Permutations of {1,...,r+s} whose first r-1 positions are excedances
    and positions r through r+s-1 are not (r+s <= 14).

    A position j is an excedance when pi(j) > j; the last position is free.
    """
    _check_ints("dimensions", r, s)
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    m = r + s
    # At j = m the non-excedance range 1..j is every value: the last position is free.
    return _count_permutations(m, lambda j: range(j + 1, m + 1) if j < r else range(1, j + 1))

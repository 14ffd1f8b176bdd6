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

The matrix counters share one sweep per row test and width. It grows a
row at a time as taller shapes ask for it, and every shape of that width,
and its transpose, reads the tally of its height: the count, or for
lonesum the census by zero-row and zero-column flags, whose sum is the
plain count and each restricted count a part of it. A sweep keeps its
current layer until the guard height, and per height at most four ints.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Collection, Hashable, Iterable, Mapping, Sequence
from functools import lru_cache
from types import MappingProxyType
from typing import Generic, TypeVar

from .exactcomb import Count, GuardError, _check_ints

# One guard per sweep: the set sweep of matrices, the mask sweep of permutations.
MATRIX_GUARD = 30
PERMUTATION_GUARD = 14

State = TypeVar("State", bound=Hashable)
Tally = TypeVar("Tally")
# A matrix sweep's state is its set of distinct rows, each a bitmask; a row
# test decides from that set whether a new row fits below it.
Layer = dict[frozenset[int], Count]
RowTest = Callable[[frozenset[int], int], bool]


def _tally(layer: dict[State, Count], moves: Sequence[Callable[[State], Iterable[State]]]) -> dict[State, Count]:
    # Step j maps each state to the states moves[j] reaches from it, and
    # each reached state to the number of paths from the layer's states,
    # each weighted by its count, that reach it.
    for move in moves:
        step: dict[State, Count] = {}
        for state, ways in layer.items():
            for reached in move(state):
                step[reached] = step.get(reached, 0) + ways
        layer = step
    return layer


class _Sweep(Generic[Tally]):
    # Every matrix of `width`-bit rows, each row fitting the rows above it,
    # grown one row at a time as taller shapes ask for it. `fits` must read
    # the rows above only as a set, which is the state. The sweep keeps its
    # current layer and, per height reached, that layer's tally by
    # `summarize`. At the guard height no shape reads further, so the layer
    # is dropped there. Growing holds the lock, so that two threads cannot
    # add the same row twice.

    def __init__(self, fits: RowTest, summarize: Callable[[Layer, int], Tally], width: int) -> None:
        rows = range(1 << width)
        self._grow = [lambda above: (above | {row} for row in rows if fits(above, row))]
        self._summarize = summarize
        self._full = rows[-1]
        self._guard = MATRIX_GUARD // max(width, 1)
        self._layer: Layer | None = {frozenset(): 1}
        self._tallies = [summarize(self._layer, self._full)]
        self._lock = threading.Lock()

    def _add_row(self) -> None:
        layer = _tally(self._layer, self._grow)
        self._tallies.append(self._summarize(layer, self._full))
        self._layer = layer if len(self._tallies) <= self._guard else None

    def tally(self, height: int) -> Tally:
        with self._lock:
            while len(self._tallies) <= height:
                self._add_row()
        return self._tallies[height]


# One sweep per row test and width: three tests at widths 0 to 5, since no
# wider shape fits the guard, so every sweep the counters use stays cached.
# Their layers take about 0.4 MB after verify's criterion 1, and at most
# about 5 MB, with every sweep one row below its guard (tracemalloc).
@lru_cache(maxsize=18)
def _sweep(fits: RowTest, summarize: Callable[[Layer, int], Tally], width: int) -> _Sweep[Tally]:
    return _Sweep(fits, summarize, width)


def _swept(n: int, k: int, fits: RowTest, summarize: Callable[[Layer, int], Tally]) -> Tally:
    # The tally of the n x k matrices whose rows each fit the rows above,
    # read from the sweep of max(n, k) rows of min(n, k) bits: the matrix
    # or its transpose, so the property must be closed under transpose.
    _check_ints("dimensions must be ints", n, k)
    if n < 0 or k < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if max(n, k, n * k) > MATRIX_GUARD:
        raise GuardError(f"{n}x{k} exceeds enumeration guard {MATRIX_GUARD} on n*k or a side")
    return _sweep(fits, summarize, min(n, k)).tally(max(n, k))


def _total(layer: Layer, full: int) -> Count:
    return sum(layer.values())


def _chain_flags(layer: Layer, full: int) -> Mapping[tuple[bool, bool], Count]:
    # Matrices of comparable rows by (no zero row, no zero column), at most
    # four ints, read-only since every caller shares it. Comparable rows
    # form a chain under inclusion: the largest is the union.
    census: dict[tuple[bool, bool], Count] = {}
    for rows, ways in layer.items():
        flags = 0 not in rows, max(rows, default=0) == full
        census[flags] = census.get(flags, 0) + ways
    return MappingProxyType(census)


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
    _check_ints("rows must be ints", *rows)
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


def _lonesum_census(n: int, k: int) -> Mapping[tuple[bool, bool], Count]:
    # Lonesum matrices by (no zero row, no zero column). Transposing swaps
    # the two flags.
    census = _swept(n, k, _comparable, _chain_flags)
    return census if n >= k else MappingProxyType({flags[::-1]: ways for flags, ways in census.items()})


def count_lonesum(n: int, k: int) -> Count:
    """Number of n x k lonesum matrices by exhaustive sweep (n*k, n, k <= 30)."""
    return sum(_lonesum_census(n, k).values())


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
    return _swept(n, k, _gamma_free_below, _total)


def count_acyclic_orientations(n: int, k: int) -> Count:
    """Acyclic orientations of the complete bipartite graph K(n,k) (n*k, n, k <= 30).

    Each added row is checked by a depth-first search for a directed cycle
    through its vertex, deliberately not by any forbidden submatrix or
    four-cycle criterion. Transposing reverses every edge, which keeps an
    orientation acyclic.
    """
    return _swept(n, k, _acyclic_with, _total)


def _count_permutations(m: int, allowed: Callable[[int], range]) -> Count:
    # Permutations pi of {1,...,m} with pi(j) in allowed(j) for every
    # position j, placed in order without reusing a value; the values used
    # so far fix the position, so the state is their mask.
    if m > PERMUTATION_GUARD:
        raise GuardError(f"permutation length {m} exceeds enumeration guard {PERMUTATION_GUARD}")
    layers = [[1 << v for v in allowed(j)] for j in range(1, m + 1)]
    moves = [lambda used, bits=bits: (used | b for b in bits if not used & b) for bits in layers]
    return sum(_tally({0: 1}, moves).values())


def count_vesztergombi(n: int, k: int) -> Count:
    """Permutations pi of {1,...,n+k} with -k <= pi(i)-i <= n (n+k <= 14)."""
    _check_ints("dimensions must be ints", n, k)
    if n < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    m = n + k
    return _count_permutations(m, lambda i: range(max(1, i - k), min(m, i + n) + 1))


def count_excedance_word(r: int, s: int) -> Count:
    """Permutations of {1,...,r+s} whose first r-1 positions are excedances
    and positions r through r+s-1 are not (r+s <= 14).

    A position j is an excedance when pi(j) > j; the last position is free.
    """
    _check_ints("dimensions must be ints", r, s)
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    m = r + s
    # At j = m the non-excedance range 1..j is every value: the last position is free.
    return _count_permutations(m, lambda j: range(j + 1, m + 1) if j < r else range(1, j + 1))

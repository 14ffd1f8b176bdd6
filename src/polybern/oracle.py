"""Enumeration oracles for the combinatorial interpretations.

Every counter decides membership from the raw definition, independently
of the closed-form layer in exactcomb. The counters count states, not
objects: one forward tally keeps, per state, the number of paths reaching
it. A matrix grows one row at a time, a row kept only if it fits the
rows above it; each test reads those rows only as a set, which is the
state. Each property is closed under transpose, so rows are swept at
width min(n, k). A permutation is counted through its inverse: each value
in turn takes a free position that its oracle's predicate admits, and the
state is the mask of positions used (the bitmask permanent recurrence).
Each counter checks its sides and then n*k, n+k or r+s by exactcomb's rule.

The matrix counters share one sweep per row test and width, kept in one
table. It grows a row at a time as taller shapes ask for it, and every
shape of that width, and its transpose, reads the census of its height:
the matrices by (no zero row, no zero column), at most four ints, whose
sum is the plain count and each restricted count a part of it. A sweep
keeps its current layer until the guard height.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Collection, Hashable, Iterable, Mapping
from functools import reduce
from operator import ge, or_
from types import MappingProxyType

from .exactcomb import Count, _check_ints, _check_sizes, _shown

# One guard per sweep: the set sweep of matrices, the mask sweep of permutations.
MATRIX_GUARD = 30
PERMUTATION_GUARD = 14

# A matrix sweep's state is its set of distinct rows, each a bitmask; a row
# test decides from that set whether a new row fits below it.
Layer = dict[frozenset[int], Count]
RowTest = Callable[[frozenset[int], int], bool]
Census = Mapping[tuple[bool, bool], Count]


def _tally(layer: Mapping[Hashable, Count], move: Callable[[Hashable], Iterable[Hashable]]) -> dict[Hashable, Count]:
    # One step: each state `move` reaches from the layer's states, and the
    # number of paths, each weighted by its start state's count, reaching it.
    step: dict[Hashable, Count] = {}
    for state, ways in layer.items():
        for reached in move(state):
            step[reached] = step.get(reached, 0) + ways
    return step


def _census(layer: Layer, full: int) -> Census:
    # Matrices by (no zero row, no zero column), read-only since every
    # caller shares it. A column is zero iff the rows' union lacks it: Γ-free
    # and orientation rows are no chain, so their largest row need not be it.
    census: dict[tuple[bool, bool], Count] = {}
    for rows, ways in layer.items():
        flags = 0 not in rows, reduce(or_, rows, 0) == full
        census[flags] = census.get(flags, 0) + ways
    return MappingProxyType(census)


# One sweep per row test and width: three tests at widths 0 to 5, since no
# wider shape fits the guard. Each entry is [layer, censuses]: the sweep's
# current layer and, per height reached, that layer's census. At the guard
# height no shape reads further, so the layer is dropped there. The table
# takes about 0.42 MB after verify's criterion 1 and 0.14 MB once every shape
# is asked, and at most about 5.0 MB, with every sweep one row below its
# guard (tracemalloc). All growth holds the one lock, so each layer is built
# once even when threads ask for the same sweep.
_sweeps: dict[tuple[RowTest, int], list] = {}
_sweeps_lock = threading.Lock()


def _swept(n: int, k: int, fits: RowTest) -> Census:
    # The census of the n x k matrices whose rows each fit the rows above,
    # read from the sweep of max(n, k) rows of min(n, k) bits: the matrix
    # or its transpose, so the property must be closed under transpose and
    # for n < k the census's flags are the transpose's, (no zero column, no
    # zero row). `fits` must read the rows above only as a set, which is the
    # state.
    _check_sizes("dimensions must be ints", "n k", 0, MATRIX_GUARD, "enumeration guard", n, k)
    _check_sizes("dimensions must be ints", "n*k", 0, MATRIX_GUARD, "enumeration guard", n * k)
    width, height = min(n, k), max(n, k)
    rows = range(1 << width)
    with _sweeps_lock:
        if (fits, width) not in _sweeps:
            empty: Layer = {frozenset(): 1}
            _sweeps[fits, width] = [empty, [_census(empty, rows[-1])]]
        sweep = _sweeps[fits, width]
        censuses = sweep[1]
        while len(censuses) <= height:
            layer = _tally(sweep[0], lambda above: (above | {row} for row in rows if fits(above, row)))
            censuses.append(_census(layer, rows[-1]))
            sweep[0] = layer if len(censuses) <= MATRIX_GUARD // max(width, 1) else None
        return censuses[height]


def _comparable(rows: Collection[int], row: int) -> bool:
    # A column where only one row is set plus a column where only the other
    # is set give one of the two forbidden 2x2 patterns in one column order
    # or the other, so a row pair is safe iff either difference set is empty.
    for above in rows:
        if above & ~row and row & ~above:
            return False
    return True


def is_lonesum(rows: Iterable[int]) -> bool:
    """True iff no 2x2 submatrix equals (1,0 / 0,1) or (0,1 / 1,0).

    The matrix is given as its rows, each a bitmask of its set columns.
    """
    rows = list(rows)  # an iterator is read once, before the int check
    _check_ints("rows must be ints", *rows)
    rows = [int(r) for r in rows]  # a bool reads as its int; ~ on a bool is deprecated
    if any(r < 0 for r in rows):
        raise ValueError(f"rows must be nonnegative bitmasks, got {', '.join(map(_shown, rows))}")
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


def count_lonesum(n: int, k: int) -> Count:
    """Number of n x k lonesum matrices by exhaustive sweep (n*k, n, k <= 30)."""
    return sum(_swept(n, k, _comparable).values())


def count_lonesum_restricted(n: int, k: int, forbid_zero_rows: bool, forbid_zero_cols: bool) -> Count:
    """Lonesum count with all-zero rows and/or columns excluded (n*k, n, k <= 30).

    The flags are (1 - dn, 1 - dk) for a letter's pair (dn, dk) in
    exactcomb.SHIFTS, so a shift of 0 forbids all-zero lines on that side:
    rows for dn, columns for dk. (False, True) matches c_relative(n, k),
    (True, False) matches c_relative(k, n) and (True, True) matches
    ml_degree(n, k).
    """
    flags = forbid_zero_rows, forbid_zero_cols  # a bool, or 0 or 1 read as one
    if not all(isinstance(flag, int) and flag in (0, 1) for flag in flags):
        raise ValueError(f"flags must be bools, got {', '.join(map(_shown, flags))}")
    census = _swept(n, k, _comparable)
    forbid = flags if n >= k else flags[::-1]
    return sum(count for found, count in census.items() if all(map(ge, found, forbid)))


def count_gamma_free(n: int, k: int) -> Count:
    """Number of n x k matrices avoiding (1,1 / 1,0) and (1,1 / 1,1) (n*k, n, k <= 30)."""
    return sum(_swept(n, k, _gamma_free_below).values())


def count_acyclic_orientations(n: int, k: int) -> Count:
    """Acyclic orientations of the complete bipartite graph K(n,k) (n*k, n, k <= 30).

    Each added row is checked by a depth-first search for a directed cycle
    through its vertex, deliberately not by any forbidden submatrix or
    four-cycle criterion. Transposing reverses every edge, which keeps an
    orientation acyclic.
    """
    return sum(_swept(n, k, _acyclic_with).values())


def _count_permutations(m: int, fits: Callable[[int, int], bool]) -> Count:
    # Permutations pi of {1,...,m} with fits(j, pi(j)) at every position j,
    # counted through their inverses: each value in turn takes a free
    # position that fits it, so the state is the mask of positions used. A
    # position left free by the last value fitting it can never be filled,
    # so once value v + 1 is placed the states lacking a position of due[v] go.
    # Its callers check m against PERMUTATION_GUARD.
    places = [[j for j in range(1, m + 1) if fits(j, v)] for v in range(1, m + 1)]
    last = {j: v for v, at in enumerate(places) for j in at}
    due = [sum(1 << j for j, at in last.items() if at == v) for v in range(m)]
    layer: Mapping[Hashable, Count] = {0: 1}
    for at, must in zip(places, due):
        bits = [1 << j for j in at]
        layer = _tally(layer, lambda used: (used | b for b in bits if not used & b))
        if must:
            layer = {used: ways for used, ways in layer.items() if used & must == must}
    return sum(layer.values())


def count_vesztergombi(n: int, k: int) -> Count:
    """Permutations pi of {1,...,n+k} with -k <= pi(i)-i <= n (n+k <= 14)."""
    _check_sizes("dimensions must be ints", "n k", 0, PERMUTATION_GUARD, "enumeration guard", n, k)
    _check_sizes("dimensions must be ints", "n+k", 0, PERMUTATION_GUARD, "enumeration guard", n + k)
    return _count_permutations(n + k, lambda i, v: -k <= v - i <= n)


def count_excedance_word(r: int, s: int) -> Count:
    """Permutations of {1,...,r+s} whose first r-1 positions are excedances
    and positions r through r+s-1 are not (r >= 1, r+s <= 14).

    A position j is an excedance when pi(j) > j; the last position is free.
    """
    _check_sizes("dimensions must be ints", "r s", 0, PERMUTATION_GUARD, "enumeration guard", r, s)
    if r < 1:
        raise ValueError("need r >= 1")
    m = r + s
    _check_sizes("dimensions must be ints", "r+s", 0, PERMUTATION_GUARD, "enumeration guard", m)
    # Position m fits every value, but a non-excedance position j falls due at value j.
    return _count_permutations(m, lambda j, v: j == m or (v > j if j < r else v <= j))

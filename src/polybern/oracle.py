"""Exhaustive enumeration oracles for the combinatorial interpretations.

Every counter here sweeps the full object space under a hard size guard
and decides membership from the raw definition, independently of the
closed-form layer in exactcomb. Slow on purpose; ground truth only.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence

from .exactcomb import Count, GuardError

MATRIX_GUARD = 24
ORIENTATION_GUARD = 20
VESZTERGOMBI_GUARD = 9
EXCEDANCE_GUARD = 10


def is_lonesum(rows: Sequence[int]) -> bool:
    """True iff no 2x2 submatrix equals (1,0 / 0,1) or (0,1 / 1,0).

    The matrix is given as its rows, each a bitmask of its set columns.
    """
    # A column where only the upper row is set plus a column where only the
    # lower row is set give one of the two forbidden 2x2 patterns in one
    # column order or the other, so a row pair is safe iff either
    # difference set is empty.
    for x in range(len(rows) - 1):
        r1 = rows[x]
        for r2 in rows[x + 1:]:
            if r1 & ~r2 and r2 & ~r1:
                return False
    return True


def _rows_gamma_free(rows: Sequence[int]) -> bool:
    # Violation: entries (i,j), (i,j'), (i',j) all 1 with i<i', j<j'.
    # For a row pair, take the lowest shared column j; any higher set bit
    # of the upper row completes the pattern.
    for x in range(len(rows) - 1):
        r1 = rows[x]
        for r2 in rows[x + 1:]:
            c = r1 & r2
            if c and r1 >> (c & -c).bit_length():
                return False
    return True


@functools.lru_cache(maxsize=None)
def _lonesum_census(n: int, k: int) -> dict[tuple[bool, bool], Count]:
    # One sweep counts lonesum matrices by (no zero row, no zero column).
    full = (1 << k) - 1
    census = dict.fromkeys(itertools.product((False, True), repeat=2), 0)
    for rows in itertools.product(range(1 << k), repeat=n):
        if not is_lonesum(rows):
            continue
        union = 0
        for r in rows:
            union |= r
        census[all(rows), union == full] += 1
    return census


def _check_matrix_guard(n: int, k: int, guard: int) -> None:
    if n < 0 or k < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if n * k > guard:
        raise GuardError(f"n*k={n * k} exceeds enumeration guard {guard}")


def count_lonesum(n: int, k: int) -> Count:
    """Number of n x k lonesum matrices by exhaustive sweep (n*k <= 24)."""
    _check_matrix_guard(n, k, MATRIX_GUARD)
    return sum(_lonesum_census(n, k).values())


def count_lonesum_restricted(n: int, k: int, forbid_zero_rows: bool, forbid_zero_cols: bool) -> Count:
    """Lonesum count with all-zero rows and/or columns excluded (n*k <= 24).

    (False, True) matches c_relative; (True, True) matches ml_degree.
    """
    _check_matrix_guard(n, k, MATRIX_GUARD)
    return sum(
        count
        for (rows_ok, cols_ok), count in _lonesum_census(n, k).items()
        if rows_ok >= forbid_zero_rows and cols_ok >= forbid_zero_cols
    )


def count_gamma_free(n: int, k: int) -> Count:
    """Number of n x k matrices avoiding (1,1 / 1,0) and (1,1 / 1,1) (n*k <= 24)."""
    _check_matrix_guard(n, k, MATRIX_GUARD)
    total = 0
    for rows in itertools.product(range(1 << k), repeat=n):
        if _rows_gamma_free(rows):
            total += 1
    return total


def count_acyclic_orientations(n: int, k: int) -> Count:
    """Acyclic orientations of the complete bipartite graph K(n,k) (n*k <= 20).

    Each orientation is checked by an iterative depth-first cycle search on
    the directed bipartite graph itself, deliberately not by any forbidden
    submatrix or four-cycle criterion.
    """
    _check_matrix_guard(n, k, ORIENTATION_GUARD)
    nv = n + k
    row_range = range(n)
    col_range = range(k)
    vertex_range = range(nv)
    total = 0
    for rows in itertools.product(range(1 << k), repeat=n):
        # bit j of row i set orients row i -> col j, otherwise col j -> row i
        adj: list[list[int]] = [None] * nv  # type: ignore[list-item]
        for i in row_range:
            out = []
            r = rows[i]
            while r:
                low = r & -r
                out.append(n + low.bit_length() - 1)
                r ^= low
            adj[i] = out
        for j in col_range:
            bit = 1 << j
            adj[n + j] = [i for i in row_range if not rows[i] & bit]
        color = bytearray(nv)  # 0 unseen, 1 on stack, 2 done
        acyclic = True
        for start in vertex_range:
            if color[start]:
                continue
            color[start] = 1
            stack = [(start, 0)]
            while stack:
                v, idx = stack[-1]
                out = adj[v]
                if idx < len(out):
                    stack[-1] = (v, idx + 1)
                    w = out[idx]
                    cw = color[w]
                    if cw == 1:
                        acyclic = False
                        break
                    if cw == 0:
                        color[w] = 1
                        stack.append((w, 0))
                else:
                    color[v] = 2
                    stack.pop()
            if not acyclic:
                break
        if acyclic:
            total += 1
    return total


def count_vesztergombi(n: int, k: int) -> Count:
    """Permutations pi of {1,...,n+k} with -k <= pi(i)-i <= n (n+k <= 9)."""
    if n < 0 or k < 0:
        raise ValueError("dimensions must be nonnegative")
    if n + k > VESZTERGOMBI_GUARD:
        raise GuardError(f"n+k={n + k} exceeds enumeration guard {VESZTERGOMBI_GUARD}")
    m = n + k
    total = 0
    for perm in itertools.permutations(range(1, m + 1)):
        if all(-k <= perm[i] - (i + 1) <= n for i in range(m)):
            total += 1
    return total


def count_excedance_word(r: int, s: int) -> Count:
    """Permutations of {1,...,r+s} whose first r-1 positions are excedances
    and positions r through r+s-1 are not (r+s <= 10).

    Counted by exhaustive backtracking over positions; a position j is an
    excedance when pi(j) > j.
    """
    if r < 1 or s < 0:
        raise ValueError("need r >= 1 and s >= 0")
    m = r + s
    if m > EXCEDANCE_GUARD:
        raise GuardError(f"r+s={m} exceeds enumeration guard {EXCEDANCE_GUARD}")

    def extend(pos: int, used: int) -> int:
        if pos > m:
            return 1
        total = 0
        for v in range(1, m + 1):
            bit = 1 << v
            if used & bit:
                continue
            if pos <= r - 1:
                if v <= pos:
                    continue
            elif pos <= m - 1:
                if v > pos:
                    continue
            total += extend(pos + 1, used | bit)
        return total

    return extend(1, 0)

"""Brute-force enumeration layer against the closed-form counts."""

import ast
import functools
import itertools
import operator
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polybern import oracle, verify
from polybern.exactcomb import GuardError, c_relative, ml_degree, poly_bernoulli
from polybern.oracle import (
    count_acyclic_orientations,
    count_excedance_word,
    count_gamma_free,
    count_lonesum,
    count_lonesum_restricted,
    count_vesztergombi,
    is_lonesum,
)


def from_rows(rows):
    # Each row as the bitmask of its set columns.
    return [sum(bit << j for j, bit in enumerate(row)) for row in rows]


def test_is_lonesum_accepts_staircase():
    m = from_rows([[1, 1, 0], [1, 0, 0], [1, 1, 1]])
    assert is_lonesum(m)


def test_is_lonesum_rejects_permutation_pattern():
    m = from_rows([[1, 0], [0, 1]])
    assert not is_lonesum(m)
    m = from_rows([[0, 1], [1, 0]])
    assert not is_lonesum(m)


def test_is_lonesum_all_zero_and_all_one():
    assert is_lonesum(from_rows([[0, 0], [0, 0]]))
    assert is_lonesum(from_rows([[1, 1], [1, 1]]))


def test_is_lonesum_nested_rows():
    assert is_lonesum(from_rows([[1, 1], [1, 0]]))


@pytest.mark.parametrize("rows,expected", [([0b11, 0b01], True), ([0b01, 0b10], False)], ids=["lonesum", "not"])
@pytest.mark.parametrize(
    "form", [list, tuple, iter, lambda rows: (row for row in rows)], ids=["list", "tuple", "iterator", "generator"]
)
def test_is_lonesum_reads_any_iterable_of_rows(rows, expected, form):
    # An iterator or generator is read once, so its rows reach the test.
    assert is_lonesum(form(rows)) is expected


@pytest.mark.parametrize("rows", [[-3, 5], [-1, 1], [0, -1], [True, -2]])
def test_is_lonesum_refuses_a_negative_row(rows):
    # A negative int has no bitmask of set columns: -1 would read as a row
    # of every column, comparable with any other row.
    with pytest.raises(ValueError, match="^rows must be nonnegative bitmasks, got "):
        is_lonesum(rows)


@pytest.mark.parametrize(
    "n,k", [(0, 0), (0, 3), (3, 0), (1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (4, 6), (6, 4)]
)
def test_lonesum_matches_closed_form(n, k):
    assert count_lonesum(n, k) == sum(oracle._swept(n, k, oracle._comparable).values()) == poly_bernoulli(n, k)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 3), (2, 4), (4, 3), (6, 4)])
def test_gamma_free_matches_closed_form(n, k):
    assert count_gamma_free(n, k) == poly_bernoulli(n, k)


def test_gamma_free_single_row_is_unconstrained():
    for k in range(9):
        assert count_gamma_free(1, k) == 2**k


@pytest.mark.parametrize("n,k", [(0, 0), (1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (4, 5), (5, 4)])
def test_acyclic_orientations_match_closed_form(n, k):
    assert count_acyclic_orientations(n, k) == poly_bernoulli(n, k)


@pytest.mark.parametrize(
    "n,k", [(0, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (5, 4)]
)
def test_vesztergombi_matches_closed_form(n, k):
    assert count_vesztergombi(n, k) == poly_bernoulli(n, k)


def test_restricted_census_matches_relatives():
    for n in range(5):
        for k in range(5):
            if n * k > 16:
                continue
            no_zero_cols = count_lonesum_restricted(
                n, k, forbid_zero_rows=False, forbid_zero_cols=True
            )
            assert no_zero_cols == c_relative(n, k)
            neither = count_lonesum_restricted(
                n, k, forbid_zero_rows=True, forbid_zero_cols=True
            )
            assert neither == ml_degree(n, k)


def test_restricted_rows_only_transposes():
    for n in range(5):
        for k in range(5):
            no_zero_rows = count_lonesum_restricted(
                n, k, forbid_zero_rows=True, forbid_zero_cols=False
            )
            assert no_zero_rows == c_relative(k, n)


def test_census_is_read_only():
    census = oracle._swept(2, 3, oracle._comparable)
    with pytest.raises(TypeError):
        census[True, True] = 0
    with pytest.raises(TypeError):
        del census[True, True]
    assert oracle._swept(2, 3, oracle._comparable)[True, True] == ml_degree(2, 3)


def record_layers(monkeypatch):
    # Wraps the sweep reader to note (row test, width, height) for each layer
    # a call builds, and empties the sweep table so that every layer is built
    # anew.
    built = []
    swept = oracle._swept

    def noted_swept(n, k, fits):
        key = fits, min(n, k)
        before = len(oracle._sweeps[key][1]) if key in oracle._sweeps else 1
        census = swept(n, k, fits)
        built.extend((fits.__name__, key[1], height) for height in range(before, len(oracle._sweeps[key][1])))
        return census

    monkeypatch.setattr(oracle, "_swept", noted_swept)
    oracle._sweeps.clear()
    return built


def test_census_sweeps_each_shape_once(monkeypatch):
    built = record_layers(monkeypatch)
    for n, k in [(3, 4), (3, 4), (4, 3)]:
        count_lonesum(n, k)
        count_lonesum_restricted(n, k, False, True)
        count_lonesum_restricted(n, k, True, True)
    assert built == [("_comparable", 3, height) for height in (1, 2, 3, 4)]


def test_a_width_grows_only_to_the_tallest_shape_asked(monkeypatch):
    built = record_layers(monkeypatch)
    assert count_gamma_free(3, 5) == poly_bernoulli(3, 5)
    assert built == [("_gamma_free_below", 3, height) for height in range(1, 6)]
    for n, k in [(5, 3), (3, 4), (2, 3), (3, 3), (3, 5)]:
        assert count_gamma_free(n, k) == poly_bernoulli(n, k)
    assert built[5:] == [("_gamma_free_below", 2, height) for height in (1, 2, 3)]
    assert count_gamma_free(6, 3) == poly_bernoulli(6, 3)
    assert built[-1] == ("_gamma_free_below", 3, 6)


def test_criterion_1_builds_each_layer_once(monkeypatch):
    built = record_layers(monkeypatch)
    assert verify.criterion_oracle_equivalence().passed
    grid = [(n, k) for n in range(17) for k in range(17) if n * k <= 16]
    tallest = {}
    for n, k in grid:
        tallest[min(n, k)] = max(tallest.get(min(n, k), 0), n, k)
    expected = [
        (test, width, height)
        for test in ("_comparable", "_gamma_free_below", "_acyclic_with")
        for width, top in tallest.items()
        for height in range(1, top + 1)
    ]
    assert sorted(built) == sorted(expected)
    # Asked again, in any order and transposed, the grid builds nothing.
    for n, k in reversed(grid):
        count_lonesum(k, n)
        count_gamma_free(k, n)
        count_acyclic_orientations(k, n)
    assert len(built) == len(expected)


def test_the_sweep_drops_its_layer_at_the_guard():
    oracle._sweeps.clear()
    count_acyclic_orientations(3, 9)
    sweep = oracle._sweeps[oracle._acyclic_with, 3]
    assert sweep[0] is not None
    assert count_acyclic_orientations(10, 3) == poly_bernoulli(10, 3)
    assert sweep[0] is None and len(sweep[1]) == 11


@pytest.mark.parametrize("count", [count_lonesum, lambda n, k: count_lonesum_restricted(n, k, True, True)])
def test_census_cache_refuses_what_the_sweep_refuses(count):
    # The sweep table is keyed by width and 1.0 hashes as 1, so the int
    # check must come before the sweep is looked up.
    count(1, 1)
    with pytest.raises(ValueError, match="dimensions must be ints"):
        count(1.0, 1)


@pytest.mark.parametrize(
    "r,s,expected",
    [
        (1, 0, 1),
        (1, 4, 1),
        (2, 1, 3),
        (2, 2, 7),
        (2, 3, 15),
        (2, 4, 31),
        (3, 1, 7),
        (3, 2, 31),
        (3, 3, 115),
        (3, 4, 391),
        (4, 1, 15),
        (4, 2, 115),
        (4, 3, 675),
    ],
)
def test_excedance_word_values(r, s, expected):
    assert count_excedance_word(r, s) == expected


def test_excedance_word_matches_c_relative():
    for r in range(1, 6):
        for s in range(5):
            assert count_excedance_word(r, s) == c_relative(r, s)


def test_all_non_excedance_forces_identity():
    for s in range(9):
        assert count_excedance_word(1, s) == 1


def test_matrix_guard():
    with pytest.raises(GuardError):
        count_lonesum(6, 6)
    with pytest.raises(GuardError):
        count_lonesum(4, 8)
    with pytest.raises(GuardError):
        count_gamma_free(31, 1)


@pytest.mark.parametrize(
    "count",
    [
        count_lonesum,
        count_gamma_free,
        count_acyclic_orientations,
        lambda n, k: count_lonesum_restricted(n, k, True, True),
    ],
)
@pytest.mark.parametrize("n,k", [(10**6, 0), (0, 10**6)])
def test_matrix_guard_bounds_each_side(count, n, k):
    # n*k = 0 here, but the row sweep would still be n rows deep.
    with pytest.raises(GuardError):
        count(n, k)


@pytest.mark.parametrize("n,k", [(4, 6), (6, 4), (5, 6), (6, 5)])
def test_restricted_census_at_guard_edge(n, k):
    assert count_lonesum_restricted(n, k, False, True) == c_relative(n, k)
    assert count_lonesum_restricted(n, k, True, False) == c_relative(k, n)
    assert count_lonesum_restricted(n, k, True, True) == ml_degree(n, k)


def test_excedance_word_at_guard_edge():
    for r in range(1, 15):
        assert count_excedance_word(r, 14 - r) == c_relative(r, 14 - r)


def test_orientation_guard():
    with pytest.raises(GuardError):
        count_acyclic_orientations(6, 6)
    with pytest.raises(GuardError):
        count_acyclic_orientations(1, 31)


def test_vesztergombi_guard():
    with pytest.raises(GuardError):
        count_vesztergombi(7, 8)
    # The guard is checked before any position's range is built.
    with pytest.raises(GuardError, match="^n=1000000000000 exceeds enumeration guard 14$"):
        count_vesztergombi(10**12, 0)


def test_excedance_guard():
    with pytest.raises(GuardError):
        count_excedance_word(8, 7)
    with pytest.raises(GuardError, match="permutation length 1000000000000 exceeds"):
        count_excedance_word(1, 10**12 - 1)


SMALL_SHAPES = [(n, k) for n in range(13) for k in range(13) if n * k <= 12]


# Each matrix counter with its sweep's row test.
SWEEPS = [
    (count_lonesum, oracle._comparable),
    (count_gamma_free, oracle._gamma_free_below),
    (count_acyclic_orientations, oracle._acyclic_with),
]


@functools.cache
def plain_counts(n, k):
    # Every n x k matrix, untransposed, filtered by each property's prefix
    # test (lonesum's agreeing with is_lonesum) and tallied, as the sweeps
    # are, by (no zero row, no zero column): one census per entry of SWEEPS.
    full = (1 << k) - 1
    censuses = [Counter() for _ in SWEEPS]
    for rows in itertools.product(range(1 << k), repeat=n):
        flags = all(rows), functools.reduce(operator.or_, rows, 0) == full
        kept = [all(fits(rows[:i], rows[i]) for i in range(n)) for _, fits in SWEEPS]
        assert kept[0] == is_lonesum(rows), rows
        for census, fit in zip(censuses, kept):
            if fit:
                census[flags] += 1
    return censuses


def as_asked(census, n, k):
    # A sweep's census of an n x k shape with its flags in the shape's own
    # order: for n < k the sweep holds the transpose, whose flags are swapped.
    return {flags if n >= k else flags[::-1]: ways for flags, ways in census.items()}


def assert_counters_enumerate(n, k):
    for (count, fits), plain in zip(SWEEPS, plain_counts(n, k)):
        assert as_asked(oracle._swept(n, k, fits), n, k) == plain, fits.__name__
        assert count(n, k) == sum(plain.values()), fits.__name__
    lonesum = plain_counts(n, k)[0]
    for forbid in itertools.product((False, True), repeat=2):
        kept = [count for flags, count in lonesum.items() if all(map(operator.ge, flags, forbid))]
        assert count_lonesum_restricted(n, k, *forbid) == sum(kept)


@pytest.mark.parametrize("n,k", SMALL_SHAPES)
def test_set_sweep_matches_plain_enumeration(n, k):
    # The counters sweep the narrower side, so shapes with n < k check the
    # transposed sweep against this enumeration.
    assert_counters_enumerate(n, k)


def test_every_census_gives_the_relatives_inside_the_guard():
    # Each property is closed under transpose and, like lonesum, counted by
    # B, so each census parts into C(n, k) matrices with no zero column,
    # C(k, n) with no zero row and D(n, k) with neither.
    shapes = [(n, k) for n in range(31) for k in range(31) if max(n, k, n * k) <= oracle.MATRIX_GUARD]
    assert len(shapes) == 172
    for _, fits in SWEEPS:
        for n, k in shapes:
            census = as_asked(oracle._swept(n, k, fits), n, k)
            parts = [sum(ways for flags, ways in census.items() if flags[i]) for i in (1, 0)]
            expected = c_relative(n, k), c_relative(k, n), ml_degree(n, k)
            assert (*parts, census.get((True, True), 0)) == expected, (fits.__name__, n, k)
    # The table is bounded as the shapes are: one sweep per row test at
    # widths 0 to 5, each asked up to its guard height and so without a layer.
    assert len(oracle._sweeps) == 18
    assert set(oracle._sweeps) == {(fits, width) for _, fits in SWEEPS for width in range(6)}
    assert all(layer is None for layer, _ in oracle._sweeps.values())


ORDERS = {
    "as drawn": lambda shapes: shapes,
    "ascending": lambda shapes: sorted(shapes, key=lambda shape: (min(shape), max(shape))),
    "descending": lambda shapes: sorted(shapes, key=lambda shape: (min(shape), max(shape)), reverse=True),
    "transposed first": lambda shapes: [(k, n) for n, k in shapes] + shapes,
}


@settings(deadline=None, max_examples=60)
@given(st.lists(st.sampled_from(SMALL_SHAPES), min_size=1, max_size=12), st.sampled_from(sorted(ORDERS)))
def test_request_order_does_not_matter(shapes, order):
    # Each draw starts from empty sweeps, so a layer built for one shape
    # is read by the shapes after it in the drawn order.
    oracle._sweeps.clear()
    for n, k in ORDERS[order](shapes):
        assert_counters_enumerate(n, k)


def test_threads_sharing_the_sweeps_read_the_same_counts():
    # Each thread asks for the same shapes in its own order while the
    # interpreter switches threads as often as it can.
    shapes = [shape for shape in SMALL_SHAPES if min(shape) >= 2] + [(5, 6), (6, 5), (3, 10)]
    expected = {shape: poly_bernoulli(*shape) for shape in shapes}
    failures = []

    def ask(seed):
        order = shapes.copy()
        random.Random(seed).shuffle(order)
        try:
            for n, k in order:
                got = (count_lonesum(n, k), count_gamma_free(n, k), count_acyclic_orientations(n, k))
                if got != (expected[n, k],) * 3:
                    failures.append((n, k, got))
        except Exception as exc:  # reported below, in the test's own thread
            failures.append(exc)

    oracle._sweeps.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


@pytest.mark.parametrize("m", range(8))
def test_permutation_sweep_matches_plain_enumeration(m):
    # Every permutation of {1,...,m}, filtered by each oracle's raw
    # definition; pi[0] pads the tuple so that pi[i] is pi(i).
    perms = [(0, *pi) for pi in itertools.permutations(range(1, m + 1))]
    for n in range(m + 1):
        k = m - n
        displaced = sum(all(-k <= pi[i] - i <= n for i in range(1, m + 1)) for pi in perms)
        assert count_vesztergombi(n, k) == displaced
    for r in range(1, m + 1):
        # Positions 1..r-1 are excedances, r..m-1 are not, m is free (s = 0 included).
        word = sum(
            all(pi[j] > j for j in range(1, r)) and all(pi[j] <= j for j in range(r, m))
            for pi in perms
        )
        assert count_excedance_word(r, m - r) == word


def test_the_permutation_sweep_drops_states_that_cannot_finish(monkeypatch):
    # A state that leaves a position free once no later value fits it is
    # dropped there, so (10, 4) expands 3366 states, not the 16277 of the
    # unpruned sweep, and the count is unchanged.
    expanded = []
    tally = oracle._tally
    monkeypatch.setattr(oracle, "_tally", lambda layer, move: expanded.append(len(layer)) or tally(layer, move))
    assert count_vesztergombi(10, 4) == poly_bernoulli(10, 4)
    assert sum(expanded) == 3366


def test_the_excedance_sweep_drops_states_before_its_last_value(monkeypatch):
    # A non-excedance position j takes a value of at most j, so states fall
    # due from value r on, not only once the free last position is: (7, 7)
    # expands 6434 states, not the 14002 of a sweep pruned at the end alone.
    expanded = []
    tally = oracle._tally
    monkeypatch.setattr(oracle, "_tally", lambda layer, move: expanded.append(len(layer)) or tally(layer, move))
    assert count_excedance_word(7, 7) == c_relative(7, 7)
    assert sum(expanded) == 6434


def test_thin_shapes_cost_states_not_matrices():
    # Every row of one column fits; a single row has nothing above it.
    assert count_lonesum(24, 1) == 2**24
    assert count_lonesum(1, 30) == 2**30
    assert count_gamma_free(30, 1) == 2**30
    assert count_acyclic_orientations(1, 30) == 2**30
    assert count_acyclic_orientations(30, 1) == 2**30


def test_oracle_takes_only_count_and_guard_from_exactcomb():
    # The oracles must decide membership independently of the formula layer;
    # the shared int and size checks compute no count.
    taken = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").endswith("exactcomb"):
                taken.update(alias.name for alias in node.names)
            else:
                taken.update(alias.name for alias in node.names if alias.name == "exactcomb")
        elif isinstance(node, ast.Import):
            taken.update(alias.name for alias in node.names if alias.name.endswith("exactcomb"))
    assert taken == {"Count", "GuardError", "_check_ints", "_check_sizes"}

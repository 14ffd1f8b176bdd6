"""Exact integer layer: closed-form counts, identities, and guards."""

import ast
import math
import random
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import pytest

from polybern import cli, exactcomb, saddle, verify
from polybern.exactcomb import (
    GuardError,
    c_relative,
    log_of_count,
    ml_degree,
    ml_degree_inclusion_exclusion,
    poly_bernoulli,
    stirling2,
    stirling2_explicit,
)


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (0, 0, 1),
        (0, 7, 1),
        (7, 0, 1),
        (1, 1, 2),
        (2, 2, 14),
        (3, 3, 230),
        (4, 4, 6902),
        (5, 5, 329462),
        (2, 3, 46),
        (3, 2, 46),
        (1, 5, 32),
        (5, 2, 454),
    ],
)
def test_poly_bernoulli_values(n, k, expected):
    assert poly_bernoulli(n, k) == expected


@pytest.mark.parametrize(
    "n,k,expected",
    [(0, 0, 1), (1, 1, 1), (2, 2, 5), (3, 3, 73), (4, 4, 2069), (2, 3, 13)],
)
def test_ml_degree_values(n, k, expected):
    assert ml_degree(n, k) == expected


@pytest.mark.parametrize(
    "n,k,expected",
    [(0, 0, 1), (1, 2, 1), (2, 1, 3), (2, 2, 7), (3, 2, 31), (4, 3, 675)],
)
def test_c_relative_values(n, k, expected):
    assert c_relative(n, k) == expected


def test_c_relative_not_symmetric():
    assert c_relative(1, 2) != c_relative(2, 1)


def test_single_row_reductions():
    for k in range(11):
        assert poly_bernoulli(1, k) == 2**k
    for k in range(1, 11):
        assert ml_degree(1, k) == 1
    assert ml_degree(1, 0) == 0


def test_c_relative_empty_column_set():
    for n in range(11):
        assert c_relative(n, 0) == 1


@pytest.mark.parametrize("n,k,expected", [(0, 0, 1), (4, 2, 7), (5, 3, 25), (6, 3, 90)])
def test_stirling2_values(n, k, expected):
    assert stirling2(n, k) == expected


def test_stirling2_out_of_triangle():
    assert stirling2(3, 5) == 0
    assert stirling2(5, 0) == 0
    assert stirling2(0, 0) == 1


def test_stirling2_explicit_agrees_on_triangle():
    for n in range(41):
        for k in range(n + 1):
            assert stirling2_explicit(n, k) == stirling2(n, k)


def test_symmetry_b_and_d():
    for n in range(31):
        for k in range(n, 31):
            assert poly_bernoulli(n, k) == poly_bernoulli(k, n)
            assert ml_degree(n, k) == ml_degree(k, n)


def test_inclusion_exclusion_agrees():
    for n in range(16):
        for k in range(16):
            assert ml_degree_inclusion_exclusion(n, k) == ml_degree(n, k)


def mutant_shifted_sum(weight=lambda m: (m + 1) * (m + 1), slip=lambda m: 0):
    # A stand-in for exactcomb._shifted_sum: its nested sum, with weight(m)
    # in place of the (m+1)^2 per step and slip(m) added to term m.
    def shifted_sum(n, k, shift):
        dn, dk = shift
        low = min(n, k)
        top = exactcomb._stirling_row(n + dn, low + 1 + dn)
        side = exactcomb._stirling_row(k + dk, low + 1 + dk)
        total = 0
        for m in range(low, -1, -1):
            total = total * weight(m) + top[m + dn] * side[m + dk] + slip(m)
        return total

    return shifted_sum


# The nested sum with (m+1)(m+2) in place of (m+1)^2 per step.
misweighted_shifted_sum = mutant_shifted_sum(weight=lambda m: (m + 1) * (m + 2))


def test_inclusion_exclusion_catches_a_wrong_weight(monkeypatch):
    # The weight would cancel if B came from the same nested sum as D; the
    # inclusion-exclusion reads B by rows from Kaneko's form, which has none.
    monkeypatch.setattr(exactcomb, "_shifted_sum", misweighted_shifted_sum)
    for n in range(1, 8):
        for k in range(1, 8):
            assert ml_degree_inclusion_exclusion(n, k) != ml_degree(n, k), (n, k)


@pytest.fixture
def fresh_b_rows():
    # Empties the inclusion-exclusion's row cache before and after, so a
    # warm cache neither hides a patched _shifted_row nor keeps its rows.
    exactcomb._b_row.cache_clear()
    yield
    exactcomb._b_row.cache_clear()


def test_criterion_2_builds_each_row_once(monkeypatch, fresh_b_rows):
    calls = []
    shifted_row = exactcomb._shifted_row

    def counted(*args):
        calls.append(args)
        return shifted_row(*args)

    monkeypatch.setattr(exactcomb, "_shifted_row", counted)
    assert verify.criterion_formula_identities().passed
    assert sorted(calls) == [(j, exactcomb.IE_GUARD, (1, 1)) for j in range(16)]


def test_b_row_is_a_shared_tuple(fresh_b_rows):
    row = exactcomb._b_row(5)
    assert row == tuple(poly_bernoulli(5, k) for k in range(exactcomb.IE_GUARD + 1))
    assert exactcomb._b_row(5) is row


def test_inclusion_exclusion_sees_a_wrong_row(monkeypatch, fresh_b_rows):
    # Each row read one index too far down: B(j+1, .) in place of B(j, .).
    shifted_row = exactcomb._shifted_row
    monkeypatch.setattr(exactcomb, "_shifted_row", lambda n, top, shift: shifted_row(n + 1, top, shift))
    for n in range(8):
        for k in range(1, 8):
            assert ml_degree_inclusion_exclusion(n, k) != ml_degree(n, k), (n, k)


@pytest.mark.parametrize(
    "comb, message",
    [
        (lambda m, j: -math.comb(m, j) if j == 0 else math.comb(m, j), "alternating sum for S(5,3) came out negative"),
        (lambda m, j: math.comb(m, j) + (j == 1), "alternating sum for S(5,3) not divisible by 3!"),
    ],
)
def test_a_wrong_alternating_sum_raises(monkeypatch, comb, message):
    # exactcomb's math module with a wrong binomial coefficient
    monkeypatch.setattr(exactcomb, "math", types.SimpleNamespace(**{**vars(math), "comb": comb}))
    with pytest.raises(ArithmeticError) as error:
        stirling2_explicit(5, 3)
    assert type(error.value) is ArithmeticError
    assert str(error.value).startswith(message)


def test_a_negative_inclusion_exclusion_raises(monkeypatch):
    b_row = exactcomb._b_row
    monkeypatch.setattr(exactcomb, "_b_row", lambda n: tuple(-b for b in b_row(n)) if n == 2 else b_row(n))
    with pytest.raises(ArithmeticError) as error:
        ml_degree_inclusion_exclusion(2, 2)
    assert type(error.value) is ArithmeticError
    assert str(error.value).startswith("inclusion-exclusion for D(2,2) came out negative")


def test_row_inclusion_exclusion_ties_c_to_d():
    for n in range(11):
        for k in range(11):
            total = sum(
                (-1) ** i * math.comb(n, i) * c_relative(n - i, k) for i in range(n + 1)
            )
            assert total == ml_degree(n, k)


def test_diagonal_square_sum():
    for k in range(41):
        expected = sum(
            (math.factorial(m) * stirling2(k + 1, m + 1)) ** 2 for m in range(k + 1)
        )
        assert poly_bernoulli(k, k) == expected


def test_monotone_in_each_argument():
    for n in range(12):
        for k in range(12):
            assert poly_bernoulli(n + 1, k) >= poly_bernoulli(n, k)
            assert poly_bernoulli(n, k + 1) >= poly_bernoulli(n, k)


def test_results_are_python_ints():
    assert isinstance(poly_bernoulli(25, 25), int)
    assert poly_bernoulli(25, 25).bit_length() > 64


def test_log_of_count_small():
    assert log_of_count(1) == 0.0
    assert log_of_count(230) == pytest.approx(math.log(230), rel=1e-15)


def test_log_of_count_power_of_two():
    assert log_of_count(2**200) == pytest.approx(200 * math.log(2.0), rel=1e-15)


def test_log_of_count_huge():
    value = poly_bernoulli(100, 100)
    logged = log_of_count(value)
    head = value >> (value.bit_length() - 53)
    reference = math.log(head) + (value.bit_length() - 53) * math.log(2.0)
    assert logged == pytest.approx(reference, rel=1e-15)
    assert logged > 709.8
    with pytest.raises(OverflowError):
        float(value)


def test_log_of_count_is_the_two_branch_formula_bit_for_bit():
    # The float log of a count of at most 53 bits, else the log of its
    # 53-bit head plus shift * log 2, at every width to 600 bits and on
    # both sides of each power of two.
    for b in range(1, 601):
        for c in (2**b - 1, 2**b, 2**b + 1):
            nb = c.bit_length()
            if nb <= 53:
                expected = math.log(c)
            else:
                expected = math.log(c >> (nb - 53)) + (nb - 53) * math.log(2.0)
            assert log_of_count(c).hex() == expected.hex(), c


def test_guard_trip_leaves_rows_unchanged(monkeypatch):
    rows = exactcomb._rows
    size = len(rows)
    monkeypatch.setattr(exactcomb, "TABLE_GUARD", size + 3)
    with pytest.raises(GuardError, match="exceeds table bound"):
        stirling2(size + 4, 1)
    assert exactcomb._rows is rows
    assert len(rows) == size


def test_table_guard_bounds_the_callers_indices():
    # B(n, k) and C(n, k) read row n + 1; n = TABLE_GUARD is still in range.
    bound = exactcomb.TABLE_GUARD
    assert bound == 512
    assert poly_bernoulli(bound, 3) == poly_bernoulli(3, bound)
    expected = sum((-1) ** j * math.comb(3, j) * poly_bernoulli(bound, 3 - j) for j in range(4))
    assert c_relative(bound, 3) == expected


def test_table_guard_holds_once_rows_exist(monkeypatch):
    assert poly_bernoulli(200, 0) == 1
    monkeypatch.setattr(exactcomb, "TABLE_GUARD", 100)
    with pytest.raises(GuardError, match="^n=150 exceeds table bound 100$"):
        poly_bernoulli(150, 0)
    with pytest.raises(GuardError, match="^k=150 exceeds table bound 100$"):
        ml_degree(0, 150)
    with pytest.raises(GuardError, match="^n=150 exceeds table bound 100$"):
        stirling2(150, 3)


def test_table_guard_ignores_the_environment(monkeypatch):
    # The bound is a constant: no environment variable lowers or raises it.
    monkeypatch.setenv("POLYBERN_MAX_N", "100")
    assert poly_bernoulli(150, 0) == 1
    with pytest.raises(GuardError, match="exceeds table bound 512"):
        poly_bernoulli(513, 0)


def test_the_family_is_one_shift_table():
    assert exactcomb.SHIFTS == {"B": (1, 1), "C": (1, 0), "D": (0, 0)}
    assert exactcomb.POLY_BERNOULLI_GF is exactcomb.SHIFTS["B"]
    assert exactcomb.ML_DEGREE_GF is exactcomb.SHIFTS["D"]
    assert saddle.POLY_BERNOULLI_GF is exactcomb.POLY_BERNOULLI_GF
    assert saddle.ML_DEGREE_GF is exactcomb.ML_DEGREE_GF


@pytest.mark.parametrize("letter,fn", [("B", poly_bernoulli), ("C", c_relative), ("D", ml_degree)])
def test_each_public_count_is_its_shift_pair(letter, fn):
    # The wrappers read their pairs from SHIFTS; pin the letter each one reads.
    for n, k in ((0, 0), (0, 5), (5, 0), (3, 7), (7, 3), (12, 12)):
        assert fn(n, k) == exactcomb._shifted_sum(n, k, exactcomb.SHIFTS[letter])


def _pairs_spelled(source):
    # Lines where source spells a shift pair: a two-element tuple or list of
    # the int literals 0 and 1, or a call whose last two positional arguments
    # are such literals. The values of the SHIFTS dict and the right side of
    # a membership test, as in `d in (0, 1)`, are not pairs.
    tree = ast.parse(source)
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            if any(getattr(target, "id", None) == "SHIFTS" for target in node.targets):
                exempt.update(map(id, node.value.values))
        elif isinstance(node, ast.Compare):
            ops = zip(node.ops, node.comparators)
            exempt.update(id(right) for op, right in ops if isinstance(op, (ast.In, ast.NotIn)))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) == 2 and id(node) not in exempt:
            pair = node.elts
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            pair = node.args[-2:]
        else:
            continue
        if all(isinstance(elt, ast.Constant) and type(elt.value) is int and elt.value in (0, 1) for elt in pair):
            found.append(node.lineno)
    return found


def test_the_pair_pin_sees_each_spelling():
    source = 'f(n, k, 1, 0)\nx = [0, 1]\ny = (1, 1)\nSHIFTS = {"D": (0, 0)}\nd in (0, 1)\ng(n, False, True)\n'
    assert _pairs_spelled(source) == [1, 2, 3]


@pytest.mark.parametrize(
    "path", sorted(Path(exactcomb.__file__).parent.glob("*.py")), ids=lambda path: path.stem
)
def test_only_exactcomb_spells_a_shift_pair(path):
    # Every B, C or D computation reads its pair from exactcomb.SHIFTS; a
    # pair spelled anywhere else states the family a second time.
    assert _pairs_spelled(path.read_text()) == []


def test_only_exactcomb_spells_a_family_subset():
    # A tuple, list or set holding two or more letters of SHIFTS restates
    # which sequences a layer takes; every other module reads SHIFTS.
    letters = set(exactcomb.SHIFTS)
    found = []
    for path in sorted(Path(exactcomb.__file__).parent.glob("*.py")):
        if path.name == "exactcomb.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                named = [elt for elt in node.elts if isinstance(elt, ast.Constant) and elt.value in letters]
                if len(named) >= 2:
                    found.append((path.name, node.lineno))
    assert found == []


def _names_spelled(module):
    # (name, line) for every identifier and string a module's source writes:
    # names, attributes, imported names and string constants
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)


@pytest.mark.parametrize(
    "module,counts", [(cli, {"c_relative", "ml_degree"}), (verify, set())], ids=["cli", "verify"]
)
def test_only_exactcomb_wires_a_sequence_to_its_estimator(module, counts):
    # exactcomb.FAMILY pairs each letter with its exact count and the name of
    # its estimator; the CLI and verify read the pairing there, and the CLI
    # reaches C and D through it alone.
    estimators = {"bivar_asym_log", "excedance_asym_log", "ml_asym_log"}
    assert {name for _, name in exactcomb.FAMILY.values()} == estimators
    assert [(name, line) for name, line in _names_spelled(module) if name in estimators | counts] == []


@pytest.mark.parametrize("shift", [(1, 1), (1, 0), (0, 0)], ids=["B", "C", "D"])
def test_shifted_row_equals_shifted_sum(shift):
    for n in range(41):
        expected = [exactcomb._shifted_sum(n, k, shift) for k in range(61)]
        assert exactcomb._shifted_row(n, 60, shift) == expected


@pytest.mark.parametrize("fn,shift", [(poly_bernoulli, (1, 1)), (ml_degree, (0, 0))], ids=["B", "D"])
def test_shifted_row_at_the_lclt_corner(fn, shift):
    # lclt_rows reads rows up to n = 200 with k up to 400.
    row = exactcomb._shifted_row(200, 400, shift)
    assert len(row) == 401
    for k in (0, 1, 199, 200, 201, 399, 400):
        assert row[k] == fn(200, k)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30])
def test_shifted_row_b_has_kanekos_coefficients(n):
    # B(n,k) = sum_j c_j (j+1)^k; the values at k = 0..n fix the n+1
    # coefficients c_j (a Vandermonde system in the distinct bases j+1).
    coefficients = [
        (-1) ** (n + j) * math.factorial(j) * stirling2_explicit(n, j) for j in range(n + 1)
    ]
    expected = [sum(c * (j + 1) ** k for j, c in enumerate(coefficients)) for k in range(n + 1)]
    assert exactcomb._shifted_row(n, n, (1, 1)) == expected


@pytest.mark.parametrize("delta", [0, 1])
def test_u_row_is_factorials_times_a_stirling_row(delta):
    for n in [*range(41), 255, 511]:
        expected = [math.factorial(m) * stirling2(n + delta, m + delta) for m in range(n + 1)]
        assert exactcomb._u_row(n, delta) == expected


def test_u_row_reaches_the_top_of_the_triangle():
    # u_1(512) reads row 513, the last the table guard lets B(512, k) read.
    row = exactcomb._u_row(512, 1)
    assert len(row) == 513
    assert row[-1] == math.factorial(512)


def _forward_shifted_sum(n, k, shift):
    # The sum term by term from m = 0 up, carrying the weight (m!)^2. The
    # rows come through the triangle's accessor, which derives every row
    # the stride does not keep, from row 129 up; stirling2 cannot stand in,
    # as row 513 is past its guard.
    dn, dk = shift
    width = min(n, k) + 1
    top = exactcomb._stirling_row(n + dn, width + dn)
    side = exactcomb._stirling_row(k + dk, width + dk)
    total = 0
    square = 1
    for m in range(width):
        total += square * top[m + dn] * side[m + dk]
        square *= (m + 1) * (m + 1)
    return total


@pytest.mark.parametrize("shift", [(1, 1), (1, 0), (0, 0)], ids=["B", "C", "D"])
@pytest.mark.parametrize("n,k", [(512, 512), (512, 0), (0, 512), (511, 256), (300, 511), (1, 1)])
def test_nested_sum_equals_the_forward_sum(n, k, shift):
    assert exactcomb._shifted_sum(n, k, shift) == _forward_shifted_sum(n, k, shift)


def _plain_rows(top):
    # S(r, 0..r) for r = 0..top by the plain recurrence, one row at a time.
    row = [1]
    yield row
    for r in range(1, top + 1):
        row = [0] + [m * row[m] + row[m - 1] for m in range(1, r)] + [1]
        yield row


def _stride(r):
    # The table keeps row r when r % _stride(r) == 0: the stride doubles
    # each time the row doubles past 128.
    return 1 if r <= 128 else 2 if r <= 256 else 4 if r <= 512 else 8


def _assert_the_stride_rule_keeps_the_rows():
    rows = exactcomb._rows
    assert all((row is None) == bool(r % _stride(r)) for r, row in enumerate(rows))


def test_the_triangle_keeps_the_rows_its_stride_divides(monkeypatch):
    # Growth to 301 ends on a row it does not keep; growth on to 513 starts
    # from the kept row 300 below it.
    monkeypatch.setattr(exactcomb, "_rows", [[1]])
    tracemalloc.start()
    try:
        exactcomb._stirling_row(301, 1)
        assert len(exactcomb._rows) == 302
        _assert_the_stride_rule_keeps_the_rows()
        exactcomb._stirling_row(513, 1)
        table_bytes = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(exactcomb._rows) == 514
    _assert_the_stride_rule_keeps_the_rows()
    # 7.52 MiB measured; 8.96 MiB with every row to 256 and one in four
    # above, 14.4 MiB with every even row above 256, 25.4 MiB with every row.
    assert table_bytes < 8 * 2**20
    for n in (128, 129, 130, 131, 256, 257, 258, 259, 260, 301, 511, 512):
        for m in (0, 1, 2, n // 4, n // 2, n - 1, n):
            assert stirling2(n, m) == stirling2_explicit(n, m), (n, m)
    # u_delta(n) reads row n + delta, derived from the kept row below
    # wherever it is not kept.
    for r, row in enumerate(_plain_rows(513)):
        if r > 128:
            for delta in (0, 1):
                n = r - delta
                if n <= exactcomb.TABLE_GUARD:
                    expected = [math.factorial(m) * row[m + delta] for m in range(n + 1)]
                    assert exactcomb._u_row(n, delta) == expected, (n, delta)


def _logged_steps(monkeypatch):
    # Logs each recurrence step by the length of the row it starts from and
    # the width it is asked for.
    steps = []
    step = exactcomb._step

    def logged(prev, width):
        steps.append((len(prev), width))
        return step(prev, width)

    monkeypatch.setattr(exactcomb, "_step", logged)
    return steps


def test_a_read_takes_its_distance_from_the_kept_row_in_steps_at_its_width(monkeypatch):
    # A row the table does not keep is r % _stride(r) steps from the kept
    # row below, each as wide as the reader asks; a kept row takes none and
    # is the table's own list, not a copy.
    monkeypatch.setattr(exactcomb, "_rows", [[1]])
    exactcomb._stirling_row(513, 1)
    steps = _logged_steps(monkeypatch)
    for r, expected in enumerate(_plain_rows(513)):
        for width in (1, r // 2, r + 1):
            steps.clear()
            row = exactcomb._stirling_row(r, width)
            assert len(steps) == r % _stride(r), (r, width)
            assert all(asked == width for _, asked in steps), (r, width)
            assert row[:width] == expected[:width], (r, width)
            if r % _stride(r) == 0:
                assert row is exactcomb._rows[r], (r, width)


def test_a_diagonal_sum_reads_its_one_row_once(monkeypatch):
    # B(510, 510) reads row 511, 512 wide, for both sides: three steps from
    # row 508, not six.
    monkeypatch.setattr(exactcomb, "_rows", [[1]])
    exactcomb._stirling_row(513, 1)
    steps = _logged_steps(monkeypatch)
    value = poly_bernoulli(510, 510)
    assert steps == [(509, 512), (510, 512), (511, 512)]
    assert value == _forward_shifted_sum(510, 510, (1, 1))


def test_growth_computes_each_row_once(monkeypatch):
    # Growth from row 0 to the odd row 301 takes one recurrence step per
    # row, 301 in all, and the read returns the top row it grew instead of
    # deriving it again from the row below. Each step is logged by the
    # length of the row it starts from.
    steps = []
    step = exactcomb._step

    def counted(prev, width):
        steps.append(len(prev))
        return step(prev, width)

    monkeypatch.setattr(exactcomb, "_step", counted)
    monkeypatch.setattr(exactcomb, "_rows", [[1]])
    row = exactcomb._stirling_row(301, 1)
    assert steps == list(range(1, 302))
    assert row[:3] == [0, 1, 2**300 - 1]


@pytest.mark.parametrize("top", [511, 512])
def test_arakawa_kaneko_alternating_sum_vanishes_at_the_guard(top):
    # sum_l (-1)^l B(N-l, l) = 0 for N >= 1 (Arakawa and Kaneko). The terms
    # read rows 1..N+1 of both parities.
    assert _alternating_sum(top) == 0


def _alternating_sum(top):
    return sum((-1) ** ell * poly_bernoulli(top - ell, ell) for ell in range(top + 1))


def _one_too_large_above_40(n, k, shift, shifted_sum=exactcomb._shifted_sum):
    return shifted_sum(n, k, shift) + (min(n, k) > 40)


# B, C and D one too large wherever min(n, k) > 40, or each term of the sum
# with m > 40 one too large: every identity of criterion 2 except its Fermat
# congruences at p = 131 reads n, k <= 40, so only those see either.
mutants_past_criterion_2 = pytest.mark.parametrize(
    "mutant",
    [_one_too_large_above_40, mutant_shifted_sum(slip=lambda m: m > 40)],
    ids=["value-above-40", "term-above-40"],
)


@mutants_past_criterion_2
def test_the_alternating_sum_sees_an_error_past_criterion_2(monkeypatch, mutant):
    # N = 512, since the sum pairs l with N - l, and for an odd N the two
    # terms have opposite signs, so the added ones cancel.
    monkeypatch.setattr(exactcomb, "_shifted_sum", mutant)
    assert _alternating_sum(512) != 0


def _fermat_congruences_hold():
    # For a prime p, S(p, m) = 0 (mod p) for 1 < m < p, so only the m = 0
    # and m = 1 terms of the sums survive: B(p, k) = 2^k, C(p, k) = 1 and
    # D(p, k) = [k >= 1] (mod p) for k = 0..p (Brewbaker 2008 for B). The
    # primes put p and p + 1 on both sides of rows 128 and 256. B at 509
    # reads row 510 and, at every third k, rows k + 1 of each residue mod 4
    # up to 508: with every k there this test took 0.9-1.2 s, against 0.6 s
    # (Python 3.11, x86-64). Stops at the first miss.
    return all(
        poly_bernoulli(p, k) % p == pow(2, k, p) and c_relative(p, k) % p == 1 and ml_degree(p, k) % p == (k >= 1)
        for p in (127, 131, 251, 257)
        for k in range(p + 1)
    ) and all(poly_bernoulli(509, k) % 509 == pow(2, k, 509) for k in range(0, 510, 3))


def test_fermat_congruences_hold_in_every_stride_band():
    assert _fermat_congruences_hold()


@mutants_past_criterion_2
def test_the_fermat_congruences_see_an_error_past_criterion_2(monkeypatch, mutant):
    monkeypatch.setattr(exactcomb, "_shifted_sum", mutant)
    assert not _fermat_congruences_hold()


def test_table_growth_is_transparent():
    small = poly_bernoulli(3, 3)
    big = poly_bernoulli(90, 90)
    assert poly_bernoulli(3, 3) == small
    assert big > 0


def test_threads_growing_the_triangle_read_the_same_numbers(monkeypatch):
    # Each thread grows the triangle from its first row, asking in its own
    # order, while the interpreter switches threads as often as it can.
    asks = [(n, m) for n in range(0, 301, 7) for m in sorted({0, 1, n // 2, n}) if m <= n]
    expected = {ask: stirling2_explicit(*ask) for ask in asks}
    failures = []

    def ask(seed):
        order = asks.copy()
        random.Random(seed).shuffle(order)
        try:
            for n, m in order:
                if stirling2(n, m) != expected[n, m]:
                    failures.append((n, m))
        except Exception as exc:  # reported below, in the test's own thread
            failures.append(exc)

    monkeypatch.setattr(exactcomb, "_rows", [[1]])
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

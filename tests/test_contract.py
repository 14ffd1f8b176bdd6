"""The public API's contract: each function in polybern.__all__ returns a
finite result or raises ValueError (GuardError is one) on every input,
within a time budget per call. Below it, the messages and values pinned
at the domains' edges."""

import dataclasses
import inspect
import math
import signal
import types
import typing
import warnings
from collections.abc import Iterable

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polybern
from polybern import GuardError, exactcomb, lclt, oracle, quad, saddle

# CPU seconds one call may take, so that a loaded machine does not fail a
# correct call; no call sleeps or blocks, so a hang still spends CPU. The
# slowest call inside the guards, count_gamma_free(5, 6), takes 0.3 s
# (Python 3.11, x86-64).
BUDGET_S = 2.0

# Exports that are not functions of scalars: the constants, the exception
# classes and the acceptance suite, which tests/test_acceptance.py runs.
NOT_DRAWN = {
    "CompactnessWarning", "GuardError", "ML_DEGREE_GF", "POLY_BERNOULLI_GF", "__version__",
    "report_lines", "run_all",
}
FUNCTIONS = sorted(set(polybern.__all__) - NOT_DRAWN)

# Each size guard and domain bound and one either side of it, where the
# domains start, an int past the float range, and ints either side of zero
# past str()'s 4300-digit limit.
BOUNDS = {
    value
    for module in (exactcomb, lclt, oracle, quad, saddle)
    for name, value in vars(module).items()
    if "GUARD" in name or "MAX" in name
}
INTS = sorted({int(b) + d for b in BOUNDS for d in (-1, 0, 1)} | {-1, 0, 1, 2, 10**400, 10**5000, -(10**5000)})
FLOATS = INTS + [float(v) for v in INTS if abs(v) < 1e308] + [math.nan, math.inf, -math.inf]


def _strategy(hint):
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is bool:  # 0 and 1 read as bools; any other flag must be refused
        return st.booleans() | st.integers(-1, 2) | st.floats() | st.none()
    if hint is int:  # small ints reach inside the domains the bounds close, and
        # any two in 0..5 inside the matrix oracles' n*k <= 30; a float, NaN,
        # None or str in an int's place must be refused, and a bool read as its int
        ints = st.integers(0, 5) | st.sampled_from(INTS) | st.integers(0, 40)
        return ints | st.floats() | st.booleans() | st.none() | st.sampled_from(["3", ""])
    if hint is float:
        return st.sampled_from(FLOATS) | st.floats()
    if hint is str:
        return st.sampled_from(["B", "C", "D", "ML", "b", ""])
    if hint is quad.QuadratureSpec:
        return st.sampled_from([v for v in INTS if 8 <= v <= quad.NODES_GUARD and v % 2 == 0]).map(hint)
    if origin is tuple:  # a shift pair: each entry 0 or 1 in the domain
        return st.tuples(*[st.sampled_from([0, 1])] * len(args)) | st.tuples(*map(_strategy, args))
    if origin is Iterable:  # lists, tuples and fresh iterators, each read once
        items = st.lists(_strategy(args[0]), max_size=4)
        return items | items.map(tuple) | items.map(iter)
    if origin in (types.UnionType, typing.Union):  # 3.10 hints a None default as Optional
        return st.one_of([st.none() if a is type(None) else _strategy(a) for a in args])
    raise TypeError(f"no strategy for {hint!r}")


@st.composite
def calls(draw):
    name = draw(st.sampled_from(FUNCTIONS))
    fn = getattr(polybern, name)
    hints = typing.get_type_hints(fn)
    return name, tuple(draw(_strategy(hints[p])) for p in inspect.signature(fn).parameters)


def _over_budget(signum, frame):
    raise TimeoutError(f"call took more than {BUDGET_S} s")


def _call(fn, args):
    previous = signal.signal(signal.SIGPROF, _over_budget)
    signal.setitimer(signal.ITIMER_PROF, BUDGET_S)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", saddle.CompactnessWarning)
            return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def _finite(value) -> bool:
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, field.name)) for field in dataclasses.fields(value))
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int)


@settings(max_examples=500, deadline=None)
@given(calls())
@example(("saddle_point", (1, 10**400)))
@example(("f_inverse", (10**400,)))
@example(("ml_limit_shape", (1, 10**400)))
@example(("ml_degree_inclusion_exclusion", (511, 512)))
@example(("count_lonesum_restricted", (2, 2, None, True)))
@example(("count_lonesum_restricted", (2, 2, 10**5000, 0)))
@example(("f_inverse", (10**5000,)))
@example(("f_dir", (10**5000,)))
@example(("gaussian_params", (10**5000,)))
@example(("ml_limit_discrepancy", (10, 10**5000)))  # ml_window's refusal, which the root does not export
@example(("is_lonesum", ([-(10**5000)],)))
@example(("acsv_general_log", ((10**5000, 0), 2, 2)))
def test_every_public_function_is_finite_or_value_error(call):
    # An ArithmeticError signals an internal bug, so no input may raise one.
    # A refusal keeps its own reason: Python's digit-limit ValueError in its
    # place means a value past 4300 digits was printed by str() or repr().
    name, args = call
    try:
        value = _call(getattr(polybern, name), args)
    except ValueError as refused:
        assert "integer string conversion" not in str(refused), name
        return
    assert _finite(value), value


# the root binds a name only once it is read, so read every exported name
NAMESPACE = {**vars(exactcomb), **vars(lclt), **{name: getattr(polybern, name) for name in polybern.__all__}}
NAMESPACE.update(B=lclt.gaussian_params("B"), inf=math.inf, nan=math.nan)

# (exception, message pattern, the calls that raise it): rows, not a dict, so
# a row that repeats an earlier pair adds its calls instead of replacing them
RAISES = (
    (ValueError, "^indices must be nonnegative$", (
        "poly_bernoulli(-1, 2)", "poly_bernoulli(2, -1)", "ml_degree(-1, 2)", "ml_degree(2, -1)",
        "c_relative(-1, 2)", "c_relative(2, -1)", "_shifted_row(-1, 2, (1, 1))", "_shifted_row(2, -1, (1, 1))",
        "stirling2_explicit(-1, 2)", "poly_bernoulli(513, -1)", "residue_integral_b(41, -1, QuadratureSpec(64))",
    )),
    (ValueError, "^indices must be ints, got nan, 0$", ("stirling2_explicit(nan, 0)",)),
    (GuardError, "^n=513 exceeds table bound 512$", (
        "poly_bernoulli(513, 0)", "_shifted_row(513, 0, (1, 1))", "stirling2_explicit(513, 2)",
        "stirling2_explicit(513, 513)",
    )),
    (GuardError, "^k=513 exceeds table bound 512$", (
        "poly_bernoulli(0, 513)", "_shifted_row(0, 513, (1, 1))", "stirling2_explicit(40, 513)",
    )),
    (GuardError, "^n=65 exceeds inclusion-exclusion guard 64$", (
        "ml_degree_inclusion_exclusion(65, 0)",
    )),
    (ValueError, "^count must be positive to take its log$", ("log_of_count(0)",)),
    (ValueError, "^need r >= 1$", ("count_excedance_word(0, 3)", "count_excedance_word(0, 14)")),
    # the estimate-size check prints every size of the call
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got 0, 5$", ("bivar_asym_log(0, 5)",)),
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got 5, 0$", ("ml_asym_log(5, 0)",)),
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got -1, 3$", ("excedance_asym_log(-1, 3)",)),
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got 0, 0$", ("diag_asym_log(0, 1)",)),
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got 1, 10{400}$", ("saddle_point(1, 10**400)",)),
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got 10{308}, 10{308}$", (
        "bivar_asym_log(10**308, 10**308)",
    )),
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got 10{400}, 10{400}$", (
        "ml_asym_log(10**400, 10**400)", "excedance_asym_log(10**400, 10**400)",
        "acsv_general_log((1, 1), 10**400, 10**400)", "diag_asym_log(10**400, 2)",
    )),
    (ValueError, "^shift must be a pair from {0, 1}, got", (
        "acsv_general_log((2, 0), 5, 5)", "acsv_general_log(None, 3, 4)", "acsv_general_log((1, 1, 0), 3, 4)",
        "acsv_general_log((1.0, 1), 3, 4)", "acsv_general_log((1, 0.0), 3, 4)", "acsv_general_log((nan, 1), 3, 4)",
    )),
    (ValueError, "^order must be an int, got 2.0$", ("diag_asym_log(5, 2.0)", "diag_asym_log(0, 2.0)")),
    (ValueError, "^order must be an int, got nan$", ("diag_asym_log(5, nan)",)),
    (ValueError, "^order must be 1 or 2$", ("diag_asym_log(5, 3)", "diag_asym_log(5, 0)")),
    (ValueError, "^f is defined for t > 0$", ("f_dir(0.0)", "f_dir(-1.0)", "f_dir(nan)")),
    (ValueError, "^t=701.0 overflows the stable form", ("f_dir(701.0)",)),
    (ValueError, "^f_inverse is defined for r > 0$", ("f_inverse(0.0)", "f_inverse(nan)")),
    (ValueError, r"^r=\S+ outside the stable range of f", (
        "f_inverse(10**400)", "f_inverse(1e-6)", "saddle_point(1, 10**6)",
    )),
    (ValueError, "^k must be finite, got nan$", ("ml_limit_shape(10, nan)", "nu_density(10, nan, B)")),
    (ValueError, "^k must be finite, got inf$", ("ml_limit_shape(10, inf)", "nu_density(10, inf, B)")),
    (ValueError, "^k must be finite, got -inf$", ("ml_limit_shape(10, -inf)", "nu_density(10, -inf, B)")),
    (ValueError, r"^n must lie in 1\.\.10\*\*300, got -4$", ("ml_window(-4, 1.0)",)),
    (ValueError, r"^n must lie in 1\.\.10\*\*300, got 0$", ("ml_window(0, 1.0)", "nu_density(0, 1.0, B)")),
    (ValueError, r"^n must lie in 1\.\.10\*\*300, got 10{299}1$", (
        "ml_window(10**300 + 1, 1.0)", "window_limit(10**300 + 1, B)", "ml_limit_shape(10**300 + 1, 1.0)",
        "nu_density(10**300 + 1, 1.0, B)",
    )),
    (ValueError, r"^n must lie in 1\.\.10\*\*300, got 10{400}$", (
        "ml_window(10**400, 1.0)", "window_limit(10**400, B)", "ml_limit_shape(10**400, 1.0)",
        "nu_density(10**400, 1.0, B)",
    )),
    # the names are the letters of exactcomb.SHIFTS and 'ML' exactly, as the
    # CLI offers them
    (ValueError, "^which must be one of 'B', 'C', 'D', got 'b'$", ("lclt_rows(20, 'b')", "gaussian_params('b')")),
    (ValueError, "^which must be one of 'B', 'C', 'D', got 'd'$", ("lclt_rows(20, 'd')",)),
    # an unhashable name is refused by the same message, not by TypeError
    (ValueError, r"^which must be one of 'B', 'C', 'D', got \[\]$", ("lclt_rows(20, [])", "gaussian_params([])")),
    (ValueError, "^which must be one of 'B', 'C', 'D', got 'ml'$", (
        "lclt_rows(20, 'ml')", "lclt_discrepancy(20, 'ml')",
    )),
    # an int parameter refuses a float or NaN by name; a bool is an int
    (ValueError, r"^indices must be ints, got 2\.5, 3$", (
        "residue_integral_b(2.5, 3, QuadratureSpec(64))", "saddle_point(2.5, 3)", "bivar_asym_log(2.5, 3)",
        "ml_asym_log(2.5, 3)", "excedance_asym_log(2.5, 3)", "acsv_general_log((1, 1), 2.5, 3)",
    )),
    (ValueError, "^indices must be ints, got nan, 3$", ("saddle_point(nan, 3)", "bivar_asym_log(nan, 3)")),
    (ValueError, "^indices must be ints, got 3, 2.0$", ("saddle_point(3, 2.0)",)),
    (ValueError, "^indices must be ints, got 2.0, 2.0$", ("diag_asym_log(2.0)",)),
    (ValueError, "^k must be an int, got 2.5$", ("parseval_b(2.5, QuadratureSpec(64))",)),
    (ValueError, "^k must be an int, got nan$", ("laplace_integral_diag(nan, QuadratureSpec(8))",)),
    # the B, C and D rows apply the int rule before their window
    (ValueError, "^n must be an int, got nan$", (
        "ml_limit_shape(nan, 1.0)", "nu_density(nan, 1.0, B)", "window_limit(nan, B)", "ml_window(nan, 1.0)",
        "lclt_discrepancy(nan, 'B')",
    )),
    (ValueError, "^n must be an int, got 2.0$", ("lclt_discrepancy(2.0, 'B')", "ml_limit_discrepancy(2.0)")),
    (ValueError, "^n must be an int, got None$", ("lclt_discrepancy(None, 'B')",)),
    (ValueError, "^n must be an int, got '3'$", ("lclt_rows('3', 'B')",)),
    (ValueError, r"^dimensions must be ints, got 2\.5, 2$", (
        "count_lonesum(2.5, 2)", "count_gamma_free(2.5, 2)", "count_acyclic_orientations(2.5, 2)",
        "count_lonesum_restricted(2.5, 2, True, True)", "count_vesztergombi(2.5, 2)", "count_excedance_word(2.5, 2)",
    )),
    (ValueError, "^dimensions must be ints, got 1, nan$", ("count_vesztergombi(1, nan)",)),
    (ValueError, r"^rows must be ints, got 1, 0\.5$", ("is_lonesum([1, 0.5])",)),
    (ValueError, "^rows must be nonnegative bitmasks, got -3, 5$", ("is_lonesum([-3, 5])",)),
    (ValueError, "^rows must be nonnegative bitmasks, got -1, 1$", ("is_lonesum([-1, 1])",)),
    (ValueError, "^count must be an int, got 2.0$", ("log_of_count(2.0)",)),
    (ValueError, "^nodes must be even and >= 8, got True$", ("QuadratureSpec(True)",)),
    # a flag is a bool, or 0 or 1 read as one
    (ValueError, "^flags must be bools, got 0, 2$", ("count_lonesum_restricted(2, 2, 0, 2)",)),
    (ValueError, r"^flags must be bools, got 0\.5, True$", ("count_lonesum_restricted(2, 2, 0.5, True)",)),
    (ValueError, "^flags must be bools, got nan, True$", ("count_lonesum_restricted(2, 2, nan, True)",)),
    (ValueError, "^flags must be bools, got None, True$", ("count_lonesum_restricted(2, 2, None, True)",)),
    (ValueError, "^flags must be bools, got '', True$", ("count_lonesum_restricted(2, 2, '', True)",)),
    (ValueError, "^k must be nonnegative$", (
        "parseval_b(-1, QuadratureSpec(64))", "laplace_integral_diag(-1, QuadratureSpec(8))",
    )),
    (ValueError, "^dimensions must be nonnegative$", (
        "count_vesztergombi(-1, 2)", "count_lonesum(-1, 2)", "count_gamma_free(2, -1)",
        "count_acyclic_orientations(-1, 0)", "count_lonesum_restricted(-1, 2, False, True)",
        "count_excedance_word(2, -1)", "count_excedance_word(-1, 20)",
    )),
    (ValueError, r"^indices must be ints, got 10, 2\.5$", ("ml_scaled_coefficient(10, 2.5)",)),
    (ValueError, r"^indices must be ints, got 10, 10\.5$", ("ml_scaled_coefficient(10, 10.5)",)),
    (ValueError, r"^k=11 outside 0\.\.10$", ("ml_scaled_coefficient(10, 11)",)),
    (ValueError, r"^k=-1 outside 0\.\.10$", ("ml_scaled_coefficient(10, -1)",)),
    (GuardError, "^k=21 exceeds parseval guard 20$", ("parseval_b(21, QuadratureSpec(64))",)),
    (GuardError, r"^nodes=16 outside exactness bound 24\.\.65536$", ("parseval_b(10, QuadratureSpec(16))",)),
    # the derived sizes n*k, n+k and r+s, each read by the size rule after the sides
    (GuardError, r"^n\*k=36 exceeds enumeration guard 30$", ("count_lonesum(6, 6)",)),
    (GuardError, r"^n\+k=15 exceeds enumeration guard 14$", ("count_vesztergombi(7, 8)",)),
    (GuardError, r"^r\+s=15 exceeds enumeration guard 14$", ("count_excedance_word(8, 7)",)),
    (GuardError, "^r=1000000000000 exceeds enumeration guard 14$", ("count_excedance_word(10**12, 0)",)),
    # a side past the guard is refused before the domain floor r >= 1
    (GuardError, "^s=20 exceeds enumeration guard 14$", ("count_excedance_word(0, 20)",)),
    # an int past str()'s 4300-digit limit is printed by its sign and bit length, in every layer and inside a
    # tuple or list too, so each refusal is still built
    (GuardError, "^n=<16610-bit int> exceeds enumeration guard 30$", ("count_lonesum(10**5000, 0)",)),
    (ValueError, r"^indices must be ints, got <16610-bit int>, 2\.5$", ("poly_bernoulli(10**5000, 2.5)",)),
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got <16610-bit int>, 1$", ("saddle_point(10**5000, 1)",)),
    (ValueError, r"^indices must lie in 1\.\.10\*\*300, got -<16610-bit int>, 1$", ("saddle_point(-10**5000, 1)",)),
    (ValueError, "^which must be one of 'B', 'C', 'D', got <16610-bit int>$", (
        "gaussian_params(10**5000)", "lclt_rows(10, 10**5000)", "lclt_discrepancy(10, 10**5000)",
    )),
    (ValueError, "^window applies to 'ML' only, got <16610-bit int> for 'B'$", ("lclt_rows(10, 'B', 10**5000)",)),
    (ValueError, r"^window must lie in \(0, 5\.0\], got <16610-bit int>$", (
        "lclt_rows(10, 'ML', 10**5000)", "ml_window(10, 10**5000)", "ml_limit_discrepancy(10, 10**5000)",
    )),
    (ValueError, r"^k=<16610-bit int> outside 0\.\.10$", ("ml_scaled_coefficient(10, 10**5000)",)),
    (ValueError, "^rows must be nonnegative bitmasks, got -<16610-bit int>$", ("is_lonesum([-10**5000])",)),
    (ValueError, "^flags must be bools, got <16610-bit int>, 0$", ("count_lonesum_restricted(2, 2, 10**5000, 0)",)),
    (ValueError, r"^r=<16610-bit int> outside the stable range of f", ("f_inverse(10**5000)",)),
    (ValueError, r"^t=<16610-bit int> overflows the stable form", ("f_dir(10**5000)",)),
    (ValueError, r"^shift must be a pair from \{0, 1\}, got \(<16610-bit int>, 0\)$", (
        "acsv_general_log((10**5000, 0), 2, 2)",
    )),
    # any other value prints by repr, a tuple or list as repr writes it
    (ValueError, "^window applies to 'ML' only, got '3' for 'B'$", ("lclt_rows(10, 'B', '3')",)),
    (ValueError, r"^shift must be a pair from \{0, 1\}, got \(1,\)$", ("acsv_general_log((1,), 3, 4)",)),
    (ValueError, r"^shift must be a pair from \{0, 1\}, got \[1, 2\]$", ("acsv_general_log([1, 2], 3, 4)",)),
    # a list that holds itself is shown, not recursed into
    (ValueError, r"^shift must be a pair from \{0, 1\}, got \[\[\[\.\.\.\]\]\]$", (
        "(lambda shift: shift.append(shift) or acsv_general_log(shift, 3, 4))([])",
    )),
    (GuardError, r"outside residue guard 1\.\.40$", (
        "residue_integral_b(41, 5, QuadratureSpec(2048))", "residue_integral_b(0, 5, QuadratureSpec(2048))",
    )),
    # the size rule reads every size for the int rule, then for the sign, then the window
    (ValueError, "^indices must be ints, got -1, None$", ("poly_bernoulli(-1, None)",)),
    (ValueError, "^dimensions must be ints, got 31, 2.5$", ("count_lonesum(31, 2.5)",)),
)

# claims that hold at the domains' edges
HOLDS = (
    "stirling2_explicit(512, 512) == 1",
    "ml_degree_inclusion_exclusion(64, 64) == ml_degree(64, 64)",
    "math.isfinite(bivar_asym_log(10**300, 10**300))",
    "math.isfinite(diag_asym_log(10**300, 2))",
    "window_limit(10**300, B) == 400",
    "0 <= ml_window(10**300, 1.0)[0] <= ml_window(10**300, 1.0)[1] <= 10**300",
    "math.isfinite(nu_density(10**300, 1.2e300, B))",
    "ml_limit_shape(1, 10**400) == 0.0",
    "nu_density(10, 10**400, B) == 0.0",
    "residue_integral_b(True, 2, QuadratureSpec(64)) == residue_integral_b(1, 2, QuadratureSpec(64))",
    "saddle_point(True, 2) == saddle_point(1, 2)",
    "diag_asym_log(5, True) == diag_asym_log(5, 1)",
    "acsv_general_log((True, False), 3, 4) == acsv_general_log((1, 0), 3, 4)",
    "count_lonesum(True, False) == count_lonesum(1, 0) == 1",
    "is_lonesum([True, False]) == is_lonesum([1, 0])",
    "is_lonesum([0, False]) == is_lonesum([0, 0])",
    "count_lonesum_restricted(2, 2, 0, 1) == c_relative(2, 2)",
    "ml_window(10, True) == ml_window(10, 1) == (2, 8)",
)


@pytest.mark.parametrize(
    "call,error,pattern",
    [pytest.param(call, error, pattern, id=call) for error, pattern, calls in RAISES for call in calls],
)
def test_pinned_raise(call, error, pattern):
    with pytest.raises(error, match=pattern):
        eval(call, NAMESPACE)


@pytest.mark.parametrize("claim", HOLDS)
def test_pinned_claim(claim):
    assert eval(claim, NAMESPACE)


# Each entry point of exactcomb._check_sizes: the call, with {} where the
# size under test goes; the int rule's phrase; the subject a negative size is
# refused by; the size's name; and its guard's window lo..hi and name.
INDICES, DIMENSIONS, K = "indices must be ints", "dimensions must be ints", "k must be an int"
TABLE, IE = exactcomb.TABLE_GUARD, exactcomb.IE_GUARD
MATRIX, PERMUTATION = oracle.MATRIX_GUARD, oracle.PERMUTATION_GUARD
SIZE_RULE = (
    ("stirling2({}, 0)", INDICES, "indices", "n", 0, TABLE, "table bound"),
    ("stirling2_explicit({}, 0)", INDICES, "indices", "n", 0, TABLE, "table bound"),
    ("poly_bernoulli({}, 0)", INDICES, "indices", "n", 0, TABLE, "table bound"),
    ("c_relative(0, {})", INDICES, "indices", "k", 0, TABLE, "table bound"),
    ("ml_degree({}, 0)", INDICES, "indices", "n", 0, TABLE, "table bound"),
    ("_shifted_row(0, {}, (1, 1))", INDICES, "indices", "k", 0, TABLE, "table bound"),
    ("ml_degree_inclusion_exclusion({}, 0)", INDICES, "indices", "n", 0, IE, "inclusion-exclusion guard"),
    ("count_lonesum({}, 0)", DIMENSIONS, "dimensions", "n", 0, MATRIX, "enumeration guard"),
    ("count_lonesum_restricted(0, {}, True, True)", DIMENSIONS, "dimensions", "k", 0, MATRIX, "enumeration guard"),
    ("count_gamma_free({}, 0)", DIMENSIONS, "dimensions", "n", 0, MATRIX, "enumeration guard"),
    ("count_acyclic_orientations(0, {})", DIMENSIONS, "dimensions", "k", 0, MATRIX, "enumeration guard"),
    ("count_vesztergombi({}, 0)", DIMENSIONS, "dimensions", "n", 0, PERMUTATION, "enumeration guard"),
    ("QuadratureSpec({})", "nodes must be an int", "nodes", "nodes", 0, quad.NODES_GUARD, "node guard"),
    ("parseval_b({}, QuadratureSpec(64))", K, "k", "k", 0, quad.PARSEVAL_GUARD, "parseval guard"),
    ("laplace_integral_diag({}, QuadratureSpec(8))", K, "k", "k", 0, quad.LAPLACE_GUARD, "laplace guard"),
    ("residue_integral_b({}, 1, QuadratureSpec(64))", INDICES, "indices", "n", 1, quad.RESIDUE_GUARD, "residue guard"),
    ("lclt_discrepancy({}, 'B')", "n must be an int", "n", "n", 2, lclt.SCALED_N_GUARD, "row guard"),
    ("lclt_rows({}, 'D')", "n must be an int", "n", "n", 2, lclt.SCALED_N_GUARD, "row guard"),
    ("ml_scaled_coefficient({}, 0)", INDICES, "n", "n", 2, lclt.ML_SHAPE_N_GUARD, "shape guard"),
)


def _size_rule_cases():
    for call, phrase, subject, name, lo, hi, guard in SIZE_RULE:
        window = rf"outside {guard} {lo}\.\.{hi}$" if lo else f"exceeds {guard} {hi}$"
        sign = (ValueError, f"^{subject} must be nonnegative$")
        cases = {
            "None": (ValueError, f"^{phrase}, got .*None"),
            "nan": (ValueError, f"^{phrase}, got .*nan"),
            str(lo - 1): (GuardError, f"^{name}={lo - 1} {window}"),  # at lo = 0 the next line replaces it
            "-1": sign,
            str(hi + 1): (GuardError, f"^{name}={hi + 1} {window}"),
        }
        for value, error in cases.items():
            yield pytest.param(call.format(value), error, id=call.format(value))


@pytest.mark.parametrize("call,error", _size_rule_cases())
def test_the_size_rule_refuses_int_then_sign_then_window(call, error):
    # the exact type: a negative size is a plain ValueError, never a GuardError
    with pytest.raises(ValueError, match=error[1]) as refused:
        eval(call, NAMESPACE)
    assert type(refused.value) is error[0]


def test_the_estimate_bound_is_read_when_refused(monkeypatch):
    # exactcomb alone holds MAX_ESTIMATE_SIZE, and the one check states it as
    # it is when the refusal is built
    monkeypatch.setattr(exactcomb, "MAX_ESTIMATE_SIZE", 10**200)
    with pytest.raises(ValueError, match=r"^indices must lie in 1\.\.10\*\*200, got 10{250}, 10{250}$"):
        saddle.saddle_point(10**250, 10**250)
    with pytest.raises(ValueError, match=r"^n must lie in 1\.\.10\*\*200, got 10{250}$"):
        lclt.window_limit(10**250, lclt.gaussian_params("B"))

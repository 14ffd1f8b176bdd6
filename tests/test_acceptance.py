"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one pass/fail line so a plain pytest -s run doubles as
the acceptance report. Criteria 1 and 5 also enforce their runtime
budgets, and run_all its budget of 2 CPU seconds; criterion 8 compares
two full CLI verify runs byte for byte.
"""

import dataclasses
import math
import subprocess
import sys
import time

import pytest

from polybern import exactcomb, verify
from test_exactcomb import misweighted_shifted_sum, mutants_past_criterion_2


def _report(result):
    print(f"criterion {result.index} {result.name}: {'PASS' if result.passed else 'FAIL'} ({result.detail})")
    assert result.passed, result.detail


def test_result_keeps_the_first_eight_failures():
    failures = [f"failure {i}" for i in range(10)]
    result = verify._result(1, "oracle-equivalence", failures, "unused")
    assert not result.passed
    assert result.detail == "; ".join(failures[:8])


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    result = verify.criterion_oracle_equivalence()
    elapsed = time.perf_counter() - start
    _report(result)
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_1_checks_the_excedance_oracle(monkeypatch):
    monkeypatch.setattr(verify.oracle, "count_excedance_word", lambda r, s: 0)
    result = verify.criterion_oracle_equivalence()
    assert not result.passed
    assert result.detail.startswith("excedance(1,0)=0 != C=1; excedance(1,1)=0 != C=1")


def _failed_detail(monkeypatch, criterion, target, mutant):
    # runs verify.<criterion> with verify.<target> (a layer function, as
    # "saddle.f_dir", or one of verify's own imports) replaced by
    # mutant(original); the criterion must FAIL, and its detail is returned
    owner, _, name = target.rpartition(".")
    module = getattr(verify, owner) if owner else verify
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    result = getattr(verify, criterion)()
    assert not result.passed
    return result.detail


def _plus_one(original):
    return lambda *args: original(*args) + 1


def _plus_one_where_rows_are(forbid):
    # count_lonesum_restricted off by one for one value of its first flag
    def mutant(original):
        return lambda n, k, rows, cols: original(n, k, rows, cols) + (rows is forbid)

    return mutant


def _plus_one_above_the_diagonal(original):
    return lambda n, k: original(n, k) + (n < k)


def _last_coefficient_plus_one(original):
    return lambda n, delta: [*original(n, delta)[:-1], original(n, delta)[-1] + 1]


def _swapped_direction(original):
    return lambda n, k: original(k, n)


def _times_one_plus_a_billionth(original):
    return lambda *args: original(*args) * (1 + 1e-9)


def _plus_a_billionth_past_one(original):
    return lambda r: original(r) + 1e-9 * (r > 1)


def _ml_without_its_shift(original):
    return verify.saddle.bivar_asym_log


def _less_a_hundredth_per_row(original):
    return lambda n, k: original(n, k) - 0.01 * n


def _less_a_tenth(original):
    return lambda *args: original(*args) - 0.1


def _plus_a_hundredth_on_the_diagonal_past_30(original):
    # past criterion 4's 30x30 grid, so only its diagonal reductions see it
    return lambda n, k: original(n, k) + 0.01 * (n == k > 30)


def _order_ignored(original):
    return lambda k, order=1: original(k, 1)


def _residue_off_by_a_thousandth(original):
    return lambda n, k, spec: original(n, k, spec) + 1e-3


def _rho_off_by_a_thousandth(original):
    def mutant(which):
        params = original(which)
        return dataclasses.replace(params, rho=params.rho + 1e-3)

    return mutant


@pytest.mark.parametrize(
    ("criterion", "target", "mutant", "first"),
    [
        ("criterion_oracle_equivalence", "oracle.count_lonesum", _plus_one, "lonesum(0,0)=2 != B=1"),
        ("criterion_oracle_equivalence", "oracle.count_gamma_free", _plus_one, "gamma(0,0)=2 != B=1"),
        (
            "criterion_oracle_equivalence",
            "oracle.count_acyclic_orientations",
            _plus_one,
            "orientations(0,0)=2 != B=1",
        ),
        (
            "criterion_oracle_equivalence",
            "oracle.count_lonesum_restricted",
            _plus_one_where_rows_are(False),
            "restricted(0,0,F,T)=2 != C=1",
        ),
        (
            "criterion_oracle_equivalence",
            "oracle.count_lonesum_restricted",
            _plus_one_where_rows_are(True),
            "restricted(0,0,T,T)=2 != D=1",
        ),
        ("criterion_oracle_equivalence", "oracle.count_vesztergombi", _plus_one, "vesztergombi(0,0)=2 != B=1"),
        ("criterion_formula_identities", "stirling2_explicit", _plus_one, "S(0,0) mismatch"),
        ("criterion_formula_identities", "poly_bernoulli", _plus_one_above_the_diagonal, "B(0,1) asymmetric"),
        ("criterion_formula_identities", "_u_row", _last_coefficient_plus_one, "diagonal square sum k=0"),
        ("criterion_saddle_layer", "saddle.saddle_point", _swapped_direction, "critical equation at (1,2)"),
        ("criterion_saddle_layer", "saddle.f_inverse", _times_one_plus_a_billionth, "f_inverse(1) != log 2"),
        ("criterion_saddle_layer", "saddle.f_inverse", _plus_a_billionth_past_one, "variety identity at r="),
        ("criterion_specialization", "saddle.ml_asym_log", _ml_without_its_shift, "acsv vs ml at (1,1): "),
        (
            "criterion_specialization",
            "saddle.excedance_asym_log",
            _plus_a_hundredth_on_the_diagonal_past_30,
            "excedance vs diagonal at k=31",
        ),
        (
            "criterion_asymptotic_accuracy",
            "saddle.diag_asym_log",
            _order_ignored,
            "order 2 not strictly closer at k=10",
        ),
        (
            "criterion_asymptotic_accuracy",
            "saddle.ml_asym_log",
            _less_a_hundredth_per_row,
            "ml errors not decreasing along (2t,3t): ",
        ),
        (
            "criterion_asymptotic_accuracy",
            "saddle.ml_asym_log",
            _less_a_tenth,
            "ml error at t=16 is 0.1085 > 0.05",
        ),
        (
            "criterion_asymptotic_accuracy",
            "saddle.excedance_asym_log",
            _less_a_tenth,
            "excedance errors not decreasing along (2t,3t): ",
        ),
        (
            "criterion_quadrature",
            "quad.residue_integral_b",
            _residue_off_by_a_thousandth,
            "residue defect 9.99e-04 at (8,12)",
        ),
        (
            "criterion_lclt",
            "lclt.gaussian_params",
            _rho_off_by_a_thousandth,
            "does not truncate to 458 thousandths",
        ),
    ],
)
def test_a_wrong_value_fails_its_criterion(monkeypatch, criterion, target, mutant, first):
    detail = _failed_detail(monkeypatch, criterion, target, mutant)
    assert first in detail.split("; ")[0]


def _nan(original):
    return lambda *args: math.nan


# A NaN compares False with everything, so each check is written to pass
# only on a comparison that holds.
@pytest.mark.parametrize(
    ("criterion", "target", "first"),
    [
        ("criterion_saddle_layer", "saddle.f_dir", "f(log 2) != 1"),
        ("criterion_specialization", "saddle.acsv_general_log", "acsv vs bivar at (1,1): nan"),
        ("criterion_specialization", "saddle.bivar_asym_log", "acsv vs bivar at (1,1): nan"),
        ("criterion_asymptotic_accuracy", "saddle.diag_asym_log", "order 2 not strictly closer at k=10"),
        ("criterion_quadrature", "quad.parseval_b", "parseval at k=0"),
        ("criterion_quadrature", "quad.laplace_integral_diag", "laplace ratio at k=100 off by more than 2%"),
        ("criterion_quadrature", "quad.residue_integral_b", "residue defect nan at (8,12)"),
        ("criterion_lclt", "lclt.ml_limit_shape", "ml discrepancy not decreasing: [nan, nan, nan]"),
    ],
)
def test_a_nan_fails_its_criterion(monkeypatch, criterion, target, first):
    detail = _failed_detail(monkeypatch, criterion, target, _nan)
    assert detail.split("; ")[0] == first


def test_criterion_2_formula_identities():
    _report(verify.criterion_formula_identities())


def test_criterion_2_catches_a_wrong_weight(monkeypatch):
    # (m+1)(m+2) in place of (m+1)^2 in the nested sum of B, C and D keeps
    # B symmetric, so the first check to see it is the inclusion-exclusion,
    # whose B has no weight.
    monkeypatch.setattr(exactcomb, "_shifted_sum", misweighted_shifted_sum)
    result = verify.criterion_formula_identities()
    assert not result.passed
    assert result.detail.split("; ")[0] == "D(1,1) != inclusion-exclusion"


@mutants_past_criterion_2
def test_criterion_2_sees_an_error_past_row_40(monkeypatch, mutant):
    # Every other identity reads n, k <= 40, so the Fermat congruences at
    # p = 131 alone fail, at each of their five k.
    monkeypatch.setattr(exactcomb, "_shifted_sum", mutant)
    result = verify.criterion_formula_identities()
    assert not result.passed
    assert result.detail == "; ".join(f"B, C, D(131,{k}) not 2^k, 1, 1 mod p" for k in (41, 66, 129, 130, 131))


def test_criterion_3_saddle_layer():
    _report(verify.criterion_saddle_layer())


def test_criterion_4_specialization():
    _report(verify.criterion_specialization())


def test_criterion_5_asymptotic_accuracy():
    start = time.perf_counter()
    result = verify.criterion_asymptotic_accuracy()
    elapsed = time.perf_counter() - start
    _report(result)
    assert elapsed < 120.0, f"accuracy sweep took {elapsed:.1f}s"


def test_criterion_6_quadrature():
    _report(verify.criterion_quadrature())


def test_criterion_7_lclt():
    _report(verify.criterion_lclt())


def test_run_all_within_its_cpu_budget():
    # CPU time, not wall time, so a loaded machine cannot fail it.
    start = time.process_time()
    results = verify.run_all()
    used = time.process_time() - start
    assert all(result.passed for result in results)
    assert used < 2.0, f"run_all took {used:.2f} CPU seconds"


def test_criterion_8_deterministic_verify():
    runs = [
        subprocess.run(
            [sys.executable, "-m", "polybern.cli", "verify"],
            capture_output=True,
            timeout=600,
        )
        for _ in range(2)
    ]
    passed = (
        runs[0].returncode == 0
        and runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
        and runs[0].stdout != b""
    )
    print(f"criterion 8 determinism: {'PASS' if passed else 'FAIL'} (two byte-identical verify runs)")
    assert runs[0].returncode == 0 and runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout

"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one pass/fail line so a plain pytest -s run doubles as
the acceptance report. Criteria 1 and 5 also enforce their runtime
budgets; criterion 8 compares two full CLI verify runs byte for byte.
"""

import subprocess
import sys
import time

from polybern import verify


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


def test_criterion_2_formula_identities():
    _report(verify.criterion_formula_identities())


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

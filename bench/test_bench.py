"""Self-tests of the benchmark.

    python3 -m pytest -q -s bench/test_bench.py

The tiny runs execute every workload once untraced and once traced (about
a minute in all) and print each metric with its unit.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_reference_counts_match_known_values_and_each_other():
    ref = reference.ExactReference()
    assert [ref.b(n, 3) for n in range(5)] == [1, 8, 46, 230, 1066]
    assert (ref.c(2, 2), ref.d(2, 2)) == (7, 5)
    for n in range(8):
        for k in range(8):
            assert ref.b(n, k) == ref.b(k, n)
            assert ref.d(n, k) == ref.d_inclusion_exclusion(n, k)
            no_zero_column = sum((-1) ** j * math.comb(k, j) * ref.b(n, k - j) for j in range(k + 1))
            assert ref.c(n, k) == no_zero_column


def test_reference_saddle_lies_on_the_variety_in_both_directions():
    for n, k in ((1, 300), (300, 1), (7, 7), (1000, 37)):
        a, b = reference.saddle(n, k)
        assert abs(math.exp(-a) + math.exp(-b) - 1.0) < 1e-12
        assert abs(k * a * math.exp(-a) - n * b * math.exp(-b)) <= 1e-9 * n * b * math.exp(-b)


class _OffByOne(reference.ExactReference):
    def b(self, n, k):
        return super().b(n, k) + (1 if (n, k) == (3, 3) else 0)


def test_wrong_reference_value_counts_as_a_failed_operation():
    ops = [("B", (2, 2)), ("B", (3, 3)), ("D", (3, 4)), ("parseval", (3, 16))]
    true = reference.ExactReference()
    outputs = [true.b(2, 2), true.b(3, 3), true.d(3, 4), float(true.b(3, 3))]
    passes = [
        {"outputs": outputs, "errors": [None] * 4},
        {"outputs": outputs, "errors": [None, None, "ValueError: x", None]},
    ]
    # The raise is on an input that does not fail at the measured commit.
    assert run.judge_calls(ops, passes, workloads.Checker(true)) == (8, 1, 1)
    # The wrong B(3,3) fails the B op and the parseval op in both passes.
    assert run.judge_calls(ops, passes, workloads.Checker(_OffByOne())) == (8, 5, 5)


def test_only_raises_outside_the_known_failures_are_unexpected():
    ops = [("residue", (31, 1, 1024)), ("residue", (33, 1, 1024)), ("bivar", (1, 200)), ("bivar", (1, 100))]
    passes = [{"outputs": [None] * 4, "errors": ["ArithmeticError: x"] * 4}]
    assert run.judge_calls(ops, passes, workloads.Checker()) == (4, 4, 2)
    assert workloads.known_failure("acsv", ("D", 251, 1)) and not workloads.known_failure("bivar", (251, 1))


def test_acsv_check_holds_large_logs_to_relative_float_accuracy():
    ref = reference.acsv_closed_form("B", 10**6, 3 * 10**5)
    assert workloads.Checker()("acsv", ("B", 10**6, 3 * 10**5), ref * (1 + 4e-15))
    assert not workloads.Checker()("acsv", ("B", 10**6, 3 * 10**5), ref * (1 + 1e-13))
    small = reference.acsv_closed_form("D", 20, 30)
    assert workloads.Checker()("acsv", ("D", 20, 30), small + 9e-10)
    assert not workloads.Checker()("acsv", ("D", 20, 30), small + 2e-9)


def test_inputs_depend_only_on_the_seed():
    for name in ("counts", "estimates"):
        assert workloads.generate(name, 3) == workloads.generate(name, 3)
        assert workloads.generate(name, 3) != workloads.generate(name, 4)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        print(f"{workload} trace={trace} {name} = {m['value']!r} {m['unit']}")
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*SPEC["command"], "--workload", "counts", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_probe_takes_sample_time_out_and_scales_by_nearby_samples():
    probe = speed.SpeedProbe()
    # A sample every 0.05 s, each taking twice its warm kernel time, at the
    # reference speed until t = 1 s and half of it after.
    warm = [speed.KERNEL_S * (1 if 0.05 * i < 1.0 else 2) for i in range(40)]
    probe.samples = [(0.05 * i, 2 * w, w) for i, w in enumerate(warm)]
    starts, ends = [0.02, 0.52, 1.51, 1.9], [0.06, 0.53, 1.52, 1.95]
    assert probe.stolen(starts, ends) == [2 * speed.KERNEL_S, 0.0, 0.0, 4 * speed.KERNEL_S]
    assert probe.op_factors(starts, ends) == pytest.approx([1.0, 1.0, 0.5, 0.5])
    assert probe.factor() == pytest.approx(1.0 / 1.5)

"""Command-line interface: emission formats, dispatch, and exit codes."""

import json
import math
import subprocess
import sys

import pytest

from polybern import exactcomb, verify
from polybern.cli import main
from polybern.quad import QuadratureSpec, laplace_integral_diag
from polybern.saddle import (
    bivar_asym_log,
    excedance_asym_log,
    ml_asym_log,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_csv(capsys):
    code, out, err = run_cli(capsys, "exact", "--seq", "B", "--n", "2..3", "--k", "2..3")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "n,k,value",
        "2,2,14",
        "2,3,46",
        "3,2,46",
        "3,3,230",
    ]


def test_exact_single_point(capsys):
    code, out, _ = run_cli(capsys, "exact", "--seq", "D", "--n", "2", "--k", "2")
    assert code == 0
    assert out.splitlines()[1] == "2,2,5"


def test_exact_json_counts_are_strings(capsys):
    code, out, _ = run_cli(
        capsys, "exact", "--seq", "C", "--n", "3", "--k", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"n": 3, "k": 2, "value": "31"}]


def test_oracle_match_column(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--which", "veszt", "--n", "2..3", "--k", "2")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert all(row[2] == row[3] and row[4] == "1" for row in rows)


def test_oracle_excedance_checks_against_c(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--which", "excedance", "--n", "3", "--k", "2")
    assert code == 0
    assert out.splitlines()[1] == "3,2,31,31,1"


def test_oracle_excedance_needs_r_at_least_one(capsys):
    # "the first r-1 positions are excedances" has no meaning at r = 0
    code, out, err = run_cli(
        capsys, "oracle", "--which", "excedance", "--n", "0..2", "--k", "0..2"
    )
    assert code == 2 and out == ""
    assert "need r >= 1" in err


def test_asym_relative_error_definition(capsys):
    code, out, _ = run_cli(capsys, "asym", "--target", "D", "--n", "10", "--k", "12")
    assert code == 0
    header, row = out.splitlines()
    assert header == "n,k,log_exact,log_estimate,relative_error"
    n, k, log_exact, log_estimate, rel = row.split(",")
    assert float(rel) == pytest.approx(
        math.exp(float(log_exact) - float(log_estimate)) - 1.0, rel=1e-12
    )


def test_asym_order2_diagonal_only(capsys):
    for target, n in (("B", "6"), ("C", "5"), ("D", "5"), ("D", "6")):
        code, out, err = run_cli(
            capsys, "asym", "--target", target, "--n", n, "--k", "5", "--order", "2"
        )
        assert code == 2 and out == ""
        assert "order 2 exists on the B diagonal only" in err


def _asym_estimates(out):
    rows = (line.split(",") for line in out.splitlines()[1:])
    return {(int(n), int(k)): float(estimate) for n, k, _, estimate, _ in rows}


def test_asym_picks_the_estimator_from_n_and_k(capsys):
    # Every target reads its one smooth-point estimator, on the diagonal too.
    for target, estimator in (
        ("B", bivar_asym_log),
        ("C", excedance_asym_log),
        ("D", ml_asym_log),
    ):
        code, out, _ = run_cli(capsys, "asym", "--target", target, "--n", "4..6", "--k", "5..6")
        assert code == 0
        assert _asym_estimates(out) == {
            (n, k): estimator(n, k) for n in range(4, 7) for k in range(5, 7)
        }


@pytest.mark.parametrize("target", ["ML", "EXC"])
def test_asym_targets_are_the_exact_names(capsys, target):
    code, out, err = run_cli(capsys, "asym", "--target", target, "--n", "5", "--k", "5")
    assert code == 2 and out == ""
    assert "invalid choice" in err


def test_quad_laplace_emits_logs(capsys):
    code, out, _ = run_cli(
        capsys, "quad", "--which", "laplace", "--k", "100", "--nodes", "512"
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert abs(float(row[3])) < 0.02


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_quad_laplace_k0_row_has_no_prediction(capsys, fmt):
    # diag_asym_log starts at k = 1: the k = 0 row leaves its prediction
    # cells empty instead of aborting the grid.
    code, out, err = run_cli(
        capsys, "quad", "--which", "laplace", "--k", "0..2", "--nodes", "64", "--format", fmt
    )
    assert code == 0 and err == ""
    _, alone, _ = run_cli(
        capsys, "quad", "--which", "laplace", "--k", "1..2", "--nodes", "64", "--format", fmt
    )
    if fmt == "csv":
        lines = out.splitlines()
        assert lines[1].startswith("0,") and lines[1].endswith(",,")
        assert float(lines[1].split(",")[1]) == laplace_integral_diag(0, QuadratureSpec(64))
        assert lines[:1] + lines[2:] == alone.splitlines()
    else:
        rows = json.loads(out)["rows"]
        assert rows[0]["k"] == 0
        assert rows[0]["log_prediction"] is None and rows[0]["ratio_defect"] is None
        assert rows[1:] == json.loads(alone)["rows"]


def test_quad_residue_requires_n(capsys):
    code, _, err = run_cli(capsys, "quad", "--which", "residue", "--k", "12")
    assert code == 2 and "--n" in err


@pytest.mark.parametrize(
    "command",
    [
        "quad --which parseval --k 3 --n 3",
        "quad --which laplace --k 3 --n 3",
        "quad --which residue --n 3 --k 3 --radius 0.7",
        "lclt --which B --n 10 --window 99",
        "lclt --which D --n 10 --window 2",
    ],
)
def test_unused_flag_is_config_error(capsys, command):
    # The refused flag is the last but one word of the command. The residue
    # rule integrates on the saddle circle, so argparse knows no --radius;
    # a window for B or D is the library's refusal, passed through.
    argv = command.split()
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    expected = {
        "--n": "takes no --n",
        "--radius": "unrecognized arguments: --radius 0.7",
        "--window": "window applies to 'ML' only",
    }[argv[-2]]
    assert expected in err


def test_nodes_follow_the_quadrature_rule(capsys):
    # The library's rule (even, >= 8) is the only one: 100 is accepted.
    code, out, _ = run_cli(
        capsys, "quad", "--which", "parseval", "--k", "3", "--nodes", "100"
    )
    assert code == 0 and out.startswith("k,value,exact,relative_defect")
    code, _, err = run_cli(
        capsys, "quad", "--which", "parseval", "--k", "3", "--nodes", "9"
    )
    assert code == 2 and "even" in err


def test_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "oracle", "--which", "lonesum", "--n", "10", "--k", "10")
    assert code == 3 and "guard" in err.lower()
    # n = 1 lies outside the B, C and D rows' domain 2..200
    for which in exactcomb.SHIFTS:
        code, out, err = run_cli(capsys, "lclt", "--which", which, "--n", "1")
        assert code == 3 and out == "" and "2..200" in err
    code, out, err = run_cli(capsys, "quad", "--which", "laplace", "--k", "3", "--nodes", "1000000000")
    assert code == 3 and out == "" and "node guard 65536" in err


def test_empty_ml_window_is_config_error(capsys):
    code, out, err = run_cli(capsys, "lclt", "--which", "ML", "--n", "3", "--window", "0.05")
    assert code == 2 and out == ""
    assert "window 0.05 holds no integer k at n=3" in err


def test_bad_range_is_config_error(capsys):
    code = main(["exact", "--seq", "B", "--n", "3..1", "--k", "0"])
    capsys.readouterr()
    assert code == 2
    code, out, err = run_cli(capsys, "exact", "--seq", "B", "--n", "abc", "--k", "0")
    assert code == 2 and out == ""
    assert "expected INT or LO..HI, got 'abc'" in err


def test_verify_reports_a_failed_criterion(capsys, monkeypatch):
    failed = verify.CriterionResult(7, "lclt", False, "forced failure")
    monkeypatch.setattr(verify, "criterion_lclt", lambda: failed)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    lines = out.splitlines()
    assert "criterion 7 lclt: FAIL (forced failure)" in lines
    assert lines[-1] == "1 criteria failed"


def test_lclt_trailer_comment(capsys):
    code, out, _ = run_cli(capsys, "lclt", "--which", "ML", "--n", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,scaled,reference"
    assert lines[-1].startswith("# discrepancy,n=30,sup=")
    # --window sets the ML window, |k - n/2| <= window sqrt(n)
    code, out, _ = run_cli(capsys, "lclt", "--which", "ML", "--n", "30", "--window", "3.5")
    assert code == 0
    assert [int(line.split(",")[0]) for line in out.splitlines()[1:-1]] == list(range(0, 31))


def _printed_rows_and_trailer(out, fmt):
    if fmt == "json":
        payload = json.loads(out)
        rows = [(r["k"], r["scaled"], r["reference"]) for r in payload["rows"]]
        return rows, payload["discrepancy"]
    lines = out.splitlines()
    rows = [(int(k), float(s), float(r)) for k, s, r in (line.split(",") for line in lines[1:-1])]
    fields = dict(field.split("=") for field in lines[-1].split(",")[1:])
    return rows, {"n": int(fields["n"]), "sup": float(fields["sup"]), "argmax_k": int(fields["argmax_k"])}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("which", ["B", "D", "ML"])
def test_lclt_trailer_is_the_sup_of_the_printed_rows(capsys, which, fmt):
    code, out, _ = run_cli(capsys, "lclt", "--which", which, "--n", "57", "--format", fmt)
    assert code == 0
    rows, trailer = _printed_rows_and_trailer(out, fmt)
    worst = max(rows, key=lambda row: abs(row[1] - row[2]))
    assert trailer == {"n": 57, "sup": abs(worst[1] - worst[2]), "argmax_k": worst[0]}


def test_lclt_json_discrepancy_field(capsys):
    code, out, _ = run_cli(capsys, "lclt", "--which", "B", "--n", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["discrepancy"]["argmax_k"] == 18


def test_asym_diagonal_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "asym", "--target", "B", "--n", "7", "--k", "7", "--order", "1"
    )
    assert code == 0
    rel = float(out.splitlines()[1].split(",")[4])
    assert math.isfinite(rel)


def test_json_round_trips_to_identical_bytes(capsys):
    code, out, _ = run_cli(
        capsys, "lclt", "--which", "ML", "--n", "30", "--format", "json"
    )
    assert code == 0
    re_emitted = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
    assert re_emitted == out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "exact", "--seq", "B", "--n", "1", "--k", "1", "--output", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text() == "n,k,value\n1,1,2\n"


@pytest.mark.parametrize("target", ["missing/rows.csv", "."], ids=["missing-directory", "directory"])
def test_unwritable_output_is_config_error(tmp_path, capsys, target):
    code, out, err = run_cli(
        capsys, "exact", "--seq", "B", "--n", "1", "--k", "1", "--output", str(tmp_path / target)
    )
    assert code == 2 and out == ""
    assert err.startswith("config error: cannot write --output")


def test_repeat_runs_identical(capsys):
    first = run_cli(capsys, "asym", "--target", "B", "--n", "5..15", "--k", "5..15")
    second = run_cli(capsys, "asym", "--target", "B", "--n", "5..15", "--k", "5..15")
    assert first == second


# The polybern modules each command loads, by its first word ("import" for
# `import polybern, polybern.cli` alone). Every command loads the root, the
# CLI and exactcomb; quad loads saddle, since the residue rule solves the
# saddle point.
EVERY_COMMAND = ["polybern", "polybern.cli", "polybern.exactcomb"]


@pytest.mark.parametrize(
    ("argv", "modules"),
    [
        ("import", EVERY_COMMAND),
        ("exact --seq B --n 3 --k 3", EVERY_COMMAND),
        ("oracle --which orient --n 2 --k 2", [*EVERY_COMMAND, "polybern.oracle"]),
        ("asym --target B --n 5 --k 5", [*EVERY_COMMAND, "polybern.saddle"]),
        ("quad --which parseval --k 3 --nodes 64", [*EVERY_COMMAND, "polybern.quad", "polybern.saddle"]),
        ("lclt --which B --n 10", [*EVERY_COMMAND, "polybern.lclt"]),
        (
            "verify",
            [
                *EVERY_COMMAND, "polybern.lclt", "polybern.oracle", "polybern.quad", "polybern.saddle",
                "polybern.verify",
            ],
        ),
    ],
    ids=["import", "exact", "oracle", "asym", "quad", "lclt", "verify"],
)
def test_the_cli_loads_only_what_its_command_uses(argv, modules):
    # every command starts a fresh interpreter, whose imports cost more than
    # the counts `exact` prints
    code = "import polybern, polybern.cli" if argv == "import" else f"from polybern.cli import main; main({argv.split()})"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert [m for m in loaded if m.partition(".")[0] == "polybern"] == modules
    # json only for --format json, and dataclasses only with a layer that
    # defines a dataclass: exactcomb and oracle define none
    defines_one = {"polybern.saddle", "polybern.quad", "polybern.lclt", "polybern.verify"}
    assert [m for m in loaded if m in ("json", "dataclasses")] == (["dataclasses"] if defines_one & {*modules} else [])
    # fractions, and the decimal it imports, only for ml_window's window,
    # which verify reads and `lclt --which B` does not
    if argv != "verify":
        assert [m for m in loaded if m in ("decimal", "fractions")] == []


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polybern.cli", "exact", "--seq", "B", "--n", "2", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "2,2,14"

"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload counts --seed 1 --seconds 30 --trace 0

Each pass is bench/worker.py in a fresh interpreter, so every pass starts
from cold caches and pays the import a CLI user pays. Passes run back to
back, one at a time (a closed loop with one client); their number is
fixed by the workload and --seconds, so that a run measures about
--seconds at the reference speed and attempts the same operations every
time. Times are put on the reference machine's scale by bench/speed.py.
Outputs are checked against bench/reference.py after the loop.

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it carries the
per-layer metrics derived from the traced passes' spans, which are
written to .bench_out/. See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PROBES = 5
BUDGET_S = 170.0
# Passes are counted, not timed, so that a run attempts the same
# operations whatever the machine's speed: about --seconds / PASS_S of
# them. A pass takes about 13, 2.7 and 2.6 s on the reference machine;
# PASS_S lies above that, so that a run stays near --seconds even in the
# machine's slow spells.
PASS_S = {"verify": 15.0, "counts": 3.0, "estimates": 3.0}


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def environment() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polybern").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
    }


def pass_count(workload: str, seconds: float, modes: int) -> int:
    """Passes of each mode in a run: at least one, about --seconds in all."""
    return max(1, round(seconds / (modes * PASS_S[workload])))


def spawn_pass(workload: str, seed: int, trace: bool, deadline: float, number: int, probe: bool = False) -> dict:
    """Run one worker to completion; its result stays on disk until `load_pass`.

    The parent keeps no pass data in memory while workers start, because a
    child's ru_maxrss starts from the parent's RSS at fork.
    """
    path = OUT / f"pass-{os.getpid()}-{number}.pickle"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(int(trace)), "--result", str(path)] + (["--import-only"] if probe else [])
    spawned = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass of {workload} did not finish within the run budget") from exc
    if done.returncode != 0:
        raise BenchError(f"worker exited with code {done.returncode}")
    return {"path": path, "spawned": spawned, "traced": trace}


def load_pass(handle: dict) -> dict:
    with open(handle["path"], "rb") as fh:
        result = pickle.load(fh)
    handle["path"].unlink()
    result["setup"] = result["ready"] - handle["spawned"]
    result["traced"] = handle["traced"]
    return result


def judge(workload: str, seed: int, passes: list[dict]) -> tuple[int, int, int]:
    """(attempted, failed, unexpected).

    unexpected counts the failures that make a run incorrect: outputs that
    fail their check, and raises outside `workloads.known_failure`.
    """
    if workload == "verify":
        return judge_verify(passes)
    return judge_calls(workloads.generate(workload, seed), passes, workloads.Checker())


def judge_verify(passes: list[dict]) -> tuple[int, int, int]:
    # Each criterion is one operation, judged by its line of the report.
    attempted = failed = 0
    expected = workloads.VERIFY_REPORT.splitlines()
    for p in passes:
        (report, code), error = p["outputs"][0], p["errors"][0]
        lines = report.splitlines()
        bad = sum(1 for i in range(workloads.VERIFY_CRITERIA) if i >= len(lines) or lines[i] != expected[i])
        if error is None and bad == 0 and (report != workloads.VERIFY_REPORT or code != 0):
            bad = 1
        attempted += workloads.VERIFY_CRITERIA
        failed += bad
    return attempted, failed, failed


def judge_calls(ops: list[tuple[str, tuple]], passes: list[dict], check) -> tuple[int, int, int]:
    # Passes share their inputs, so an output equal to the first pass's
    # reuses that pass's verdict instead of recomputing the reference.
    attempted = failed = unexpected = 0
    first = passes[0]["outputs"]
    first_ok: list[bool | None] = [None] * len(ops)
    for p in passes:
        for i, ((kind, args), out, error) in enumerate(zip(ops, p["outputs"], p["errors"], strict=True)):
            attempted += 1
            if error is not None:
                failed += 1
                unexpected += not workloads.known_failure(kind, args)
                continue
            same = out == first[i]
            ok = first_ok[i] if same and first_ok[i] is not None else check(kind, args, out)
            if same:
                first_ok[i] = ok
            if not ok:
                failed += 1
                unexpected += 1
    return attempted, failed, unexpected


def percentile(ordered: list[float], q: float) -> float:
    """Linear interpolation between order statistics, as statistics.quantiles'
    inclusive method gives it, and defined for a single value too."""
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(passes: list[dict], workers: list[dict], attempted: int, failed: int, scaled: bool = True) -> dict:
    """The end-to-end metrics of a run: set-up time over every worker, the rest over the passes.

    Times are put on the reference scale by the factors bench/speed.py
    read in each worker: a pass's wall time by the pass's factor, each
    operation's time by its own, set-up time by the worker's lead factor.
    With `scaled` false they are reported as measured.
    """

    def by(factor: float) -> float:
        return factor if scaled else 1.0

    wall = statistics.median(p["wall"] * by(p["factor"]) for p in passes)
    latency = sorted(x * by(f) for p in passes for x, f in zip(p["latency"], p["op_factors"]))
    return {
        "setup_s": statistics.median(p["setup"] * by(p["setup_factor"]) for p in workers),
        "wall_s": wall,
        "ops_per_s": attempted / len(passes) / wall,
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_p99_ms": percentile(latency, 0.99) * 1e3,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    names = traced[0]["layers"]
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    # Passes alternate untraced, traced; each pair runs back to back, so a
    # drift of the machine's speed mostly cancels within the pair.
    metrics["trace.overhead_s"] = statistics.median(t["wall"] - p["wall"] for p, t in zip(plain, traced))
    return metrics


def write_spans(path: Path, spans: list[list]) -> None:
    fields = ("name", "layer", "start", "end", "parent", "op", "args", "result", "raised")
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, span in enumerate(spans):
            fh.write(json.dumps({"id": span_id, **dict(zip(fields, span))}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated, the run unwinds through subprocess.run, which kills and
    # reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "polybern" / "__init__.py").is_file():
        print(f"bench: no polybern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    handles: list[dict] = []
    try:
        for _ in range(PROBES):
            handles.append(spawn_pass(args.workload, args.seed, False, deadline, len(handles), probe=True))
        modes = (False, True) if args.trace else (False,)
        for _ in range(pass_count(args.workload, args.seconds, len(modes))):
            for mode in modes:
                handles.append(spawn_pass(args.workload, args.seed, mode, deadline, len(handles)))
        loaded = [load_pass(h) for h in handles]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in OUT.glob(f"pass-{os.getpid()}-*.pickle"):
            path.unlink()
    every = loaded[PROBES:]
    plain = [p for p in every if not p["traced"]]
    traced = [p for p in every if p["traced"]]
    attempted, failed, unexpected = judge(args.workload, args.seed, every)
    values = per_layer(plain, traced) if args.trace else end_to_end(plain, loaded, attempted, failed)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        # Every traced pass of a run has the same inputs; one is kept.
        write_spans(OUT / f"spans-{stem}.jsonl", traced[0]["spans"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": env,
        "passes": len(every),
        "pass_walls": [p["wall"] for p in every],
        "pass_rss_mb": [p["rss_kb"] / 1024 for p in every],
        "setups": [p["setup"] for p in loaded],
        "factors": [p["factor"] for p in every],
        "setup_factors": [p["setup_factor"] for p in loaded],
        "unscaled": None if args.trace else end_to_end(plain, loaded, attempted, failed, scaled=False),
        "errors": sorted({e for p in every for e in p["errors"] if e}),
        "metrics": metrics,
    }
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env))
    result = {"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

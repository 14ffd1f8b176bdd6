"""Run every workload over several seeds and summarise, optionally
recording the summary as a point of bench/trajectory.json.

    python3 bench/trajectory.py --label parent
    python3 bench/trajectory.py --label my-change --record

Each end-to-end metric is reported as the median and quartiles of its
values over seeds 1-10, with the spread (q3 - q1) / median that
BENCHMARK.json's bounds are judged against. One traced run per workload (the first seed)
adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = done.stdout.splitlines()
    env = json.loads(lines[-2].removeprefix("env "))
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--record", action="store_true", help=f"append the summary to {TRAJECTORY.name}")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point = {"label": args.label, "seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in point["seeds"]:
            result, point["env"] = run_once(spec, workload, seed, seconds, 0)
            runs.append(result)
        traced, _ = run_once(spec, workload, 1, seconds, 1)
        summary = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
            "per_layer": traced["metrics"],
        }
        print(f"{workload}: correct={summary['correct']} failed={summary['failed']}")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            summary["end_to_end"][name] = stats
            steady = name == "setup_s" or stats["spread"] <= bound / 3
            flag = "" if steady else "  <-- spread above a third of the bound"
            print(
                f"  {name:12s} {stats['median']:.6g} {stats['unit']}  q1={stats['q1']:.6g} q3={stats['q3']:.6g}"
                f"  spread={stats['spread']:.4f} (bound {bound}){flag}"
            )
        point["workloads"][workload] = summary
    if args.record:
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else []
        history.append(point)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

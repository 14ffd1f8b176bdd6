"""One pass of a workload in a fresh interpreter.

Run by bench/run.py, never by hand: the interpreter starts with cold
caches (the Stirling table at 64, empty oracle caches), as a CLI user's
does. The pass imports polybern, notes when it is ready, runs every
operation once in a closed loop while `speed.SpeedProbe` samples the
machine's speed, and pickles one dict to --result.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import polybern  # noqa: E402
import polybern.cli  # noqa: E402

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polybern import lclt, quad, saddle, verify  # noqa: E402


def _bind(kind: str, args: tuple):
    module, name = workloads.CALLS[kind]
    fn = getattr(getattr(polybern, module), name)
    if kind == "acsv":
        gf = saddle.POLY_BERNOULLI_GF if args[0] == "B" else saddle.ML_DEGREE_GF
        args = (gf,) + args[1:]
    elif kind in ("residue", "laplace", "parseval"):
        args = args[:-1] + (quad.QuadratureSpec(nodes=args[-1]),)
    return fn, args


def _as_data(out):
    if dataclasses.is_dataclass(out):
        return dataclasses.astuple(out)
    return out


def _lclt_points(name: str, args) -> int:
    if name == "lclt_discrepancy":
        return lclt.window_limit(args[0], lclt.gaussian_params(args[1])) + 1
    if name == "ml_limit_discrepancy":
        lo, hi = lclt.ml_window(args[0], args[1] if len(args) > 1 else 2.0)
        return hi - lo + 1
    return 0


def run_calls(ops, tracer):
    bound = [_bind(kind, args) for kind, args in ops]
    if tracer is not None:
        bound = [(tracer.wrap_op(fn, op), args) for op, (fn, args) in enumerate(bound)]
    starts = [0.0] * len(bound)
    ends = [0.0] * len(bound)
    outputs = [None] * len(bound)
    errors = [None] * len(bound)
    clock = time.perf_counter
    for i, (fn, args) in enumerate(bound):
        starts[i] = clock()
        try:
            outputs[i] = fn(*args)
        except Exception as exc:
            errors[i] = f"{type(exc).__name__}: {exc}"
        ends[i] = clock()
    return starts, ends, [_as_data(out) for out in outputs], errors


def run_verify(tracer):
    # The latency sample is the whole command. Per criterion, the median
    # would fall on one of criteria 2, 3 and 7 (each under 0.15 s), which
    # sample a fraction of a second of each pass and so follow the
    # machine's speed at that instant rather than the work done.
    if tracer is not None:
        tracing.trace_verify(verify, tracer)
    report = io.StringIO()
    error = None
    begin = time.perf_counter()
    try:
        with contextlib.redirect_stdout(report):
            code = polybern.cli.main(["verify"])
    except Exception as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    return [begin], [time.perf_counter()], [(report.getvalue(), code)], [error]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="file to write the pickled result to")
    parser.add_argument("--import-only", action="store_true", help="only import polybern and report when ready")
    args = parser.parse_args()
    warnings.simplefilter("ignore", saddle.CompactnessWarning)
    result = {"ready": READY}
    tracer = tracing.Tracer() if args.trace else None
    # Traced passes take no periodic samples, so that spans hold only the
    # library's time; their times are not scaled.
    with speed.SpeedProbe(period=0.0 if args.trace else speed.PERIOD_S) as probe:
        if args.import_only:
            timed = None
        elif args.workload == "verify":
            timed = run_verify(tracer)
        else:
            timed = run_calls(workloads.generate(args.workload, args.seed), tracer)
    result["setup_factor"] = probe.setup_factor()
    if timed is not None:
        starts, ends, outputs, errors = timed
        # Times leave out the kernel samples taken while the pass ran.
        stolen = probe.stolen(starts, ends)
        latency = [end - start - s for start, end, s in zip(starts, ends, stolen)]
        result["factor"] = probe.factor()
        result["op_factors"] = probe.op_factors(starts, ends)
        wall = ends[-1] - starts[0] - probe.stolen([starts[0]], [ends[-1]])[0]
        result.update(
            wall=wall,
            latency=latency,
            outputs=outputs,
            errors=errors,
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            spans = tracer.export()
            result["spans"] = spans
            result["layers"] = tracing.layer_metrics(spans, wall, _lclt_points)
    with open(args.result, "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main())

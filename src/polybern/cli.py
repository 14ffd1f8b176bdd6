"""Command-line front end.

Subcommands expose each layer: exact tables, oracle cross-checks,
asymptotic comparisons, quadrature verifications, LCLT figure data, and
the full acceptance suite. Output is deterministic: counts are decimal
strings, floats use shortest round-trip formatting, rows are ordered by
(n, k), and no timings or host data are emitted.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Sequence

import polybern
from polybern import GuardError, exactcomb, log_of_count, poly_bernoulli

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3


# oracle name -> (the name of its brute-force counter, the sequence it counts),
# for `oracle --which`. Like exactcomb.FAMILY it names functions the package
# root loads on first use, so `exact` loads no layer but exactcomb.
_ORACLES = {
    "lonesum": ("count_lonesum", "B"),
    "gamma": ("count_gamma_free", "B"),
    "orient": ("count_acyclic_orientations", "B"),
    "veszt": ("count_vesztergombi", "B"),
    "excedance": ("count_excedance_word", "C"),
}

# header, rows, and named trailer records (name -> field -> value)
_Table = tuple[list[str], list[Sequence[object]], dict[str, dict[str, object]]]


def _span(text: str) -> range:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected INT or LO..HI, got {text!r}") from None
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"empty or negative range {text!r}")
    return range(lo, hi + 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polybern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="file path; stdout when omitted")

    p_exact = sub.add_parser("exact", help="exact counts of one sequence over a grid")
    p_exact.add_argument("--seq", choices=tuple(exactcomb.FAMILY), required=True)
    p_exact.add_argument("--n", type=_span, required=True)
    p_exact.add_argument("--k", type=_span, required=True)
    add_output(p_exact)
    p_exact.set_defaults(run=_run_exact)

    p_oracle = sub.add_parser("oracle", help="brute-force counts against the formula layer")
    p_oracle.add_argument("--which", choices=tuple(_ORACLES), required=True)
    p_oracle.add_argument("--n", type=_span, required=True)
    p_oracle.add_argument("--k", type=_span, required=True)
    add_output(p_oracle)
    p_oracle.set_defaults(run=_run_oracle)

    p_asym = sub.add_parser("asym", help="log-space estimates against exact counts")
    p_asym.add_argument("--target", choices=tuple(exactcomb.FAMILY), required=True)
    p_asym.add_argument("--order", type=int, choices=(1, 2), default=1)
    p_asym.add_argument("--n", type=_span, required=True)
    p_asym.add_argument("--k", type=_span, required=True)
    add_output(p_asym)
    p_asym.set_defaults(run=_run_asym)

    p_quad = sub.add_parser("quad", help="quadrature values and defects")
    p_quad.add_argument("--which", choices=("parseval", "laplace", "residue"), required=True)
    p_quad.add_argument("--nodes", type=int, default=4096)
    p_quad.add_argument("--n", type=_span, default=None, help="residue only, required there")
    p_quad.add_argument("--k", type=_span, required=True)
    add_output(p_quad)
    p_quad.set_defaults(run=_run_quad)

    p_lclt = sub.add_parser("lclt", help="figure data and discrepancy report for one row")
    p_lclt.add_argument("--which", choices=(*exactcomb.SHIFTS, "ML"), required=True)
    p_lclt.add_argument("--n", type=int, required=True)
    p_lclt.add_argument("--window", type=float, default=None, help="ML only; 2.0 when omitted")
    add_output(p_lclt)
    p_lclt.set_defaults(run=_run_lclt)

    sub.add_parser("verify", help="run the acceptance suite; nonzero exit on failure")
    return parser


def _run_exact(args: argparse.Namespace) -> _Table:
    count = exactcomb.FAMILY[args.seq][0]
    return ["n", "k", "value"], [[n, k, str(count(n, k))] for n in args.n for k in args.k], {}


def _run_oracle(args: argparse.Namespace) -> _Table:
    oracle_name, letter = _ORACLES[args.which]
    oracle_fn = getattr(polybern, oracle_name)
    formula_fn = exactcomb.FAMILY[letter][0]
    rows: list[Sequence[object]] = []
    for n in args.n:
        for k in args.k:
            got = oracle_fn(n, k)
            expected = formula_fn(n, k)
            rows.append([n, k, str(got), str(expected), 1 if got == expected else 0])
    return ["n", "k", "oracle", "formula", "match"], rows, {}


def _run_asym(args: argparse.Namespace) -> _Table:
    count, estimator = exactcomb.FAMILY[args.target]
    estimate = getattr(polybern, estimator)
    rows: list[Sequence[object]] = []
    for n in args.n:
        for k in args.k:
            log_exact = log_of_count(count(n, k))
            if args.order == 1:
                log_estimate = estimate(n, k)
            elif args.target == "B" and n == k:
                log_estimate = polybern.diag_asym_log(k, 2)
            else:
                raise ValueError("order 2 exists on the B diagonal only")
            rows.append([n, k, log_exact, log_estimate, math.exp(log_exact - log_estimate) - 1.0])
    return ["n", "k", "log_exact", "log_estimate", "relative_error"], rows, {}


def _run_quad(args: argparse.Namespace) -> _Table:
    if args.which != "residue" and args.n is not None:
        raise ValueError(f"quad --which {args.which} takes no --n")
    if args.which == "residue" and args.n is None:
        raise ValueError("quad --which residue needs --n")
    spec = polybern.QuadratureSpec(nodes=args.nodes)
    rows: list[Sequence[object]] = []
    if args.which == "parseval":
        for k in args.k:
            value = polybern.parseval_b(k, spec)
            exact = poly_bernoulli(k, k)
            rows.append([k, value, str(exact), value / exact - 1.0])
        return ["k", "value", "exact", "relative_defect"], rows, {}
    if args.which == "laplace":
        for k in args.k:
            log_integral = polybern.laplace_integral_diag(k, spec)
            if k == 0:  # diag_asym_log starts at k = 1
                rows.append([k, log_integral, None, None])
                continue
            log_prediction = polybern.diag_asym_log(k, 1) - 2.0 * math.lgamma(k + 1)
            rows.append([k, log_integral, log_prediction, math.exp(log_integral - log_prediction) - 1.0])
        return ["k", "log_integral", "log_prediction", "ratio_defect"], rows, {}
    for n in args.n:
        for k in args.k:
            log_integral = polybern.residue_integral_b(n, k, spec)
            log_exact = log_of_count(poly_bernoulli(n, k))
            rows.append([n, k, log_integral, log_exact, log_integral - log_exact])
    return ["n", "k", "log_integral", "log_exact", "log_defect"], rows, {}


def _run_lclt(args: argparse.Namespace) -> _Table:
    rows, report = polybern.lclt.lclt_rows(args.n, args.which, args.window)
    trailer = {"n": report.n, "sup": report.sup, "argmax_k": report.argmax_k}
    return ["k", "scaled", "reference"], rows, {"discrepancy": trailer}


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(fmt: str, table: _Table) -> str:
    header, rows, trailers = table
    if fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        for name, fields in trailers.items():
            lines.append(",".join([f"# {name}"] + [f"{key}={_cell(v)}" for key, v in fields.items()]))
        return "\n".join(lines) + "\n"
    import json  # only here: CSV, the default, and verify never load it

    payload: dict[str, object] = {
        "header": header,
        "rows": [dict(zip(header, row)) for row in rows],
        **trailers,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _write(output: str | None, text: str) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as sink:
                sink.write(text)
        except OSError as exc:  # a missing directory, a directory, no permission
            raise ValueError(f"cannot write --output {output}: {exc.strerror}") from None


def _run_verify() -> int:
    results = polybern.run_all()
    for line in polybern.report_lines(results):
        sys.stdout.write(line + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _run_verify()
        _write(args.output, _emit(args.format, args.run(args)))
    except GuardError as exc:
        sys.stderr.write(f"guard violation: {exc}\n")
        return EXIT_GUARD
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

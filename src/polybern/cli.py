"""Command-line front end.

Subcommands expose each layer: exact tables, oracle cross-checks,
asymptotic comparisons, quadrature verifications, LCLT figure data, and
the full acceptance suite. Output is deterministic: counts are decimal
strings, floats use shortest round-trip formatting, rows are ordered by
(n, k), and no timings or environment data are emitted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import lclt, oracle, quad, saddle, verify
from .exactcomb import GuardError, c_relative, log_of_count, ml_degree, poly_bernoulli

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; ranges are inclusive (lo, hi) pairs."""

    command: str
    selector: str = ""
    n: tuple[int, int] = (0, 0)
    k: tuple[int, int] = (0, 0)
    order: int = 1
    nodes: int = 4096
    radius: float | None = None
    window: float = 2.0
    fmt: str = "csv"
    output: str | None = None


# header, rows, and named trailer records (name -> field -> value)
_Table = tuple[list[str], list[list[object]], dict[str, dict[str, object]]]


def _span(text: str) -> tuple[int, int]:
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
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polybern", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="file path; stdout when omitted")

    p_exact = sub.add_parser("exact", help="exact counts of one sequence over a grid")
    p_exact.add_argument("--seq", choices=("B", "C", "D"), required=True)
    p_exact.add_argument("--n", type=_span, required=True)
    p_exact.add_argument("--k", type=_span, required=True)
    add_output(p_exact)

    p_oracle = sub.add_parser("oracle", help="brute-force counts against the formula layer")
    p_oracle.add_argument(
        "--which", choices=("lonesum", "gamma", "orient", "veszt", "excedance"), required=True
    )
    p_oracle.add_argument("--n", type=_span, required=True)
    p_oracle.add_argument("--k", type=_span, required=True)
    add_output(p_oracle)

    p_asym = sub.add_parser("asym", help="log-space estimates against exact counts")
    p_asym.add_argument("--target", choices=("B", "D", "ML", "EXC"), required=True)
    p_asym.add_argument("--order", type=int, choices=(1, 2), default=1)
    p_asym.add_argument("--n", type=_span, required=True)
    p_asym.add_argument("--k", type=_span, required=True)
    add_output(p_asym)

    p_quad = sub.add_parser("quad", help="quadrature values and defects")
    p_quad.add_argument("--which", choices=("parseval", "laplace", "residue"), required=True)
    p_quad.add_argument("--nodes", type=int, default=4096)
    p_quad.add_argument("--radius", type=float, default=None)
    p_quad.add_argument("--n", type=_span, default=None)
    p_quad.add_argument("--k", type=_span, required=True)
    add_output(p_quad)

    p_lclt = sub.add_parser("lclt", help="figure data and discrepancy report for one row")
    p_lclt.add_argument("--which", choices=("B", "D", "ML"), required=True)
    p_lclt.add_argument("--n", type=int, required=True)
    p_lclt.add_argument("--window", type=float, default=2.0)
    add_output(p_lclt)

    sub.add_parser("verify", help="run the acceptance suite; nonzero exit on failure")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "verify":
        return RunConfig(command="verify")
    selector = getattr(args, "seq", None) or getattr(args, "which", None) or getattr(args, "target", "")
    n_span = getattr(args, "n", None)
    if command == "lclt":
        n_span = (args.n, args.n)
    elif command == "quad" and n_span is None:
        if selector == "residue":
            raise ValueError("quad --which residue needs --n")
        n_span = (0, 0)
    return RunConfig(
        command=command,
        selector=selector,
        n=n_span,
        k=getattr(args, "k", (0, 0)),
        order=getattr(args, "order", 1),
        nodes=getattr(args, "nodes", 4096),
        radius=getattr(args, "radius", None),
        window=getattr(args, "window", 2.0),
        fmt=args.format,
        output=args.output,
    )


def _run_exact(cfg: RunConfig) -> _Table:
    fn = {"B": poly_bernoulli, "C": c_relative, "D": ml_degree}[cfg.selector]
    rows: list[list[object]] = []
    for n in range(cfg.n[0], cfg.n[1] + 1):
        for k in range(cfg.k[0], cfg.k[1] + 1):
            rows.append([n, k, str(fn(n, k))])
    return ["n", "k", "value"], rows, {}


def _run_oracle(cfg: RunConfig) -> _Table:
    oracle_fn = {
        "lonesum": oracle.count_lonesum,
        "gamma": oracle.count_gamma_free,
        "orient": oracle.count_acyclic_orientations,
        "veszt": oracle.count_vesztergombi,
        "excedance": oracle.count_excedance_word,
    }[cfg.selector]
    formula_fn = c_relative if cfg.selector == "excedance" else poly_bernoulli
    rows: list[list[object]] = []
    for n in range(cfg.n[0], cfg.n[1] + 1):
        for k in range(cfg.k[0], cfg.k[1] + 1):
            got = oracle_fn(n, k)
            expected = formula_fn(n, k)
            rows.append([n, k, str(got), str(expected), 1 if got == expected else 0])
    return ["n", "k", "oracle", "formula", "match"], rows, {}


# target -> (exact count, bivariate estimator) for the off-diagonal targets
_BIVARIATE = {
    "ML": (ml_degree, saddle.ml_asym_log),
    "EXC": (c_relative, saddle.excedance_asym_log),
}


def _asym_pair(target: str, order: int, n: int, k: int) -> tuple[float, float]:
    if target == "B":
        exact = log_of_count(poly_bernoulli(n, k))
        if n == k:
            return exact, saddle.diag_asym_log(k, order)
        if order != 1:
            raise ValueError("order 2 exists on the diagonal only")
        return exact, saddle.bivar_asym_log(n, k)
    if order != 1:
        raise ValueError(f"target {target} has no order-2 estimate")
    if target == "D":
        if n != k:
            raise ValueError("target D is the corrected diagonal; needs n == k")
        return log_of_count(ml_degree(n, k)), saddle.d_diag_asym_log(k)
    exact_fn, estimate_fn = _BIVARIATE[target]
    return log_of_count(exact_fn(n, k)), estimate_fn(n, k)


def _run_asym(cfg: RunConfig) -> _Table:
    rows: list[list[object]] = []
    for n in range(cfg.n[0], cfg.n[1] + 1):
        for k in range(cfg.k[0], cfg.k[1] + 1):
            log_exact, log_estimate = _asym_pair(cfg.selector, cfg.order, n, k)
            relative = math.exp(log_exact - log_estimate) - 1.0
            rows.append([n, k, log_exact, log_estimate, relative])
    return ["n", "k", "log_exact", "log_estimate", "relative_error"], rows, {}


def _run_quad(cfg: RunConfig) -> _Table:
    spec = quad.QuadratureSpec(nodes=cfg.nodes, radius=cfg.radius)
    rows: list[list[object]] = []
    if cfg.selector == "parseval":
        for k in range(cfg.k[0], cfg.k[1] + 1):
            value = quad.parseval_b(k, spec)
            exact = poly_bernoulli(k, k)
            rows.append([k, value, str(exact), value / exact - 1.0])
        return ["k", "value", "exact", "relative_defect"], rows, {}
    if cfg.selector == "laplace":
        for k in range(cfg.k[0], cfg.k[1] + 1):
            log_integral = quad.laplace_integral_diag(k, spec)
            log_prediction = saddle.diag_asym_log(k, 1) - 2.0 * math.lgamma(k + 1)
            rows.append([k, log_integral, log_prediction, math.exp(log_integral - log_prediction) - 1.0])
        return ["k", "log_integral", "log_prediction", "ratio_defect"], rows, {}
    for n in range(cfg.n[0], cfg.n[1] + 1):
        for k in range(cfg.k[0], cfg.k[1] + 1):
            log_integral = quad.residue_integral_b(n, k, spec)
            log_exact = log_of_count(poly_bernoulli(n, k))
            rows.append([n, k, log_integral, log_exact, log_integral - log_exact])
    return ["n", "k", "log_integral", "log_exact", "log_defect"], rows, {}


def _run_lclt(cfg: RunConfig) -> _Table:
    n = cfg.n[0]
    rows: list[list[object]] = []
    if cfg.selector in ("B", "D"):
        p = lclt.gaussian_params(cfg.selector)
        report = lclt.lclt_discrepancy(n, cfg.selector)
        for k in range(lclt.window_limit(n, p) + 1):
            rows.append(
                [k, lclt.scaled_coefficient(n, k, cfg.selector), p.prefactor * lclt.nu_density(n, k, p)]
            )
    else:
        report = lclt.ml_limit_discrepancy(n, cfg.window)
        lo, hi = lclt.ml_window(n, cfg.window)
        for k in range(lo, hi + 1):
            rows.append([k, lclt.ml_scaled_coefficient(n, k), lclt.ml_limit_shape(n, k)])
    trailer = {"n": report.n, "sup": report.sup, "argmax_k": report.argmax_k}
    return ["k", "scaled", "reference"], rows, {"discrepancy": trailer}


def _cell(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(cfg: RunConfig, table: _Table) -> str:
    header, rows, trailers = table
    if cfg.fmt == "csv":
        lines = [",".join(header)]
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
        for name, fields in trailers.items():
            lines.append(",".join([f"# {name}"] + [f"{key}={_cell(v)}" for key, v in fields.items()]))
        return "\n".join(lines) + "\n"
    payload: dict[str, object] = {
        "header": header,
        "rows": [dict(zip(header, row)) for row in rows],
        **trailers,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.output is None:
        sys.stdout.write(text)
    else:
        with open(cfg.output, "w", encoding="utf-8") as sink:
            sink.write(text)


def _run_verify() -> int:
    results = verify.run_all()
    for line in verify.report_lines(results):
        sys.stdout.write(line + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED


_RUNNERS = {
    "exact": _run_exact,
    "oracle": _run_oracle,
    "asym": _run_asym,
    "quad": _run_quad,
    "lclt": _run_lclt,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        if cfg.command == "verify":
            return _run_verify()
        _write(cfg, _emit(cfg, _RUNNERS[cfg.command](cfg)))
    except GuardError as exc:
        sys.stderr.write(f"guard violation: {exc}\n")
        return EXIT_GUARD
    except ValueError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs for the benchmark workloads and the checks on their outputs.

An operation is a pair (kind, args) of plain data. The worker binds it to
a library call (`CALLS`); the parent checks what came back against
`reference`. Group sizes are fixed and values are spread one per stratum
before shuffling, so the seed changes the inputs but hardly the amount of
work, and figures from different seeds stay comparable.
"""

from __future__ import annotations

import math
import random

import reference

WORKLOADS = ("verify", "counts", "estimates")

# kind -> (module under polybern, public function)
CALLS = {
    "B": ("exactcomb", "poly_bernoulli"),
    "C": ("exactcomb", "c_relative"),
    "D": ("exactcomb", "ml_degree"),
    "lclt": ("lclt", "lclt_discrepancy"),
    "ml_lclt": ("lclt", "ml_limit_discrepancy"),
    "saddle_point": ("saddle", "saddle_point"),
    "bivar": ("saddle", "bivar_asym_log"),
    "ml": ("saddle", "ml_asym_log"),
    "excedance": ("saddle", "excedance_asym_log"),
    "acsv": ("saddle", "acsv_general_log"),
    "diag": ("saddle", "diag_asym_log"),
    "residue": ("quad", "residue_integral_b"),
    "laplace": ("quad", "laplace_integral_diag"),
    "parseval": ("quad", "parseval_b"),
}

# The report `polybern verify` prints at this commit when every criterion passes.
VERIFY_REPORT = (
    "criterion 1 oracle-equivalence: PASS (83 matrix shapes, 45 permutation shapes)\n"
    "criterion 2 formula-identities: PASS (symmetry, IE, Stirling, diagonal sums)\n"
    "criterion 3 saddle-layer: PASS (200-point grid and 50x50 critical equations)\n"
    "criterion 4 specialization: PASS (30x30 grid plus 50 diagonal reductions)\n"
    "criterion 5 asymptotic-accuracy: PASS (diagonal ratio bounds and (2t,3t) trends)\n"
    "criterion 6 quadrature: PASS (parseval k<=10, residue (8,12), laplace k=100)\n"
    "criterion 7 lclt: PASS (constants, decreasing discrepancies, shape peak)\n"
    "all criteria passed\n"
)
VERIFY_CRITERIA = 7

# counts: per pass 2700 dense values, 300 large values and 12 LCLT rows.
DENSE_PER_SEQ = 900
LARGE_PER_SEQ = 100
LCLT_ROWS_PER_KIND = 4

# estimates: per pass 5600 calls of each of the 7 estimator kinds and 800
# quadrature calls (2%). Residue takes 1.2% of all calls, so p99 falls
# inside the residue distribution and p50 inside the saddle-based
# estimators (diagonal calls are the cheapest 28%).
ESTIMATOR_CALLS = 5600
OFF_BAND_SHARE = 0.05
MAX_SIZE = 10**6
RESIDUE_CALLS = {1024: 420, 4096: 60}
LAPLACE_CALLS = 160
LAPLACE_NODES = (512, 1024)
PARSEVAL_CALLS = 160


def _spread(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    # One uniform draw in each of `count` equal strata of [lo, hi), shuffled.
    width = (hi - lo) / count
    values = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(values)
    return values


def _ints(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    return [min(hi, int(v)) for v in _spread(rng, count, lo, hi + 1)]


def _log_spread(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    return [math.exp(v) for v in _spread(rng, count, math.log(lo), math.log(hi))]


def _pairs(rng, count, n_range, k_range):
    return list(zip(_ints(rng, count, *n_range), _ints(rng, count, *k_range)))


def counts_ops(seed: int) -> list[tuple[str, tuple]]:
    """Requests shaped like `polybern exact` and `polybern lclt`."""
    rng = random.Random(f"counts:{seed}")
    ops: list[tuple[str, tuple]] = []
    for seq, top in (("B", 128), ("D", 128), ("C", 64)):
        ops += [(seq, pair) for pair in _pairs(rng, DENSE_PER_SEQ, (0, top), (0, top))]
    for seq, k_range in (("B", (256, 511)), ("D", (256, 511)), ("C", (0, 96))):
        ops += [(seq, pair) for pair in _pairs(rng, LARGE_PER_SEQ, (256, 511), k_range)]
    # A row costs roughly n^3, so B and D take mirrored points of each
    # stratum of [10, 200]; their sum then barely moves with the seed.
    width = (200 - 10) / LCLT_ROWS_PER_KIND
    for i in range(LCLT_ROWS_PER_KIND):
        u = rng.random()
        ops.append(("lclt", (round(10 + (i + u) * width), "B")))
        ops.append(("lclt", (round(10 + (i + 1 - u) * width), "D")))
    ops += [("ml_lclt", (n, 2.0)) for n in _ints(rng, LCLT_ROWS_PER_KIND, 2, 120)]
    # Requests arrive in ascending n, the order `polybern exact` walks a
    # grid. The Stirling table then grows through the same sizes for every
    # seed, so peak memory does not hinge on which request happens to come
    # first.
    rng.shuffle(ops)
    ops.sort(key=lambda op: op[1][0])
    return ops


def _directions(rng: random.Random, count: int) -> list[tuple[int, int]]:
    # 95% of directions n/k log-uniform in [1/10, 10], the rest split between
    # [1/300, 1/10) and (10, 300]. The smaller side is log-uniform in
    # [1, 10^6 / max(r, 1/r)], so both sides stay within [1, 10^6].
    off = round(count * OFF_BAND_SHARE) // 2
    ratios = (
        _log_spread(rng, count - 2 * off, 0.1, 10.0)
        + _log_spread(rng, off, 1 / 300, 0.1)
        + _log_spread(rng, off, 10.0, 300.0)
    )
    rng.shuffle(ratios)
    pairs = []
    for r in ratios:
        stretch = max(r, 1.0 / r)
        small = max(1, round(math.exp(rng.uniform(0.0, math.log(MAX_SIZE / stretch)))))
        large = round(small * stretch)
        pairs.append((large, small) if r >= 1.0 else (small, large))
    return pairs


def estimates_ops(seed: int) -> list[tuple[str, tuple]]:
    """Estimator calls over the whole cone plus quadrature cross-checks."""
    rng = random.Random(f"estimates:{seed}")
    ops: list[tuple[str, tuple]] = []
    for kind in ("saddle_point", "bivar", "ml", "excedance"):
        ops += [(kind, pair) for pair in _directions(rng, ESTIMATOR_CALLS)]
    ops += [("acsv", (rng.choice("BD"), n, k)) for n, k in _directions(rng, ESTIMATOR_CALLS)]
    for order in (1, 2):
        sizes = _log_spread(rng, ESTIMATOR_CALLS, 1.0, MAX_SIZE)
        ops += [("diag", (max(1, round(s)), order)) for s in sizes]
    residue_total = sum(RESIDUE_CALLS.values())
    nodes = [n for n, count in RESIDUE_CALLS.items() for _ in range(count)]
    rng.shuffle(nodes)
    ops += [("residue", (n, k, m)) for (n, k), m in zip(_pairs(rng, residue_total, (1, 40), (1, 40)), nodes)]
    ops += [("laplace", (k, rng.choice(LAPLACE_NODES))) for k in _ints(rng, LAPLACE_CALLS, 0, 300)]
    for k in _ints(rng, PARSEVAL_CALLS, 0, 20):
        ops.append(("parseval", (k, 1 << max(3, (2 * k + 3).bit_length()))))
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int) -> list[tuple[str, tuple]]:
    """Operations of one pass of `counts` or `estimates`; verify has no inputs."""
    return {"counts": counts_ops, "estimates": estimates_ops}[workload](seed)


# Inputs that raise at the commit the benchmark was defined at. Their
# raises are counted as failed operations; a raise on any other input
# makes the run incorrect. The saddle-based estimators solve f(t) = n/k
# from a bracket seeded at 2^-40 and halved at most 200 times, so
# directions below f(2^-240) cannot be bracketed ("bracket shrink failed").
SADDLE_KINDS = ("saddle_point", "bivar", "ml", "excedance", "acsv")
SADDLE_MIN_RATIO = reference.f_dir(2.0**-240)
# acsv_general_log's Q cancels to 0 from n/k of about 250.22 on.
ACSV_MAX_RATIO = 250.0
# (n, k, nodes) over the whole residue domain [1, 40]^2 at 1024 and 4096 nodes.
RESIDUE_FAILURES = frozenset(
    [(n, k, m) for m in (1024, 4096) for n, k in ((1, 37), (31, 1), (35, 1))]
    + [(n, k, m) for m in (1024, 4096) for j in (38, 39, 40) for n, k in ((1, j), (j, 1))]
    + [(33, 1, 4096), (36, 1, 4096)]
)


def known_failure(kind: str, args: tuple) -> bool:
    """Whether a raise on this input is one of the failures listed above."""
    if kind in SADDLE_KINDS:
        n, k = args[-2:]
        return n / k < SADDLE_MIN_RATIO or (kind == "acsv" and n / k > ACSV_MAX_RATIO)
    return kind == "residue" and args in RESIDUE_FAILURES


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


class Checker:
    """Decides whether one operation's output is right, by reference code only."""

    def __init__(self, exact: reference.ExactReference | None = None):
        self.exact = exact or reference.ExactReference()

    def __call__(self, kind: str, args: tuple, out) -> bool:
        if kind in ("B", "C", "D"):
            return out == getattr(self.exact, kind.lower())(*args)
        if kind in ("lclt", "ml_lclt"):
            n, sup, argmax_k = out
            return n == args[0] and _finite(sup) and sup >= 0.0 and argmax_k >= 0
        if kind == "saddle_point":
            n, k = args
            a, b, _ = out
            lhs = k * a * math.exp(-a)
            rhs = n * b * math.exp(-b)
            return (
                _finite(a, b)
                and a > 0.0
                and b > 0.0
                and abs(math.exp(-a) + math.exp(-b) - 1.0) <= reference.VARIETY_TOL
                and abs(lhs - rhs) <= reference.CRITICAL_TOL * max(lhs, rhs)
            )
        if kind == "acsv":
            # The 1e-9 agreement is stated inside the band [1/10, 10]; off it
            # the library warns that estimates are untrusted and promises
            # only that they evaluate.
            _, n, k = args
            if not 0.1 <= n / k <= 10.0:
                return _finite(out)
            return reference.acsv_close(out, reference.acsv_closed_form(*args))
        if kind == "parseval":
            exact = self.exact.b(args[0], args[0])
            return _finite(out) and abs(out / exact - 1.0) <= reference.PARSEVAL_TOL
        if kind in CALLS:
            return _finite(out)
        raise ValueError(f"no check for kind {kind!r}")

"""Acceptance suite: every release criterion as a callable check.

Each criterion returns a CriterionResult with a deterministic detail
string (no timings, no host or version data), so consecutive runs emit
byte-identical reports. Each check passes only on a comparison that
holds, as `not error <= tol`, so a NaN from the layer it checks fails it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import lclt, oracle, quad, saddle
from .exactcomb import (
    FAMILY,
    SHIFTS,
    _u_row,
    c_relative,
    log_of_count,
    ml_degree,
    ml_degree_inclusion_exclusion,
    poly_bernoulli,
    stirling2,
    stirling2_explicit,
)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str


def _result(index: int, name: str, failures: list[str], detail_ok: str) -> CriterionResult:
    if failures:
        return CriterionResult(index, name, False, "; ".join(failures[:8]))
    return CriterionResult(index, name, True, detail_ok)


def _family() -> dict[str, tuple]:
    # Letter -> (label, exact count, estimator, shift pair) from FAMILY and
    # SHIFTS. Each function is read by name, per call, from this module's
    # imports and saddle, so that a replaced function is the one checked.
    return {
        letter: (name.removesuffix("_asym_log"), globals()[count.__name__], getattr(saddle, name), SHIFTS[letter])
        for letter, (count, name) in FAMILY.items()
    }


def criterion_oracle_equivalence() -> CriterionResult:
    """Brute-force counts agree exactly with the formula layer."""
    matrix_pairs = [(n, k) for n in range(17) for k in range(17) if n * k <= 16]
    perm_pairs = [(n, k) for n in range(9) for k in range(9) if n + k <= 8]
    word_pairs = [(n, k) for n, k in perm_pairs if n >= 1]  # the excedance word needs r = n >= 1
    restricted = oracle.count_lonesum_restricted
    # (label, counter, sequence letter, shapes), built per call as _family is
    checks = (
        ("lonesum({},{})", oracle.count_lonesum, "B", matrix_pairs),
        ("gamma({},{})", oracle.count_gamma_free, "B", matrix_pairs),
        ("orientations({},{})", oracle.count_acyclic_orientations, "B", matrix_pairs),
        ("restricted({},{},F,T)", lambda n, k: restricted(n, k, False, True), "C", matrix_pairs),
        ("restricted({},{},T,T)", lambda n, k: restricted(n, k, True, True), "D", matrix_pairs),
        ("vesztergombi({},{})", oracle.count_vesztergombi, "B", perm_pairs),
        ("excedance({},{})", oracle.count_excedance_word, "C", word_pairs),
    )
    family = _family()
    failures: list[str] = []
    for label, count, letter, shapes in checks:
        for n, k in shapes:
            got, want = count(n, k), family[letter][1](n, k)
            if got != want:
                failures.append(f"{label.format(n, k)}={got} != {letter}={want}")
    shapes = f"{len(matrix_pairs)} matrix shapes, {len(perm_pairs)} permutation shapes"
    return _result(1, "oracle-equivalence", failures, shapes)


def criterion_formula_identities() -> CriterionResult:
    """Exact identities among the closed-form counts."""
    # (failure text, grid, left side, right side), built per call as in criterion 1
    identities = (
        ("B({},{}) asymmetric", [(n, k) for n in range(31) for k in range(n + 1, 31)],
         poly_bernoulli, lambda n, k: poly_bernoulli(k, n)),
        ("D({},{}) != inclusion-exclusion", [(n, k) for n in range(16) for k in range(16)],
         ml_degree, ml_degree_inclusion_exclusion),
        ("S({},{}) mismatch", [(n, m) for n in range(41) for m in range(n + 1)],
         stirling2, stirling2_explicit),
        ("diagonal square sum k={}", [(k,) for k in range(41)],
         lambda k: sum(u * u for u in _u_row(k, 1)), lambda k: poly_bernoulli(k, k)),
        # Fermat analogues (Brewbaker 2008): B(p, k) = 2^k, C(p, k) = 1 and
        # D(p, k) = 1 mod a prime p for 1 <= k <= p, here on kept rows 130
        # and 132 and derived rows 129 and 131
        ("B, C, D({},{}) not 2^k, 1, 1 mod p", [(131, k) for k in (41, 66, 129, 130, 131)],
         lambda p, k: (poly_bernoulli(p, k) % p, c_relative(p, k) % p, ml_degree(p, k) % p),
         lambda p, k: (pow(2, k, p), 1, 1)),
    )
    failures = [
        text.format(*args) for text, grid, lhs, rhs in identities for args in grid if lhs(*args) != rhs(*args)
    ]
    return _result(2, "formula-identities", failures, "symmetry, IE, Stirling, diagonal sums")


def criterion_saddle_layer() -> CriterionResult:
    """Direction function, inverse, and critical equations at tolerance."""
    failures: list[str] = []
    if not abs(saddle.f_dir(saddle.LOG2) - 1.0) <= 1e-12:
        failures.append("f(log 2) != 1")
    if not abs(saddle.f_inverse(1.0) - saddle.LOG2) <= 1e-12:
        failures.append("f_inverse(1) != log 2")
    span = 20.0 / 0.05
    for i in range(200):
        r = 0.05 * span ** (i / 199.0)
        t = saddle.f_inverse(r)
        if not abs(saddle.f_dir(t) - r) <= 1e-11 * max(1.0, r):
            failures.append(f"round trip at r={r!r}")
        if not abs(math.exp(-t) + math.exp(-saddle.f_inverse(1.0 / r)) - 1.0) <= 1e-11:
            failures.append(f"variety identity at r={r!r}")
    for n in range(1, 51):
        for k in range(1, 51):
            sp = saddle.saddle_point(n, k)
            lhs = k * sp.a * math.exp(-sp.a)
            rhs = n * sp.b * math.exp(-sp.b)
            if not abs(lhs - rhs) <= 1e-9 * max(lhs, rhs):
                failures.append(f"critical equation at ({n},{k})")
    return _result(3, "saddle-layer", failures, "200-point grid and 50x50 critical equations")


def criterion_specialization() -> CriterionResult:
    """General smooth-point formula reproduces every closed-form estimator."""
    family = _family().values()
    failures: list[str] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", saddle.CompactnessWarning)
        for n in range(1, 31):
            for k in range(1, 31):
                for label, _, closed_form, shift in family:
                    gap = abs(saddle.acsv_general_log(shift, n, k) - closed_form(n, k))
                    if not gap <= 1e-9:
                        failures.append(f"acsv vs {label} at ({n},{k}): {gap:.3e}")
        for k in range(1, 51):
            # The paper's diagonal form, B(k,k) ~ (k!)^2 sqrt(1/(k pi (1 - log 2)))
            # (1/log 2)^(2k+1); C(k,k) is its half and D(k,k) its quarter.
            paper = (
                2.0 * math.lgamma(k + 1)
                - (2 * k + 1) * math.log(saddle.LOG2)
                - 0.5 * math.log(k * math.pi * (1 - saddle.LOG2))
            )
            for label, _, closed_form, (dn, dk) in family:
                if not abs(closed_form(k, k) - (paper - (2 - dn - dk) * saddle.LOG2)) <= 1e-10:
                    failures.append(f"{label} vs diagonal at k={k}")
    return _result(4, "specialization", failures, "30x30 grid plus 50 diagonal reductions")


def criterion_asymptotic_accuracy() -> CriterionResult:
    """Desk-scale relative-error bounds and monotone convergence."""
    failures: list[str] = []
    c_eff = saddle.DIAG_RATIO_C
    ratios = {}
    for k in range(10, 61):
        exact = log_of_count(poly_bernoulli(k, k))
        ratios[k] = math.exp(exact - saddle.diag_asym_log(k, 1))
        err2 = abs(math.exp(exact - saddle.diag_asym_log(k, 2)) - 1.0)
        if not err2 < abs(ratios[k] - 1.0):
            failures.append(f"order 2 not strictly closer at k={k}")
    for k in range(20, 61):
        if not abs(ratios[k] - 1.0) <= 2.0 * abs(c_eff) / k:
            failures.append(f"order-1 ratio bound at k={k}: {ratios[k] - 1.0:.5f}")
    if not abs((ratios[50] - 1.0) * 50.0 - c_eff) <= 0.1 * abs(c_eff):
        failures.append(f"k=50 correction constant: {(ratios[50] - 1.0) * 50.0:.5f} vs {c_eff:.5f}")
    for name, exact_fn, est_fn, _ in _family().values():
        gaps = [log_of_count(exact_fn(2 * t, 3 * t)) - est_fn(2 * t, 3 * t) for t in (2, 4, 8, 16)]
        errors = [abs(math.exp(gap) - 1.0) for gap in gaps]
        if not all(late < early for early, late in zip(errors, errors[1:])):
            failures.append(f"{name} errors not decreasing along (2t,3t): {errors}")
        if not errors[-1] <= 0.05:
            failures.append(f"{name} error at t=16 is {errors[-1]:.4f} > 0.05")
    return _result(5, "asymptotic-accuracy", failures, "diagonal ratio bounds and (2t,3t) trends")


def criterion_quadrature() -> CriterionResult:
    """Quadrature identities at their stated tolerances."""
    failures: list[str] = []
    for k in range(11):
        value = quad.parseval_b(k, quad.QuadratureSpec(nodes=max(8, 2 * k + 4)))
        exact = poly_bernoulli(k, k)
        if not abs(value / exact - 1.0) <= 1e-9:
            failures.append(f"parseval at k={k}")
    log_residue = quad.residue_integral_b(8, 12, quad.QuadratureSpec(nodes=4096))
    defect = log_residue - log_of_count(poly_bernoulli(8, 12))
    if not abs(defect) <= 1e-4:
        failures.append(f"residue defect {defect:.2e} at (8,12)")
    log_integral = quad.laplace_integral_diag(100, quad.QuadratureSpec(nodes=512))
    log_prediction = saddle.diag_asym_log(100, 1) - 2.0 * math.lgamma(101.0)
    if not abs(math.exp(log_integral - log_prediction) - 1.0) <= 0.02:
        failures.append("laplace ratio at k=100 off by more than 2%")
    return _result(6, "quadrature", failures, "parseval k<=10, residue (8,12), laplace k=100")


def criterion_lclt() -> CriterionResult:
    """Limit constants, discrepancy decay, and the limit-shape peak."""
    failures: list[str] = []
    p = lclt.gaussian_params("B")
    printed = (
        (p.rho, 458),
        (p.amplitude, 3449),
        (p.mean_rate, 1268),
        (p.variance_rate, 871),
    )
    for value, digits in printed:
        if not digits <= value * 1000.0 < digits + 1:
            failures.append(f"constant {value!r} does not truncate to {digits} thousandths")
    for which in ("B", "D"):
        reports = [lclt.lclt_discrepancy(n, which) for n in (10, 20, 40, 80)]
        sups = [r.sup for r in reports]
        scaled = [math.sqrt(r.n) * r.sup for r in reports]
        if not all(late < early for early, late in zip(sups, sups[1:])):
            failures.append(f"{which} raw discrepancy not decreasing: {sups}")
        if not all(late < early for early, late in zip(scaled, scaled[1:])):
            failures.append(f"{which} scaled discrepancy not decreasing: {scaled}")
    ml_sups = [lclt.ml_limit_discrepancy(n, 2.0).sup for n in (30, 60, 120)]
    if not all(late < early for early, late in zip(ml_sups, ml_sups[1:])):
        failures.append(f"ml discrepancy not decreasing: {ml_sups}")
    peak = 1.0 / ((4.0 * saddle.LOG2) * math.sqrt(1.0 - saddle.LOG2))
    if not abs(lclt.ml_limit_shape(50, 25) - peak) <= 1e-12:
        failures.append("limit-shape peak at n=50 off analytic value")
    for d in range(1, 15):
        if not abs(lclt.ml_limit_shape(50, 25 + d) - lclt.ml_limit_shape(50, 25 - d)) <= 1e-12:
            failures.append(f"limit shape asymmetric at offset {d}")
    return _result(7, "lclt", failures, "constants, decreasing discrepancies, shape peak")


def run_all() -> list[CriterionResult]:
    """All in-process criteria in order (report determinism is checked externally)."""
    return [
        criterion_oracle_equivalence(),
        criterion_formula_identities(),
        criterion_saddle_layer(),
        criterion_specialization(),
        criterion_asymptotic_accuracy(),
        criterion_quadrature(),
        criterion_lclt(),
    ]


def report_lines(results: list[CriterionResult]) -> list[str]:
    lines = [
        f"criterion {r.index} {r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})"
        for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append("all criteria passed" if failed == 0 else f"{failed} criteria failed")
    return lines

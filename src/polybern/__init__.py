"""Exact, combinatorial, asymptotic, and analytic layers for the
poly-Bernoulli family, with a verification suite tying them together."""

from .exactcomb import (
    GuardError,
    c_relative,
    log_of_count,
    ml_degree,
    ml_degree_inclusion_exclusion,
    poly_bernoulli,
    stirling2,
    stirling2_explicit,
)
from .lclt import (
    gaussian_params,
    lclt_discrepancy,
    ml_limit_discrepancy,
    ml_limit_shape,
)
from .oracle import (
    count_acyclic_orientations,
    count_excedance_word,
    count_gamma_free,
    count_lonesum,
    count_lonesum_restricted,
    count_vesztergombi,
    is_lonesum,
)
from .quad import (
    QuadratureSpec,
    laplace_integral_diag,
    parseval_b,
    residue_defect,
    residue_integral_b,
)
from .saddle import (
    CompactnessWarning,
    ML_DEGREE_GF,
    POLY_BERNOULLI_GF,
    acsv_general_log,
    bivar_asym_log,
    diag_asym_log,
    excedance_asym_log,
    f_dir,
    f_inverse,
    ml_asym_log,
    saddle_point,
)
from .verify import report_lines, run_all

__version__ = "0.1.0"

__all__ = [
    "CompactnessWarning",
    "GuardError",
    "ML_DEGREE_GF",
    "POLY_BERNOULLI_GF",
    "QuadratureSpec",
    "acsv_general_log",
    "bivar_asym_log",
    "c_relative",
    "count_acyclic_orientations",
    "count_excedance_word",
    "count_gamma_free",
    "count_lonesum",
    "count_lonesum_restricted",
    "count_vesztergombi",
    "diag_asym_log",
    "excedance_asym_log",
    "f_dir",
    "f_inverse",
    "gaussian_params",
    "is_lonesum",
    "laplace_integral_diag",
    "lclt_discrepancy",
    "log_of_count",
    "ml_asym_log",
    "ml_degree",
    "ml_degree_inclusion_exclusion",
    "ml_limit_discrepancy",
    "ml_limit_shape",
    "parseval_b",
    "poly_bernoulli",
    "residue_defect",
    "residue_integral_b",
    "run_all",
    "report_lines",
    "saddle_point",
    "stirling2",
    "stirling2_explicit",
    "__version__",
]

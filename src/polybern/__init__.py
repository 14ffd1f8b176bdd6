"""Exact, combinatorial, asymptotic, and analytic layers for the
poly-Bernoulli family, with a verification suite tying them together.

Each layer loads the first time one of its names is read (PEP 562), so a
command that needs only exact counts never imports the others."""

__version__ = "0.1.0"

# layer -> the names the package root exports from it
_EXPORTS = {
    "exactcomb": (
        "GuardError",
        "ML_DEGREE_GF",
        "POLY_BERNOULLI_GF",
        "c_relative",
        "log_of_count",
        "ml_degree",
        "ml_degree_inclusion_exclusion",
        "poly_bernoulli",
        "stirling2",
        "stirling2_explicit",
    ),
    "lclt": (
        "gaussian_params",
        "lclt_discrepancy",
        "ml_limit_discrepancy",
        "ml_limit_shape",
    ),
    "oracle": (
        "count_acyclic_orientations",
        "count_excedance_word",
        "count_gamma_free",
        "count_lonesum",
        "count_lonesum_restricted",
        "count_vesztergombi",
        "is_lonesum",
    ),
    "quad": (
        "QuadratureSpec",
        "laplace_integral_diag",
        "parseval_b",
        "residue_integral_b",
    ),
    "saddle": (
        "CompactnessWarning",
        "acsv_general_log",
        "bivar_asym_log",
        "diag_asym_log",
        "excedance_asym_log",
        "f_dir",
        "f_inverse",
        "ml_asym_log",
        "saddle_point",
    ),
    "verify": ("report_lines", "run_all"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name):
    layer = name if name in _EXPORTS else _LAYER_OF.get(name)  # a layer is an attribute too
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Importing a layer binds it in globals(); __import__, unlike
    # importlib.import_module, reports it under -X importtime.
    __import__(f"{__name__}.{layer}")
    if name != layer:
        globals()[name] = getattr(globals()[layer], name)  # later reads skip this function
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})

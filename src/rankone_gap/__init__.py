"""Highest-weight combinatorics, C-function scalars, and spectral-gap
numerics for rank-one orthogonal groups.

Every public name below loads its module on first use (PEP 562), so
``import rankone_gap`` and the weight, K-type and gap-parameter code run
without numpy.  Every submodule but ``cli`` is in ``sys.modules`` from the
start, as a module that executes on its first attribute access, so code that
looks a module up by name finds it without loading it."""

import importlib
import importlib.util
import sys

# module -> the public names it defines
_EXPORTS = {
    "weights": ("HighestWeight", "WeightError", "branches_to", "branching_set", "dimension",
                "dual", "enumerate_ktypes_containing", "is_self_dual", "trivial", "validate"),
    "ktypes": ("WitnessReport", "default_search_bound", "minimal_ktypes", "minimality_norm",
               "witness_ktype"),
    "cfunction": ("EvaluationOverflowError", "GammaRatioExpr", "GammaValue", "ScanReport",
                  "cfunction_expr", "evaluate", "halfopen_grid", "main_term_scalar",
                  "nonvanishing_scan"),
    "gaps": ("GapParameters", "Interval", "SpectralGapReport", "bms_decay_rate",
             "continuation_width", "decay_envelope", "error_rate_gain", "haar_decay_rate",
             "last_positive_index", "parameter_interval", "spectral_gap_verdict"),
    "measures": ("Atom", "DensityPiece", "RealLineMeasure", "cumulative_mass",
                 "half_weighted_mass", "interval_mass", "interval_mass_exact"),
    "stieltjes": ("DetectorReport", "InversionResult", "SingularPointError", "invert_interval",
                  "is_zero_by_interval_family", "transform", "vanishing_detector"),
    "laplace": ("Channel", "CompareReport", "LaplaceResult", "PoleProbeReport", "SpectralModel",
                "compare_numeric_closed", "correlation", "laplace_closed", "laplace_numeric",
                "pole_probe", "rank_test", "remainder_term", "residue_at_zero",
                "truncation_bound"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"

for _name in (*_EXPORTS, "quadrature", "wire"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # runs the module on its first attribute access
del _name, _spec, _module


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})

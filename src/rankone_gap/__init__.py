"""Highest-weight combinatorics, C-function scalars, and spectral-gap
numerics for rank-one orthogonal groups."""

from .weights import (
    HighestWeight,
    WeightError,
    branches_to,
    branching_set,
    dimension,
    dual,
    enumerate_ktypes_containing,
    is_self_dual,
    trivial,
    validate,
)
from .ktypes import (
    WitnessReport,
    default_search_bound,
    minimal_ktypes,
    minimality_norm,
    witness_ktype,
)
from .cfunction import (
    EvaluationOverflowError,
    GammaRatioExpr,
    GammaValue,
    ScanReport,
    cfunction_expr,
    evaluate,
    halfopen_grid,
    main_term_scalar,
    nonvanishing_scan,
)
from .gaps import (
    GapParameters,
    Interval,
    SpectralGapReport,
    bms_decay_rate,
    continuation_width,
    decay_envelope,
    error_rate_gain,
    haar_decay_rate,
    last_positive_index,
    parameter_interval,
    spectral_gap_verdict,
)
from .measures import (
    Atom,
    DensityPiece,
    RealLineMeasure,
    cumulative_mass,
    half_weighted_mass,
    interval_mass,
    interval_mass_exact,
)
from .stieltjes import (
    DetectorReport,
    InversionResult,
    SingularPointError,
    invert_interval,
    is_zero_by_interval_family,
    transform,
    vanishing_detector,
)
from .laplace import (
    Channel,
    CompareReport,
    LaplaceResult,
    PoleProbeReport,
    SpectralModel,
    compare_numeric_closed,
    correlation,
    laplace_closed,
    laplace_numeric,
    pole_probe,
    rank_test,
    remainder_term,
    residue_at_zero,
    truncation_bound,
)

__version__ = "0.1.0"

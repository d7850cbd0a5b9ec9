"""Geometric factors for averaged field commutators over spherical regions.

The same quantity is computed by three analytic routes (a closed bracket
form and two Fourier-Bessel series) plus a numerical-quadrature oracle, so
any one route can be checked against the others.
"""

from .closed_form import (
    CancellationWarning,
    ClosedBatch,
    UnsupportedSignatureError,
    coincident_axx,
    commutator_difference,
    factor_closed,
    factor_closed_batch,
    ji4,
)
from .fourier_bessel import SeriesTermLog, factor_series, factor_series_general
from .model import (
    FactorKind,
    FactorResult,
    Ji4Args,
    Method,
    RegionPair,
    SeriesConfig,
    ValidationError,
    normalize,
    reverse,
)
from .oracle import QuadConfig, QuadResult, factor_fourier_numeric, ji4_numeric
from .special_functions import angular_weight, bessel_roots, fb_weight, sph_bessel
from .time_averages import AvgKind, QuadratureError, Schedule, finite_avg, infinite_avg

__version__ = "1.0.0"

__all__ = [
    "AvgKind",
    "CancellationWarning",
    "ClosedBatch",
    "FactorKind",
    "FactorResult",
    "Ji4Args",
    "Method",
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "RegionPair",
    "Schedule",
    "SeriesConfig",
    "SeriesTermLog",
    "UnsupportedSignatureError",
    "ValidationError",
    "angular_weight",
    "bessel_roots",
    "coincident_axx",
    "commutator_difference",
    "factor_closed",
    "factor_closed_batch",
    "factor_fourier_numeric",
    "factor_series",
    "factor_series_general",
    "fb_weight",
    "finite_avg",
    "infinite_avg",
    "ji4",
    "ji4_numeric",
    "normalize",
    "reverse",
    "sph_bessel",
    "__version__",
]

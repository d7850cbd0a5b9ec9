"""Domain types shared by all computation routes.

A factor is evaluated for a pair of space-time regions: two spheres of
radii R1 and R2 whose centres are separated by a displacement vector with
spherical coordinates (R, theta, phi), observed over the time intervals
(0, dt1) and (T, T + dt2).  Units are such that c = 1 and all lengths and
times share one common unit; factor values then carry dimension
length**-4.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

#: RegionPair fields in declaration order
FIELDS = ("r1", "r2", "r", "theta", "phi", "dt1", "dt2", "t_offset")

#: fields that must be positive; r must be nonnegative, the rest only finite
_POSITIVE = ("r1", "r2", "dt1", "dt2")


class ValidationError(ValueError):
    """Raised when a parameter set violates its domain constraints."""


def check_field(name: str, value) -> None:
    """Raise ValidationError unless `value` is legal for the field `name`.

    The constraints are per field and one-sided, so an array of values is
    checked through its extremes.
    """
    if isinstance(value, np.ndarray):
        lo, hi = float(value.min()), float(value.max())
    else:
        lo = hi = value
    for v in (lo, hi):
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")
    if name in _POSITIVE and lo <= 0.0:
        raise ValidationError(f"{name} must be positive, got {lo!r}")
    if name == "r" and lo < 0.0:
        raise ValidationError(f"separation must be nonnegative, got r={lo!r}")


def length_scale(value):
    """`value`, a product of lengths that a route divides by (an array is
    checked entry by entry), unless it underflowed to 0 or overflowed: then
    the lengths lie beyond the float range, and ValidationError says so."""
    lo, hi = (value.min(), value.max()) if isinstance(value, np.ndarray) else (value, value)
    if not (0.0 < lo and hi < math.inf):
        raise ValidationError(f"a product of lengths, {value!r}, lies beyond the float range")
    return value


def check_integer(name: str, value) -> None:
    """Raise ValidationError unless `value` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


class FactorKind(enum.Enum):
    """Which geometric factor is being computed."""

    AXX = "axx"
    AXY = "axy"
    BXY = "bxy"


#: (kind, l) multipole channels that carry a radial kernel; the keys of
#: `angular_weight` for each kind
CHANNELS = frozenset({
    (FactorKind.AXX, 0),
    (FactorKind.AXX, 2),
    (FactorKind.AXY, 2),
    (FactorKind.BXY, 1),
})


class Method(enum.Enum):
    """Computation route used to produce a FactorResult."""

    CLOSED_FORM = "closed"
    SERIES_SIMPLE = "series"
    SERIES_GENERAL = "series-general"
    FOURIER_NUMERIC = "numeric"


@dataclass(frozen=True)
class RegionPair:
    """Full geometric and temporal parameter set of two space-time regions.

    theta and phi locate the centre of sphere II relative to sphere I;
    they are ignored by every route when r == 0.  T may have any sign and
    the two time intervals may overlap arbitrarily.  The closed form also
    takes a batch of points as equal-length arrays in the fields.
    """

    r1: float
    r2: float
    r: float = 0.0
    theta: float = 0.0
    phi: float = 0.0
    dt1: float = 1.0
    dt2: float = 1.0
    t_offset: float = 0.0

    def validate(self) -> None:
        for name in FIELDS:
            check_field(name, getattr(self, name))

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in FIELDS}


def normalize(params: RegionPair) -> RegionPair:
    """Fold angles into theta in [0, pi], phi in [0, 2*pi); validate the rest.

    The fold preserves the direction the angles describe: a polar angle
    outside [0, pi] is reflected and phi is advanced by pi accordingly.
    """
    params.validate()
    theta = math.fmod(params.theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    phi = params.phi
    if theta > math.pi:
        theta = TWO_PI - theta
        phi += math.pi
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    if phi >= TWO_PI:  # adding 2*pi to a tiny negative rounds up to 2*pi itself
        phi = 0.0
    return replace(params, theta=theta, phi=phi)


def reverse(params: RegionPair) -> RegionPair:
    """Parameter set of the reversed factor.

    Swaps the roles of the two regions: radii and durations are
    interchanged, the displacement direction is inverted (theta -> pi -
    theta, phi -> phi + pi) and the time offset is negated.  Applying
    reverse twice recovers the original parameters (up to angle rounding
    at machine precision).
    """
    return normalize(RegionPair(
        r1=params.r2,
        r2=params.r1,
        r=params.r,
        theta=math.pi - params.theta,
        phi=params.phi + math.pi,
        dt1=params.dt2,
        dt2=params.dt1,
        t_offset=-params.t_offset,
    ))


@dataclass(frozen=True)
class SeriesConfig:
    """Expansion-radius policy and truncation controls for the series routes.

    rex_slack is added to the minimal legal expansion radius; results must
    not depend on it beyond the convergence tolerance.  The series stops
    once the largest term magnitude over the trailing tail_window terms
    falls below tail_tol times the current partial sum magnitude.
    """

    rex_slack: float = 0.0
    n_max: int = 2000
    tail_tol: float = 1e-6
    tail_window: int = 20

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rex_slack) and self.rex_slack >= 0.0):
            raise ValidationError(f"rex_slack must be finite and >= 0, got {self.rex_slack}")
        check_integer("n_max", self.n_max)
        check_integer("tail_window", self.tail_window)
        if not (self.n_max >= self.tail_window >= 1):
            raise ValidationError(
                f"need n_max >= tail_window >= 1, got {self.n_max}, {self.tail_window}")
        if not (math.isfinite(self.tail_tol) and self.tail_tol > 0.0):
            raise ValidationError(f"tail_tol must be positive and finite, got {self.tail_tol}")


@dataclass(frozen=True)
class FactorResult:
    """A factor value (units length**-4) with convergence diagnostics."""

    value: float
    terms_used: int
    tail_estimate: float
    method: Method
    converged: bool


@dataclass(frozen=True)
class Ji4Args:
    """Signature (n; l1..l4; alpha, beta, gamma, delta) of a four-Bessel integral.

    Supported (n; l) combinations: (0; 1,1,0,0), (0; 1,1,0,2),
    (0; 1,1,-1,1) and (1; 1,1,0,1).  Parameters are nonnegative; alpha and
    beta must be positive.
    """

    n: int
    l1: int
    l2: int
    l3: int
    l4: int
    alpha: float
    beta: float
    gamma: float
    delta: float

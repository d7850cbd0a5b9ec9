"""Domain types shared by all computation routes.

A factor is evaluated for a pair of space-time regions: two spheres of
radii R1 and R2 whose centres are separated by a displacement vector with
spherical coordinates (R, theta, phi), observed over the time intervals
(0, dt1) and (T, T + dt2).  Units are such that c = 1 and all lengths and
times share one common unit; factor values then carry dimension
length**-4.  The module also holds the built-in reference table, whose
rows are compared with a value at four significant digits (`round4`).
"""

from __future__ import annotations

import decimal
import enum
import functools
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

TWO_PI = 2.0 * math.pi

#: half-band around zero, relative to a caller-supplied scale (the largest
#: length or time in play), treated as "exactly on the boundary"
BOUNDARY_RTOL = 1e-12

#: fields that must be positive; r must be nonnegative, the rest only finite
_POSITIVE = ("r1", "r2", "dt1", "dt2")


class ValidationError(ValueError):
    """Raised when a parameter set violates its domain constraints."""


def check_field(name: str, value) -> None:
    """Raise ValidationError unless `value` is legal for the field `name`.

    The constraints are per field and one-sided, so an array of values is
    checked through its extremes; an empty array holds no illegal value.
    """
    if isinstance(value, np.ndarray):
        if not value.size:
            return
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
    the lengths lie beyond the float range, and ValidationError says so.  An
    empty array holds no such product and passes, as in `check_field`."""
    if isinstance(value, np.ndarray) and not value.size:
        return value
    lo, hi = (value.min(), value.max()) if isinstance(value, np.ndarray) else (value, value)
    if not (0.0 < lo and hi < math.inf):
        raise ValidationError(f"a product of lengths, {value!r}, lies beyond the float range")
    return value


def _two_sum(a, b) -> tuple:
    # Knuth's TwoSum: s = fl(a + b) and its exact rounding error
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def check_integer(name: str, value) -> None:
    """Raise ValidationError unless `value` is an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


class FactorKind(enum.Enum):
    """Which geometric factor is being computed."""

    AXX = "axx"
    AXY = "axy"
    BXY = "bxy"


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

    def in_support(self):
        """False where every factor of the pair is exactly 0 (c = 1): no lag
        t2 - t1 in (T - dt1, T + dt2) equals a distance between points of
        the two balls, which run from max(0, r - r1 - r2) to r + r1 + r2.

        An edge within BOUNDARY_RTOL times the largest length or time in
        play counts as inside, so no zero is claimed at a boundary.
        Elementwise on arrays, broadcasting as the closed form's batches do.
        """
        reach = self.r1 + self.r2
        band = BOUNDARY_RTOL * functools.reduce(np.maximum, (
            self.r1, self.r2, self.r, self.dt1, self.dt2, abs(self.t_offset)))
        return ((self.t_offset + self.dt2 >= np.maximum(self.r - reach, 0.0) - band)
                & (self.t_offset - self.dt1 <= self.r + reach + band))


#: RegionPair fields in declaration order
FIELDS = tuple(field.name for field in fields(RegionPair))


#: the least radius or duration a route takes at unit scale (`unit_scale`):
#: any product of three of them stays a normal float
UNIT_FLOOR = 2.0**-340

#: the least normal float
_TINY = 2.0**-1022


def _ldexp(x: float, e: int) -> float:
    # math.ldexp, with an overflow rounded to an infinity instead of raised
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def unit_scale(p: RegionPair) -> tuple:
    """(k, p') with p' = 2**-k p, exactly, in the six length and time fields,
    where the largest of r1, r2, dt1 and dt2 lies in [1, 2) at p'.

    A factor is homogeneous of degree -4 in those fields (c = 1), so every
    route evaluates p' and returns `scale_back(what, -4 * k, value)`; scale
    is decided here and nowhere else.  k leaves out r and t_offset, which may
    exceed the regions by any amount (a dead window's offset may be 1e250).
    A point whose r1, r2, dt1 or dt2 falls below UNIT_FLOOR at p', or whose r
    or t_offset overflows there, has ratios beyond the float range and is
    refused.  A single point comes back in floats; with arrays in every
    field (a batch), k is an array, one entry per point.
    """
    if isinstance(p.r1, np.ndarray):
        k = np.frexp(np.maximum(np.maximum(p.r1, p.r2), np.maximum(p.dt1, p.dt2)))[1] - 1
        with np.errstate(over="ignore"):
            r1, r2, r, dt1, dt2, t = (
                np.ldexp(v, -k) for v in (p.r1, p.r2, p.r, p.dt1, p.dt2, p.t_offset))
        unit = RegionPair(r1, r2, r, p.theta, p.phi, dt1, dt2, t)
        least = np.minimum(np.minimum(r1, r2), np.minimum(dt1, dt2)).min()
        ok = least >= UNIT_FLOOR and np.maximum(r, abs(t)).max() < math.inf
    else:
        k = math.frexp(max(p.r1, p.r2, p.dt1, p.dt2))[1] - 1
        ldexp = math.ldexp
        try:
            unit = RegionPair(ldexp(p.r1, -k), ldexp(p.r2, -k), ldexp(p.r, -k), float(p.theta),
                              float(p.phi), ldexp(p.dt1, -k), ldexp(p.dt2, -k), ldexp(p.t_offset, -k))
            ok = min(unit.r1, unit.r2, unit.dt1, unit.dt2) >= UNIT_FLOOR
        except OverflowError:  # r or t_offset
            ok = False
    if not ok:
        raise ValidationError("the ratios of the point's lengths lie beyond the float range")
    return k, unit


def scale_back(what: str, e, value, *bounds) -> tuple:
    """(value, *bounds) times 2**e: a factor computed at unit scale, and its
    tail or error bound, at the caller's point (e = -4k for the k of
    `unit_scale`; `coincident_axx` passes its own exponent).

    A value comes back only as a normal float or an exact 0.0, and a bound
    only finite: an overflow, or a nonzero value that would round below the
    normal range, is refused as `what` lying beyond the float range.
    Arrays are taken entry by entry.
    """
    if isinstance(value, np.ndarray):
        with np.errstate(over="ignore"):
            out = tuple(np.ldexp(x, e) for x in (value, *bounds))
        size = abs(out[0])
        # a nan fails both comparisons
        ok = (((size >= _TINY) | (value == 0.0)) & (size < math.inf)).all()
        ok = ok and all(np.isfinite(x).all() for x in out[1:])
    else:
        out = tuple(_ldexp(x, e) for x in (value, *bounds))
        ok = (abs(out[0]) >= _TINY or value == 0.0) and all(map(math.isfinite, out))
    if not ok:
        raise ValidationError(f"{what} lies beyond the float range")
    return out


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


# ---------------------------------------------------------------------------
# built-in reference table

_CTX4 = decimal.Context(prec=4, rounding=decimal.ROUND_HALF_EVEN)


def round4(x: float) -> str:
    """Render x to four significant digits (half-even) as `d.ddde±k`."""
    d = _CTX4.create_decimal(repr(float(x)))
    if not d.is_finite():
        return str(d)
    if d == 0:
        return "0.000e+0"
    sign, digits, exp = d.as_tuple()
    e = exp + len(digits) - 1
    digits = (digits + (0, 0, 0))[:4]
    mant = f"{digits[0]}.{digits[1]}{digits[2]}{digits[3]}"
    return f"{'-' if sign else ''}{mant}e{e:+d}"


@dataclass(frozen=True)
class Table1Row:
    """One reference row: inputs, printed 4-digit value, reverse marker.

    `expected` is in `round4`'s form, so a value matches the row exactly
    when `round4(value) == expected`.
    """

    kind: FactorKind
    params: RegionPair
    expected: str
    is_reverse_of_previous: bool


_P5 = RegionPair(1.0, 1.0, 1.0, math.pi / 6.0, math.pi / 3.0, 1.0, 1.0, 0.5)
_P11 = RegionPair(1.0, 2.0, 1.0, math.pi / 6.0, math.pi / 3.0, 1.0, 2.0, 0.5)

# forward rows; a non-None second value adds the reverse row after it
_BASE_ROWS = (
    (FactorKind.AXX, RegionPair(1.0, 1.0), "-1.625e+0", None),
    (FactorKind.AXX, RegionPair(10.0, 10.0), "-2.850e-3", None),
    (FactorKind.AXX, RegionPair(1.0, 1.0, dt2=2.0, t_offset=0.5), "1.953e-1", "-5.664e-1"),
    (FactorKind.AXX, _P5, "-6.407e-2", "-4.530e-1"),
    (FactorKind.AXY, _P5, "6.636e-2", "5.901e-3"),
    (FactorKind.BXY, _P5, "-2.730e-1", "1.675e-1"),
    (FactorKind.AXX, _P11, "7.454e-2", "-8.914e-2"),
    (FactorKind.AXY, _P11, "3.493e-3", "-3.884e-4"),
    (FactorKind.BXY, _P11, "-2.560e-2", "4.126e-3"),
)


def table1_rows() -> tuple:
    """The sixteen built-in reference rows, reverse rows generated in place."""
    rows = []
    for kind, params, expected, expected_rev in _BASE_ROWS:
        rows.append(Table1Row(kind, params, expected, False))
        if expected_rev is not None:
            rows.append(Table1Row(kind, reverse(params), expected_rev, True))
    return tuple(rows)


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

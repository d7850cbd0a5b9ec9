"""Scale covariance: every route evaluates a point at unit scale.

A factor is homogeneous of degree -4 in the six length and time fields
(c = 1).  At 2**k p every route therefore returns exactly 2**(-4k) times its
value at p, with the same terms used and the same stop, wherever that is a
normal float or 0.0; everywhere else it raises ValidationError.  The closed
ji4(n; ...) is homogeneous of degree n - 1 in its arguments, and is
evaluated at unit scale too.
"""

import math
import random

import numpy as np
import pytest

from brfactor.closed_form import _ROUTES, factor_closed, factor_closed_batch, ji4
from brfactor.fourier_bessel import factor_series, factor_series_general
from brfactor.model import (
    FIELDS,
    UNIT_FLOOR,
    FactorKind,
    Ji4Args,
    RegionPair,
    SeriesConfig,
    ValidationError,
    scale_back,
    unit_scale,
)
from brfactor.oracle import QuadConfig, factor_fourier_numeric

pytestmark = pytest.mark.filterwarnings("ignore::brfactor.closed_form.CancellationWarning")

#: the RegionPair fields that carry a length or a time
SCALED = ("r1", "r2", "r", "dt1", "dt2", "t_offset")

#: exponents k of 2**k beyond the seeded ones: lengths near 4e-12 and 1e-15,
#: where the zero bands once held an absolute floor, and near 1e45 and 1e54,
#: where the general route's root weights once underflowed
SPECIAL_K = (-38, -50, 150, 180)


def _box_points(seed: int, count: int) -> list:
    """(kind, point) pairs of the tested box: radii 0.3-3, durations 0.2-3,
    |t| <= 4 and r <= 3, so some windows are dead and their factor is 0."""
    rng = random.Random(seed)
    kinds = list(FactorKind)
    points = []
    for i in range(count):
        r1, r2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
        dt1, dt2 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        r, theta, phi = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.2), rng.uniform(0.0, 6.3)
        points.append((kinds[i % 3], RegionPair(r1, r2, r, theta, phi, dt1, dt2,
                                                rng.uniform(-4.0, 4.0))))
    return points


def _scaled(p: RegionPair, k: int) -> RegionPair:
    """2**k p in the length and time fields, exactly."""
    fields = {name: math.ldexp(getattr(p, name), k) for name in SCALED}
    return RegionPair(**{**p.to_dict(), **fields})


def _expected(value: float, k: int, degree: int = -4):
    """2**(degree k) value where that is a normal float or 0.0, else None."""
    try:
        out = math.ldexp(value, degree * k)
    except OverflowError:
        return None
    return out if value == 0.0 or abs(out) >= 2.0**-1022 else None


def _exponents(seed: int, value: float) -> list:
    """Seeded k over [-1000, 1000], SPECIAL_K, and both ends of the range
    of k where the value stays a normal float, with the k past each end."""
    rng = random.Random(seed)
    ks = set(rng.sample(range(-1000, 1001), 24)) | set(SPECIAL_K)
    normal = [k for k in range(-300, 301) if _expected(value, k) is not None]
    if value != 0.0:
        ks |= {normal[0] - 1, normal[0], normal[-1], normal[-1] + 1}
    return sorted(ks)


@pytest.mark.parametrize("route", [factor_closed, factor_series, factor_series_general])
def test_routes_are_scale_covariant_bit_for_bit(route):
    for i, (kind, p) in enumerate(_box_points(17, 12)):
        base = route(kind, p)
        for k in _exponents(i, base.value):
            want = _expected(base.value, k)
            if want is None:
                with pytest.raises(ValidationError, match="float range"):
                    route(kind, _scaled(p, k))
                continue
            got = route(kind, _scaled(p, k))
            assert (got.value, got.terms_used, got.converged) == (
                want, base.terms_used, base.converged), (kind, p, k)
            assert got.tail_estimate == math.ldexp(base.tail_estimate, -4 * k)


@pytest.mark.parametrize("sig", list(_ROUTES))
def test_ji4_is_scale_covariant_bit_for_bit(sig):
    # gamma = 0 where the signature takes no other
    base = (0.7, 1.1, 0.0 if sig == (1, 1, 1, 0, 1) else 0.9, 1.3)
    value = ji4(Ji4Args(*sig, *base))
    for k in range(-1000, 1001):
        args = Ji4Args(*sig, *(math.ldexp(v, k) for v in base))
        want = _expected(value, k, sig[0] - 1)
        if want is None:
            with pytest.raises(ValidationError, match="float range"):
                ji4(args)
        else:
            assert ji4(args) == want, k


def test_closed_batch_scales_each_point_by_its_own_power_of_two():
    points = _box_points(23, 12)
    shifts = [-250, -38, -9, 0, 1, 7, 60, 150, 180, 240, -120, 3]
    for kind in FactorKind:
        scalar = [factor_closed(kind, _scaled(p, k)).value for (_, p), k in zip(points, shifts)]
        batch = factor_closed_batch(kind, RegionPair(*(
            np.array([getattr(_scaled(p, k), name) for (_, p), k in zip(points, shifts)])
            for name in FIELDS)))
        assert batch.value.tolist() == scalar


def test_series_keep_the_caller_units_of_rex_slack_and_the_term_log():
    _, p = _box_points(5, 1)[0]
    for route in (factor_series, factor_series_general):
        base_log = []
        base = route(FactorKind.AXX, p, SeriesConfig(rex_slack=0.75), base_log)
        for k in (-9, 7):
            log = []
            got = route(FactorKind.AXX, _scaled(p, k), SeriesConfig(rex_slack=math.ldexp(0.75, k)),
                        log)
            assert got.value == math.ldexp(base.value, -4 * k)
            assert got.terms_used == base.terms_used
            assert [(t.n, t.q_n, t.term_value, t.partial_sum) for t in log] == [
                (t.n, math.ldexp(t.q_n, -k), math.ldexp(t.term_value, -4 * k),
                 math.ldexp(t.partial_sum, -4 * k)) for t in base_log]


def test_oracle_is_scale_covariant_with_its_absolute_tolerance():
    # the absolute tolerance is a factor's unit too, so it scales with the point
    for i, (kind, p) in enumerate(_box_points(41, 4)):
        base = factor_fourier_numeric(kind, p)
        for k in (-200, -38, 7, 60, 150):
            got = factor_fourier_numeric(kind, _scaled(p, k),
                                         QuadConfig(abs_tol=math.ldexp(1e-7, -4 * k)))
            assert got == (math.ldexp(base.value, -4 * k), math.ldexp(base.error, -4 * k)), (i, k)


def test_unit_scale_puts_the_largest_radius_or_duration_in_one_to_two():
    p = RegionPair(3e-5, 7e-6, 1e40, 0.3, 0.2, 2e-5, 5e-5, -1e30)
    k, unit = unit_scale(p)
    assert 1.0 <= max(unit.r1, unit.r2, unit.dt1, unit.dt2) < 2.0
    assert all(math.ldexp(getattr(unit, name), k) == getattr(p, name) for name in SCALED)
    assert (unit.theta, unit.phi) == (p.theta, p.phi)


@pytest.mark.parametrize(
    "p",
    [
        RegionPair(1.0, 1.0, dt1=1e-103, dt2=1e-103),  # durations below UNIT_FLOOR
        RegionPair(1e-300, 1e-300),  # radii below UNIT_FLOOR
        RegionPair(1e-300, 1e-300, dt1=1e-300, dt2=1e-300, r=1e300),  # r overflows
    ],
)
def test_unit_scale_refuses_ratios_beyond_the_float_range(p):
    with pytest.raises(ValidationError, match="float range"):
        unit_scale(p)


def test_unit_floor_keeps_a_product_of_three_normal():
    assert UNIT_FLOOR**3 >= 2.0**-1022


@pytest.mark.parametrize("value", [1.0, np.array([1.0, 0.0])])
def test_scale_back_refuses_an_underflow_but_returns_an_exact_zero(value):
    assert scale_back("x", -1024, 0.0) == (0.0,)
    with pytest.raises(ValidationError, match="float range"):
        scale_back("x", -1024, value)  # below the normal range
    with pytest.raises(ValidationError, match="float range"):
        scale_back("x", 1024, value)  # an overflow

"""Geometry container validation, angle folding, and the reverse map."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brfactor.model import (
    TWO_PI,
    FactorKind,
    Method,
    RegionPair,
    SeriesConfig,
    ValidationError,
    normalize,
    reverse,
)


def make_pair(**overrides) -> RegionPair:
    base = dict(
        r1=1.0, r2=1.3, r=0.9, theta=0.4, phi=1.1, dt1=1.0, dt2=0.8, t_offset=0.3
    )
    base.update(overrides)
    return RegionPair(**base)


@pytest.mark.parametrize(
    "overrides",
    [
        {"r1": 0.0},
        {"r1": -1.0},
        {"r2": 0.0},
        {"dt1": 0.0},
        {"dt1": -0.5},
        {"dt2": 0.0},
        {"r": -1e-9},
        {"r1": float("nan")},
        {"theta": float("inf")},
        {"t_offset": float("-inf")},
    ],
)
def test_validate_rejects_bad_fields(overrides):
    with pytest.raises(ValidationError):
        make_pair(**overrides).validate()


def test_validate_accepts_boundary_values():
    make_pair(r=0.0).validate()
    make_pair(theta=-5.0, phi=100.0).validate()  # angles are unconstrained
    make_pair(t_offset=-1e6).validate()


def test_dict_round_trip_is_exact():
    p = make_pair(theta=math.pi / 7, t_offset=-0.123456789012345)
    d = p.to_dict()
    assert set(d) == {"r1", "r2", "r", "theta", "phi", "dt1", "dt2", "t_offset"}
    assert RegionPair.from_dict(d) == p


def test_json_round_trip_is_exact():
    p = make_pair(phi=5.4321, r=2.718281828459045)
    assert RegionPair.from_json(json.dumps(p.to_dict())) == p


def test_from_dict_rejects_missing_and_defers_validation():
    d = make_pair().to_dict()
    d.pop("r2")
    with pytest.raises(KeyError):
        RegionPair.from_dict(d)
    # construction is plain field assembly; validation stays explicit
    bad = make_pair().to_dict()
    bad["dt1"] = -1.0
    p = RegionPair.from_dict(bad)
    with pytest.raises(ValidationError):
        p.validate()


def test_normalize_folds_negative_theta():
    q = normalize(make_pair(theta=-0.3, phi=0.2))
    assert q.theta == pytest.approx(0.3, rel=1e-15)
    assert q.phi == pytest.approx(0.2 + math.pi, rel=1e-15)


def test_normalize_folds_theta_beyond_pi():
    q = normalize(make_pair(theta=1.5 * math.pi, phi=0.0))
    assert q.theta == pytest.approx(0.5 * math.pi, rel=1e-15)
    assert q.phi == pytest.approx(math.pi, rel=1e-15)


def test_normalize_wraps_phi():
    q = normalize(make_pair(phi=TWO_PI + 0.4))
    assert q.phi == pytest.approx(0.4, rel=1e-12)
    assert 0.0 <= q.phi < TWO_PI


angles = st.floats(
    min_value=-20.0, max_value=20.0, allow_nan=False, allow_infinity=False
)
lengths = st.floats(min_value=0.05, max_value=10.0, allow_nan=False)


@st.composite
def region_pairs(draw):
    return RegionPair(
        r1=draw(lengths),
        r2=draw(lengths),
        r=draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        theta=draw(angles),
        phi=draw(angles),
        dt1=draw(lengths),
        dt2=draw(lengths),
        t_offset=draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)),
    )


@settings(max_examples=200, derandomize=True)
@given(region_pairs())
def test_normalize_lands_in_canonical_ranges(p):
    q = normalize(p)
    assert 0.0 <= q.theta <= math.pi
    assert 0.0 <= q.phi < TWO_PI
    # folding never touches the scalar fields
    assert (q.r1, q.r2, q.r, q.dt1, q.dt2, q.t_offset) == (
        p.r1,
        p.r2,
        p.r,
        p.dt1,
        p.dt2,
        p.t_offset,
    )


@settings(max_examples=200, derandomize=True)
@given(region_pairs())
def test_normalize_is_idempotent(p):
    q = normalize(p)
    assert normalize(q) == q


@settings(max_examples=200, derandomize=True)
@given(region_pairs())
def test_reverse_is_an_involution(p):
    q = reverse(p)
    assert (q.r1, q.dt1) == (p.r2, p.dt2)
    assert (q.r2, q.dt2) == (p.r1, p.dt1)
    assert q.t_offset == -p.t_offset
    rr = reverse(q)
    n = normalize(p)
    assert (rr.r1, rr.r2, rr.r, rr.dt1, rr.dt2, rr.t_offset) == (
        n.r1,
        n.r2,
        n.r,
        n.dt1,
        n.dt2,
        n.t_offset,
    )
    assert rr.theta == pytest.approx(n.theta, abs=1e-12)
    # phi is a gauge angle at the poles, so only compare it off-axis;
    # elsewhere it may come back shifted by a full turn's rounding
    if math.sin(n.theta) > 1e-9:
        dphi = (rr.phi - n.phi) % TWO_PI
        assert min(dphi, TWO_PI - dphi) < 1e-9


def test_reverse_flips_the_displacement_direction():
    p = make_pair(theta=0.4, phi=1.1)
    q = reverse(p)
    assert q.theta == pytest.approx(math.pi - 0.4, rel=1e-15)
    assert q.phi == pytest.approx(1.1 + math.pi, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rex_slack": -0.1},
        {"n_max": 0},
        {"n_max": 5, "tail_window": 6},
        {"tail_window": 0},
        {"tail_tol": 0.0},
        {"tail_tol": -1e-9},
        # budgets are counts: a fraction or a bool is not one
        {"n_max": 100.5},
        {"n_max": 300, "tail_window": 2.5},
        {"tail_window": True},
        {"n_max": 300.0},
        # an infinite tolerance stops after one window; a nan one never stops
        {"tail_tol": float("inf")},
        {"tail_tol": float("nan")},
        {"rex_slack": float("inf")},
        {"rex_slack": float("nan")},
    ],
)
def test_series_config_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        SeriesConfig(**kwargs)


def test_series_config_defaults():
    cfg = SeriesConfig()
    assert cfg.rex_slack == 0.0
    assert cfg.n_max == 2000
    assert cfg.tail_tol == 1e-6
    assert cfg.tail_window == 20


def test_enum_values_round_trip():
    assert FactorKind("axx") is FactorKind.AXX
    assert FactorKind("axy") is FactorKind.AXY
    assert FactorKind("bxy") is FactorKind.BXY
    assert {m.value for m in Method} == {
        "closed",
        "series",
        "series-general",
        "numeric",
    }

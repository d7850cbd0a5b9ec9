"""Quadrature oracles: pinned integrals, honesty of errors, guard clauses."""

import math
import warnings

import numpy as np
import pytest

from brfactor.closed_form import CancellationWarning, factor_closed, ji4
from brfactor.fourier_bessel import utilde
from brfactor.model import CHANNELS, FactorKind, Ji4Args, RegionPair, ValidationError
from brfactor import oracle
from brfactor.cli import _draw_ji4, _draw_pair
from brfactor.oracle import (
    QuadConfig,
    QuadResult,
    factor_fourier_numeric,
    ji4_numeric,
    utilde_direct,
)
from brfactor.time_averages import QuadratureError, Schedule

LOOSE = QuadConfig(abs_tol=1.0, rel_tol=1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"abs_tol": -1e-9},
        {"rel_tol": 0.0},
        {"abs_tol": float("inf")},
        {"tail_periods": 4},
        # chunk counts are integers, tolerances are numbers but not bools
        {"tail_periods": 10.5},
        {"abs_tol": True},
        {"rel_tol": True},
    ],
)
def test_quad_config_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        QuadConfig(**kwargs)


def test_quad_result_is_value_error_pair():
    res = QuadResult(1.5, 1e-9)
    assert res.value == 1.5 and res.error == 1e-9
    v, e = res
    assert (v, e) == (1.5, 1e-9)


def test_two_bessel_pin():
    res = ji4_numeric(Ji4Args(0, 1, 1, 0, 0, 1.0, 2.0, 0.0, 0.0))
    assert abs(res.value - math.pi / 24.0) <= max(res.error, 1e-10)


def test_single_bessel_pin():
    # only one j0 slot active: the integral is pi/(2 a)
    for a in (0.7, 1.0, 2.4):
        res = ji4_numeric(Ji4Args(0, 0, 0, 0, 0, a, 0.0, 0.0, 0.0))
        assert abs(res.value - math.pi / (2.0 * a)) <= max(res.error, 1e-9)


@pytest.mark.parametrize(
    "args",
    [
        Ji4Args(0, 1, 1, 0, 0, 0.9, 1.4, 0.6, 0.7),
        Ji4Args(0, 1, 1, 0, 2, 0.9, 1.4, 0.6, 0.7),
        Ji4Args(0, 1, 1, -1, 1, 0.9, 1.4, 0.6, 0.7),
        Ji4Args(1, 1, 1, 0, 1, 0.9, 1.4, 0.0, 0.7),
    ],
)
def test_quadrature_confirms_each_closed_signature(args):
    closed = ji4(args)
    res = ji4_numeric(args)
    assert abs(res.value - closed) <= 1e-7


def test_zero_argument_high_order_slot_is_an_exact_zero():
    res = ji4_numeric(Ji4Args(0, 1, 1, 0, 2, 1.0, 2.0, 0.5, 0.0))
    assert res == QuadResult(0.0, 0.0)


def test_zero_argument_singular_slot_raises():
    with pytest.raises(ValidationError):
        ji4_numeric(Ji4Args(0, 1, 1, -1, 1, 1.0, 2.0, 0.0, 1.0))


def test_origin_divergence_raises():
    # a single j0 slot with one inverse power diverges logarithmically
    with pytest.raises(ValidationError):
        ji4_numeric(Ji4Args(1, 0, 0, 0, 0, 1.0, 0.0, 0.0, 0.0))


def test_no_decay_raises():
    # every slot dropped and no inverse power: nothing forces convergence
    with pytest.raises(ValidationError):
        ji4_numeric(Ji4Args(0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0))


def test_bad_slot_parameters_raise():
    with pytest.raises(ValidationError):
        ji4_numeric(Ji4Args(0, 3, 1, 0, 0, 1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        ji4_numeric(Ji4Args(0, 1, 1, 0, 0, -1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        ji4_numeric(Ji4Args(0.5, 1, 1, 0, 0, 1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        ji4_numeric(Ji4Args(-1, 1, 1, 0, 0, 1.0, 1.0, 0.0, 0.0))


def test_error_estimate_covers_the_deep_value():
    for args in (
        Ji4Args(0, 1, 1, 0, 0, 1.0, 2.0, 0.0, 0.0),
        Ji4Args(0, 1, 1, 0, 2, 0.9, 1.4, 0.6, 0.7),
    ):
        shallow = ji4_numeric(args, QuadConfig(abs_tol=1.0, rel_tol=1.0))
        deep = ji4_numeric(
            args, QuadConfig(abs_tol=1.0, rel_tol=1.0, tail_periods=1600)
        )
        assert abs(shallow.value - deep.value) <= shallow.error + deep.error + 1e-12


def test_equal_frequency_tail_is_reported_not_hidden():
    # j1(x)^2 carries a non-oscillatory 1/(2x^2) component, so a finite
    # sweep genuinely leaves a tail; the oracle must refuse, and its
    # attached estimate still carries the right magnitude
    with pytest.raises(QuadratureError) as exc_info:
        ji4_numeric(Ji4Args(0, 1, 1, 0, 0, 1.0, 1.0, 0.0, 0.0))
    assert exc_info.value.estimate == pytest.approx(math.pi / 6.0, abs=1e-2)


FACTOR_CASES = (
    RegionPair(1.0, 1.3, 0.9, 0.4, 1.1, 1.0, 0.8, 0.3),
    RegionPair(1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0),
    RegionPair(1.0, 2.0, 1.0, math.pi / 6, math.pi / 3, 1.0, 2.0, 0.5),
)


@pytest.mark.parametrize("p", FACTOR_CASES)
@pytest.mark.parametrize("kind", list(FactorKind))
def test_factor_oracle_tracks_the_closed_form(kind, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        reference = factor_closed(kind, p).value
        res = factor_fourier_numeric(kind, p, LOOSE)
    assert res.value == pytest.approx(reference, abs=max(1e-3 * abs(reference), 1e-6))


def test_factor_oracle_on_disconnected_regions_is_noise_level():
    p = RegionPair(0.763, 0.597, 2.813, 1.567, 3.528, 0.725, 0.436, 0.988)
    res = factor_fourier_numeric(FactorKind.AXX, p, LOOSE)
    assert abs(res.value) < 1e-6


def test_factor_oracle_validates_inputs():
    bad = RegionPair(1.0, -1.0, 0.5, 0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        factor_fourier_numeric(FactorKind.AXX, bad, LOOSE)


def _utilde_schedules():
    rng = np.random.default_rng(20)
    drawn = [
        Schedule(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(-4.0, 4.0))
        for _ in range(40)
    ]
    # corner lags exactly on a kink: tau3, tau1, tau4 and tau2 = 0
    kinks = [Schedule(1.0, 1.0, 0.0), Schedule(1.0, 0.5, 0.5), Schedule(1.0, 1.0, 1.0),
             Schedule(0.5, 1.0, -1.0)]
    return drawn + kinks


@pytest.mark.parametrize("kind,l", sorted(CHANNELS, key=lambda c: (c[0].value, c[1])))
def test_utilde_direct_equals_utilde(kind, l):
    # the echo-plus-flat kernel is written independently of the gated
    # averages behind utilde; the two forms agree to rounding
    rng = np.random.default_rng(21)
    q = np.concatenate([np.geomspace(0.05, 60.0, 60), rng.uniform(0.05, 60.0, 60)])
    for s in _utilde_schedules():
        expected = utilde(kind, l, q, s)
        got = utilde_direct(kind, l, q, s)
        scale = np.max(np.abs(expected)) + 1.0
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale, s


@pytest.mark.filterwarnings("ignore::brfactor.closed_form.CancellationWarning")
def test_head_matches_adaptive_quadrature(monkeypatch):
    # scipy (a test dependency only) referees the fixed-panel head on the
    # integrands validate draws, over the same interval
    from scipy import integrate

    heads = []
    head = oracle._head

    def recorded(f, h):
        heads.append((f, h, head(f, h)))
        return heads[-1][2]

    monkeypatch.setattr(oracle, "_head", recorded)
    rng = np.random.default_rng(20261018)
    for i in range(20):
        kind, p, _ = _draw_pair(rng, i)
        factor_fourier_numeric(kind, p, LOOSE)
        ji4_numeric(_draw_ji4(rng, i), LOOSE)
    assert len(heads) >= 40
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for f, h, (value, error) in heads:
            end = 2 * oracle._HEAD_PERIODS * h
            reference, _ = integrate.quad(f, 0.0, end, epsabs=1e-15, epsrel=1e-14, limit=500)
            assert abs(value - reference) <= max(error, 1e-13)


def _two_pass_limit(chunks):
    # the tail extrapolation as it was first written: one averaging pass over
    # all chunks and a second over the first half of them
    def plateau(c):
        row = np.cumsum(c)
        estimates = [row[-1]]
        for _ in range(1, c.size):
            row = 0.5 * (row[1:] + row[:-1])
            estimates.append(row[-1])
        moves = np.abs(np.diff(estimates))
        best = int(np.argmin(moves))
        return float(estimates[best + 1]), float(moves[best])

    value, move = plateau(chunks)
    half_value, _ = plateau(chunks[: max(chunks.size // 2, 8)])
    floor = 4e-16 * (np.max(np.abs(np.cumsum(chunks))) + np.max(np.abs(chunks)))
    return value, float(max(move, abs(value - half_value), floor))


def test_one_pass_tail_limit_is_bit_identical_to_two_passes():
    rng = np.random.default_rng(7)
    for n in (8, 9, 17, 64, 401, 800):
        k = np.arange(n)
        chunks = rng.normal() * (-1.0) ** k / (k + 3.0) ** 2 + 1e-3 * rng.normal(size=n)
        assert oracle._averaged_limit(chunks) == _two_pass_limit(chunks)


@pytest.mark.parametrize("magnitude", [1e150, 1e-150])
def test_tail_limit_is_bit_identical_at_extreme_magnitudes(magnitude):
    # 800 averaging levels of doubled sums pass 2^800; at 1e150 the row must
    # be scaled down on the way, at 1e-150 the ends scaled far back up
    rng = np.random.default_rng(13)
    k = np.arange(800)
    for _ in range(5):
        chunks = magnitude * (rng.normal() * (-1.0) ** k / (k + 3.0) ** 2 + 1e-3 * rng.normal(size=800))
        got, want = oracle._averaged_limit(chunks), _two_pass_limit(chunks)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_utilde_direct_refuses_a_missing_channel_and_bad_q():
    s = Schedule(1.0, 0.8, 0.3)
    with pytest.raises(ValidationError):
        utilde_direct(FactorKind.AXY, 0, 1.0, s)
    for q in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            utilde_direct(FactorKind.AXX, 0, q, s)


@pytest.mark.parametrize("kind", list(FactorKind))
def test_factor_oracle_is_zero_when_interval_2_ends_before_interval_1(kind):
    # t_offset + dt2 < 0: every corner lag is negative, so no echo and no
    # flat part survive, as in the closed form
    p = RegionPair(1.0, 1.2, 0.5, 0.4, 1.1, 1.0, 0.5, -2.0)
    assert factor_fourier_numeric(kind, p, LOOSE).value == 0.0
    assert factor_closed(kind, p).value == 0.0


def test_factor_oracle_lengths_beyond_the_float_range_are_refused():
    # r1 * r2 underflows to 0, and the prefactor divides by it
    with pytest.raises(ValidationError, match="float range"):
        factor_fourier_numeric(FactorKind.AXX, RegionPair(1e-200, 1e-200))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_factor_oracle_value_beyond_the_float_range_is_refused():
    # the value overflows to -inf; that is no quadrature error with an estimate
    with pytest.raises(ValidationError, match="float range"):
        factor_fourier_numeric(FactorKind.AXX, RegionPair(1e-150, 1e-150))

"""Quadrature oracles: pinned integrals, honesty of errors, guard clauses."""

import math
import warnings

import numpy as np
import pytest

from brfactor.closed_form import CancellationWarning, factor_closed, ji4
from brfactor.fourier_bessel import _saturated_kernels
from brfactor.model import FactorKind, Ji4Args, RegionPair, ValidationError
from brfactor import oracle
from brfactor.cli import _draw_ji4, _draw_pair
from brfactor.oracle import (
    QuadConfig,
    QuadResult,
    factor_fourier_numeric,
    factor_fourier_numeric_batch,
    ji4_numeric,
    ji4_numeric_batch,
)
from brfactor.special_functions import angular_weight
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


@pytest.mark.parametrize(
    "args",
    [
        # a zero argument of order >= 1 before the bad slot, then behind it
        Ji4Args(0, 1, 1, 0, 0, 0.0, 1.0, math.nan, 1.0),
        Ji4Args(0, 0, 1, 1, 0, math.nan, 1.0, 0.0, 1.0),
        Ji4Args(0, 1, 7, 0, 0, 0.0, 1.0, 1.0, 1.0),
        Ji4Args(0, 7, 1, 0, 0, 1.0, 0.0, 1.0, 1.0),
    ],
)
def test_every_slot_is_checked_before_the_zero_shortcut(args):
    with pytest.raises(ValidationError):
        ji4_numeric(args)


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
    for n in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            ji4_numeric(Ji4Args(n, 1, 1, 0, 0, 1.0, 1.0, 0.0, 0.0))


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


def _kernel_schedules():
    rng = np.random.default_rng(20)
    drawn = [
        Schedule(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(-4.0, 4.0))
        for _ in range(40)
    ]
    # corner lags exactly on a kink: tau3, tau1, tau4 and tau2 = 0
    kinks = [Schedule(1.0, 1.0, 0.0), Schedule(1.0, 0.5, 0.5), Schedule(1.0, 1.0, 1.0),
             Schedule(0.5, 1.0, -1.0)]
    return drawn + kinks


@pytest.mark.parametrize(
    "kind,l", [(kind, l) for kind in FactorKind for l in sorted(angular_weight(kind, 0.0, 0.0))]
)
def test_utilde_direct_equals_utilde(kind, l):
    # the oracle's echo-plus-flat kernel is written independently of the
    # gated averages behind the fixed-node series' saturated kernel; the
    # two forms agree to rounding on every (kind, l) channel the series
    # contracts, though the kernel itself depends on l alone
    rng = np.random.default_rng(21)
    q = np.concatenate([np.geomspace(0.05, 60.0, 60), rng.uniform(0.05, 60.0, 60)])
    for s in _kernel_schedules():
        expected = _saturated_kernels((l,), s)(q)[l]
        got = oracle._echo_kernel(l, q, s, oracle._active_echoes(s)) + oracle._flat_part(l, s)
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
        ji4_numeric(_draw_ji4(rng, i)[0], LOOSE)
    # one head per factor point and per ji4 call, one row per integral
    assert sum(len(values) for _, _, (values, _) in heads) >= 40
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for f, h, (values, errors) in heads:
            end = 2 * oracle._HEAD_PERIODS * h
            for row, (value, error) in enumerate(zip(values, errors)):
                reference, _ = integrate.quad(
                    lambda x: np.reshape(f(np.array([x])), -1)[row], 0.0, end,
                    epsabs=1e-15, epsrel=1e-14, limit=500)
                assert abs(value - reference) <= max(error, 1e-13)


@pytest.mark.parametrize("periods", [400, 800])
def test_angle_addition_tables_match_direct_trig(periods):
    # the sin and cos of a x from the tables of _tail_sums, against np.sin
    # and np.cos of the same nodes, within 4 ulp of the largest |a x| (or of
    # 1, the values' own size), at arguments up to about 1100; 1.7 ulp is
    # the worst seen
    h = math.pi / 3.7
    lo = 2 * oracle._HEAD_PERIODS * h + h * np.arange(periods)
    seen = []

    def f(x, trig):
        seen.append((x, trig))
        return np.zeros_like(x)

    oracle._tail_sums(f, lo, 0.5 * h)
    (x, trig), = seen
    assert x.shape == (16, periods)
    for a in [0.0] + np.geomspace(1e-3, 1100.0 / np.max(x), 25).tolist():
        ulp = np.spacing(max(np.max(np.abs(a * x)), 1.0))
        for wanted in ((True, True), (True, False), (False, True)):
            for got, direct, want in zip(trig(a, *wanted), (np.sin(a * x), np.cos(a * x)), wanted):
                if want:
                    assert np.max(np.abs(got - direct)) <= 4 * ulp, a
                else:
                    assert got is None


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


def test_stacked_tail_limit_keeps_each_column_bit_identical():
    # columns whose rescale schedules differ share every level's add: 1e150
    # is rescaled on the way, and would overflow on the schedule of 1e-150
    # or 1e-300, which need none
    rng = np.random.default_rng(17)
    k = np.arange(800)
    columns = [m * (rng.normal() * (-1.0) ** k / (k + 3.0) ** 2 + 1e-3 * rng.normal(size=800))
               for m in (1e150, 1e-150, 1e-300, 1e150)]
    values, errors = oracle._averaged_limit(np.stack(columns, axis=1))
    for i, chunks in enumerate(columns):
        value, error = oracle._averaged_limit(chunks)
        assert (values[i].hex(), errors[i].hex()) == (value.hex(), error.hex())


def _hex(result):
    return result.value.hex(), result.error.hex()


def _outcomes(call, items):
    """What each scalar call returns, or the type and message it raises."""
    out = []
    for item in items:
        try:
            out.append(_hex(call(item)))
        except (ValidationError, QuadratureError) as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.filterwarnings("ignore::brfactor.closed_form.CancellationWarning")
def test_factor_batch_matches_a_loop_of_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(20261019)
    items = [_draw_pair(rng, i)[:2] for i in range(9)]
    items += [
        (kind, RegionPair(1.3, 0.7, 0.0, 0.4, 1.1, 0.6, 0.9, 0.2)) for kind in FactorKind
    ]  # r = 0: the l >= 1 channels drop out, bxy has no job
    items += [(FactorKind.AXX, RegionPair(1.0, 1.2, 0.5, 0.4, 1.1, 1.0, 0.5, -2.0))]  # dead window
    expected = _outcomes(lambda item: factor_fourier_numeric(*item, LOOSE), items)
    assert [_hex(r) for r in factor_fourier_numeric_batch(items, LOOSE)] == expected


def test_ji4_batch_matches_a_loop_of_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(20261020)
    args = [_draw_ji4(rng, i)[0] for i in range(8)]
    args.insert(3, Ji4Args(0, 1, 1, 0, 2, 1.0, 2.0, 0.5, 0.0))  # an exact zero
    cfg = QuadConfig(abs_tol=1.0, rel_tol=1.0, tail_periods=800)
    expected = _outcomes(lambda a: ji4_numeric(a, cfg), args)
    assert [_hex(r) for r in ji4_numeric_batch(args, cfg)] == expected


@pytest.mark.parametrize("failing", [[1, 2], [2, 1]])
def test_batch_raises_what_the_first_failing_scalar_call_raises(failing):
    # a tail that stalls (QuadratureError, raised when its item is judged)
    # and a bad slot (ValidationError, raised when its item is staged), in
    # either order behind a good item
    good = Ji4Args(0, 1, 1, 0, 0, 1.0, 2.0, 0.0, 0.0)
    bad = {1: Ji4Args(0, 1, 1, 0, 0, 1.0, 1.0, 0.0, 0.0), 2: Ji4Args(0, 3, 1, 0, 0, 1.0, 1.0, 0.0, 0.0)}
    args = [good] + [bad[i] for i in failing] + [good]
    first = next(o for o in _outcomes(ji4_numeric, args) if isinstance(o[0], type))
    with pytest.raises(first[0]) as exc_info:
        ji4_numeric_batch(args)
    assert str(exc_info.value) == first[1]
    points = [RegionPair(1.0, 1.3, 0.9, 0.4, 1.1, 1.0, 0.8, 0.3), RegionPair(1.0, -1.0)]
    with pytest.raises(ValidationError):
        factor_fourier_numeric_batch([(FactorKind.AXX, p) for p in points], LOOSE)


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
def test_ji4_oracle_value_beyond_the_float_range_is_refused():
    # int j0(a x) dx = pi / (2 a) overflows at a = 1e-310
    with pytest.raises(ValidationError, match="the value lies beyond the float range"):
        ji4_numeric(Ji4Args(0, 0, 0, 0, 0, 1e-310, 0.0, 0.0, 0.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_factor_oracle_value_beyond_the_float_range_is_refused():
    # the value overflows to -inf; that is no quadrature error with an estimate
    with pytest.raises(ValidationError, match="float range"):
        factor_fourier_numeric(FactorKind.AXX, RegionPair(1e-150, 1e-150))

"""Series routes against the closed form and each other; stopping honesty."""

import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from brfactor.closed_form import _two_sum, factor_closed
from brfactor.fourier_bessel import (
    BLOCK,
    SeriesTermLog,
    _accumulate,
    _spans,
    factor_series,
    factor_series_general,
    utilde,
)
from brfactor.model import (
    FactorKind,
    Method,
    RegionPair,
    SeriesConfig,
    ValidationError,
)
from brfactor.time_averages import AvgKind, Schedule, infinite_avg

# reference values on structural near-zeros cancel by construction
pytestmark = pytest.mark.filterwarnings(
    "ignore::brfactor.closed_form.CancellationWarning"
)

CONFIGS = (
    RegionPair(1.0, 1.3, 0.9, 0.4, 1.1, 1.0, 0.8, 0.3),
    RegionPair(5.0, 0.5, 0.2, 0.7, 0.3, 1.0, 0.5, 0.0),  # region 1 truncated
    RegionPair(1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0),
    RegionPair(1.0, 2.0, 1.0, math.pi / 6, math.pi / 3, 1.0, 2.0, 0.5),
    RegionPair(2.0, 1.0, 1.0, 5 * math.pi / 6, 4 * math.pi / 3, 2.0, 1.0, -0.5),
)


@pytest.mark.parametrize("p", CONFIGS)
@pytest.mark.parametrize("kind", list(FactorKind))
def test_series_routes_agree_with_closed_form(p, kind):
    reference = factor_closed(kind, p).value
    simple = factor_series(kind, p)
    general = factor_series_general(kind, p)
    if abs(reference) > 1e-6:
        # a vanishing factor cannot certify a relative-tail stop, so the
        # converged flag is only meaningful away from structural zeros
        assert simple.converged and general.converged
    assert simple.value == pytest.approx(reference, abs=5e-5)
    assert general.value == pytest.approx(reference, abs=5e-5)
    # the two node systems are independent, so they also agree directly
    assert simple.value == pytest.approx(general.value, abs=5e-5)
    assert simple.method is Method.SERIES_SIMPLE
    assert general.method is Method.SERIES_GENERAL


def test_truncated_region_needs_the_volume_correction():
    # the truncation case only works because of the (r1'/r1)^3 rescale;
    # a sanity anchor: the factor is far from the untruncated magnitude
    p = CONFIGS[1]
    res = factor_series(FactorKind.AXX, p)
    assert res.value == pytest.approx(factor_closed(FactorKind.AXX, p).value, abs=5e-5)
    assert abs(res.value) > 1e-3


def test_term_log_records_the_accumulation():
    p = CONFIGS[0]
    log = []
    res = factor_series(FactorKind.AXX, p, term_log=log)
    assert len(log) == res.terms_used
    ns = [entry.n for entry in log]
    assert ns == list(range(1, res.terms_used + 1))
    r_ex = p.r + p.r2 + max(p.t_offset + p.dt2, 0.0)
    for entry in log[:5]:
        assert entry.q_n == pytest.approx(entry.n * math.pi / r_ex, rel=1e-15)
    assert log[-1].partial_sum == res.value
    assert all(math.isfinite(entry.term_value) for entry in log)


def _accumulate_per_term(terms, q, cfg, start, term_log):
    """Reference: exact prefix sums, the stop rule tested after every term,
    as a deque max."""
    total = Fraction(start)
    window = deque(maxlen=cfg.tail_window)
    used = 0
    converged = False
    for n, (q_n, term) in enumerate(zip(q, terms), start=1):
        total += Fraction(term)
        window.append(abs(term))
        term_log.append(SeriesTermLog(n=n, q_n=q_n, term_value=term, partial_sum=total))
        used = n
        if len(window) == cfg.tail_window and max(window) < cfg.tail_tol * max(
            abs(float(total)), 1e-300
        ):
            converged = True
            break
    tail = max(window) if window else 0.0
    return total, used, tail, converged


_U = Fraction(1, 2**53)


def _within_sum2_bound(got: float, exact: Fraction, summands: list) -> bool:
    """|got - exact| <= u |exact| + gamma_n^2 sum |x| (Ogita, Rump & Oishi),
    the error bound of a compensated sum of n summands in double precision."""
    gamma = len(summands) * _U / (1 - len(summands) * _U)
    bound = _U * abs(exact) + gamma**2 * sum(abs(Fraction(x)) for x in summands)
    return abs(Fraction(got) - exact) <= bound


def _blocks(n, q, terms, spans):
    for lo, hi in spans:
        yield n[lo:hi], q[lo:hi], terms[lo:hi]


def _fixed_spans(count):
    return [(lo, min(lo + BLOCK, count)) for lo in range(0, count, BLOCK)]


def _terms_stopping_at(stop, width, count, seed):
    """Signed terms of mixed size that fall below the stop threshold from
    node stop - width + 1 on, so the window rule first holds at `stop`."""
    rng = np.random.default_rng(seed)
    terms = rng.choice([-1.0, 1.0], count) * rng.uniform(1e-3, 1.0, count)
    terms /= np.arange(1, count + 1)
    if stop is not None:
        first_small = stop - width
        terms[first_small:] = rng.uniform(-1e-9, 1e-9, count - first_small)
        # a term just above the threshold right before the quiet run
        if first_small > 0:
            terms[first_small - 1] = 1e-5
    return terms


@pytest.mark.parametrize(
    "width,stop",
    [
        (width, stop)
        for width in (1, 20, 200)
        for stop in (20, 127, 128, 129, 200, 256, None)
        if stop is None or stop >= width  # a stop needs a full window
    ],
)
def test_block_stop_rule_matches_the_per_term_rule(width, stop):
    # windows that end at n = 129 or 256 reach back across a block boundary
    count = 300
    cfg = SeriesConfig(n_max=count, tail_window=width)
    terms = _terms_stopping_at(stop, width, count, seed=width * 1000 + (stop or 0))
    n = np.arange(1, count + 1)
    q = 0.5 * n

    def blocks():
        return _blocks(n, q, terms, _fixed_spans(count))

    log, ref_log = [], []
    got = _accumulate(blocks(), cfg, 5.0, log)
    expected = _accumulate_per_term(terms.tolist(), q.tolist(), cfg, 5.0, ref_log)
    assert got[1:] == expected[1:]
    assert [(e.n, e.q_n, e.term_value) for e in log] == [
        (e.n, e.q_n, e.term_value) for e in ref_log
    ]
    # every partial sum, returned or logged, is a compensated sum of its prefix
    summands = [5.0] + terms.tolist()
    assert _within_sum2_bound(got[0], expected[0], summands[: got[1] + 1])
    for k, (entry, ref) in enumerate(zip(log, ref_log), start=2):
        assert _within_sum2_bound(entry.partial_sum, ref.partial_sum, summands[:k])
    assert got[0] == log[-1].partial_sum
    assert got[1] == (stop if stop is not None else count)
    assert got[3] is (stop is not None)
    # without a log the same result comes back
    assert _accumulate(blocks(), cfg, 5.0) == got


@pytest.mark.parametrize("stop", [20, 127, 129, 700, None])
def test_result_does_not_depend_on_where_blocks_end(stop):
    count = 1000
    cfg = SeriesConfig(n_max=count, tail_window=20)
    terms = _terms_stopping_at(stop, 20, count, seed=7 + (stop or 0))
    n = np.arange(1, count + 1)
    q = 0.25 * n
    results = []
    for spans in ([(0, count)], _fixed_spans(count), list(_spans(count))):
        log = []
        results.append((_accumulate(_blocks(n, q, terms, spans), cfg, -2.0, log), log))
    assert results[0] == results[1] == results[2]
    assert results[0][0][1] == (stop if stop is not None else count)


def test_spans_double_from_one_block():
    assert list(_spans(2000)) == [(0, 128), (128, 384), (384, 896), (896, 1920), (1920, 2000)]
    assert list(_spans(BLOCK)) == [(0, BLOCK)]
    assert list(_spans(5)) == [(0, 5)]


def _kahan(start, terms):
    total, comp = start, 0.0
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


@pytest.mark.parametrize("seed", range(8))
def test_cancelling_series_is_no_farther_from_exact_than_kahan(seed):
    # large terms that cancel to about 1e-12 of their magnitude sum
    rng = np.random.default_rng(seed)
    half = rng.uniform(0.1, 10.0, 600) * rng.choice([-1.0, 1.0], 600)
    terms = np.concatenate((half, -half[::-1] * (1.0 + rng.uniform(-1e-15, 1e-15, 600))))
    terms[-1] += 1e-12 * np.abs(terms).sum()
    count = len(terms)
    exact = sum(map(Fraction, terms.tolist()), Fraction(0))
    assert abs(exact) < 1e-11 * float(np.abs(terms).sum())
    cfg = SeriesConfig(n_max=count, tail_window=count)
    n = np.arange(1, count + 1)
    total = _accumulate(_blocks(n, 1.0 * n, terms, _spans(count)), cfg, 0.0)[0]
    ours = abs(Fraction(total) - exact)
    assert ours <= abs(Fraction(_kahan(0.0, terms.tolist())) - exact)
    assert _within_sum2_bound(total, exact, terms.tolist())


def test_cumsum_adds_left_to_right():
    # the accumulator relies on np.cumsum (np.add.accumulate) being the
    # sequential float sum, so that TwoSum of consecutive prefixes recovers
    # each rounding error
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e-8, 1e12):
        x = rng.normal(0.0, scale, 4001) * rng.uniform(0.0, 1.0, 4001) ** 8
        run = np.cumsum(x)
        total, expected = 0.0, []
        for v in x.tolist():
            total += v
            expected.append(total)
        assert run.tolist() == expected
        assert np.add.accumulate(x).tolist() == expected
        s, _ = _two_sum(run[:-1], x[1:])
        assert np.array_equal(s, run[1:])


def test_small_budget_reports_nonconvergence():
    p = CONFIGS[0]
    cfg = SeriesConfig(n_max=25, tail_window=20)
    res = factor_series(FactorKind.AXX, p, cfg)
    assert not res.converged
    assert res.terms_used == 25
    assert res.tail_estimate > 0.0
    res_g = factor_series_general(FactorKind.AXX, p, cfg)
    assert not res_g.converged


def test_terms_used_never_exceeds_budget():
    p = CONFIGS[3]
    for cfg in (SeriesConfig(), SeriesConfig(n_max=120, tail_window=20)):
        for route in (factor_series, factor_series_general):
            assert route(FactorKind.BXY, p, cfg).terms_used <= cfg.n_max


def test_expansion_radius_slack_changes_little():
    p = CONFIGS[0]
    base = factor_series(FactorKind.AXY, p).value
    for slack in (0.4, 1.1):
        res = factor_series(FactorKind.AXY, p, SeriesConfig(rex_slack=slack))
        assert res.converged
        assert res.value == pytest.approx(base, abs=2e-5)


def test_series_validates_inputs():
    bad = RegionPair(-1.0, 1.0, 0.5, 0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        factor_series(FactorKind.AXX, bad)
    with pytest.raises(ValidationError):
        factor_series_general(FactorKind.AXX, bad)


def test_utilde_rejects_unsupported_channels():
    s = Schedule(1.0, 0.8, 0.3)
    with pytest.raises(ValidationError):
        utilde(FactorKind.AXX, 1, 2.0, s)
    with pytest.raises(ValidationError):
        utilde(FactorKind.AXY, 0, 2.0, s)
    with pytest.raises(ValidationError):
        utilde(FactorKind.BXY, 2, 2.0, s)


def test_utilde_broadcasts_and_matches_its_averages():
    s = Schedule(1.0, 0.8, 0.3)
    q = np.array([0.5, 2.0, 7.0])
    vec = utilde(FactorKind.AXY, 2, q, s)
    assert vec.shape == q.shape
    for i, qi in enumerate(q):
        assert utilde(FactorKind.AXY, 2, float(qi), s) == vec[i]
    # the dipole channel is the q-weighted saturated cosine average
    got = utilde(FactorKind.BXY, 1, q, s)
    expected = q * infinite_avg(AvgKind.COS, q, s)
    assert np.allclose(got, expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("route", [factor_series, factor_series_general])
def test_series_lengths_beyond_the_float_range_are_refused(route):
    # r1 * r2 underflows to 0, and the prefactors divide by it
    with pytest.raises(ValidationError, match="float range"):
        route(FactorKind.AXX, RegionPair(1e-200, 1e-200))


@pytest.mark.parametrize(
    "route,length",
    [(factor_series, 1e-150), (factor_series_general, 1e-100),
     (factor_series_general, 1e150)],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_series_value_beyond_the_float_range_is_refused(route, length):
    # the terms overflow to a nan, or (at 1e150) r_ex**3 of the general
    # route's root weights does; neither may come back as a value
    with pytest.raises(ValidationError, match="float range"):
        route(FactorKind.AXX, RegionPair(length, length))


@pytest.mark.parametrize("kind", list(FactorKind))
@pytest.mark.parametrize("route", [factor_series, factor_series_general])
def test_dead_window_with_overflowing_lags_is_exactly_zero(route, kind):
    # every corner lag is negative, so every gate is exactly 0 and the
    # factor is 0; q tau overflows there, and 0 * sin(inf) would be a nan
    p = RegionPair(r1=1e-100, r2=1e-100, dt1=1.0, dt2=1.0, t_offset=-1e250)
    assert factor_closed(kind, p).value == 0.0
    result = route(kind, p)
    assert result.value == 0.0
    assert result.converged

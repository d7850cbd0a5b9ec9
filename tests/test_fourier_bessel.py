"""Series routes against the closed form and each other; stopping honesty."""

import ast
import inspect
import math
import pickle
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from brfactor import closed_form, fourier_bessel, model
from brfactor.closed_form import _two_sum, factor_closed, ji4
from brfactor.fourier_bessel import (
    BLOCK,
    SeriesTermLog,
    _accumulate,
    _flat_head,
    _saturated_kernels,
    _spans,
    factor_series,
    factor_series_general,
)
from brfactor.model import (
    FactorKind,
    Ji4Args,
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


def _sum2_bound(exact: Fraction, count: int, abs_sum: Fraction) -> Fraction:
    """u |exact| + gamma_n^2 sum |x| (Ogita, Rump & Oishi): the error bound
    of a compensated sum of n summands in double precision."""
    gamma = count * _U / (1 - count * _U)
    return _U * abs(exact) + gamma**2 * abs_sum


def _block_of(q, terms, calls):
    """A `block` callable over fixed arrays; it records each span asked for."""

    def block(lo, hi):
        calls.append((lo, hi))
        return q[lo:hi], terms[lo:hi]

    return block


def _terms_stopping_at(stop, width, count, seed):
    """Signed terms of size 0.5/n to 1/n, 3e-5 at node stop - width, below
    1e-9 from node stop - width + 1 on, but 1.4e-5 at node `stop`.

    Summed from 20, the partial sums at the stop lie in 17.7-22.2, so the
    default tail_tol puts the threshold at 1.77e-5 to 2.22e-5.  The window
    rule first holds at `stop`: the window that ends at node stop - 1 fails
    on the 3e-5 term and the one that ends at `stop` passes on 1.4e-5, each
    by at least 1.26x, so a threshold off by a small factor either way
    moves the stop."""
    rng = np.random.default_rng(seed)
    terms = rng.choice([-1.0, 1.0], count) * rng.uniform(0.5, 1.0, count)
    terms /= np.arange(1, count + 1)
    if stop is not None:
        terms[stop - width :] = rng.uniform(-1e-9, 1e-9, count - stop + width)
        terms[stop - 1] = 1.4e-5
        if stop > width:
            terms[stop - width - 1] = 3e-5
    return terms


#: the last node of each span, and the nodes either side of it
BOUNDARY_STOPS = (127, 128, 129, 383, 384, 385, 895, 896, 897)
#: the series budget; it ends inside the span of nodes 897 to 1920
COUNT = 1000


def _spans_through(used):
    """The spans of `_spans(COUNT)` up to the one that holds node `used`."""
    return [(lo, hi) for lo, hi in _spans(COUNT) if lo < used]


@pytest.mark.parametrize(
    "width,stop",
    [
        (width, stop)
        for width in (1, 20, 200)
        for stop in (20, 200, 256) + BOUNDARY_STOPS + (None,)
        if stop is None or stop >= width  # a stop needs a full window
    ],
)
def test_block_stop_rule_matches_the_per_term_rule(width, stop):
    # a window that ends just past a span boundary reaches back across it
    cfg = SeriesConfig(n_max=COUNT, tail_window=width)
    terms = _terms_stopping_at(stop, width, COUNT, seed=width * 1000 + (stop or 0))
    q = 0.5 * np.arange(1, COUNT + 1)
    log, ref_log, calls = [], [], []
    got = _accumulate(_block_of(q, terms, calls), cfg, 20.0, log)
    expected = _accumulate_per_term(terms.tolist(), q.tolist(), cfg, 20.0, ref_log)
    assert got[1:] == expected[1:]
    assert got[1] == (stop if stop is not None else COUNT)
    assert got[3] is (stop is not None)
    # no block past the one that holds the stop is asked for
    assert calls == _spans_through(got[1])
    assert [(e.n, e.q_n, e.term_value) for e in log] == [
        (e.n, e.q_n, e.term_value) for e in ref_log
    ]
    # every partial sum, returned or logged, is a compensated sum of its prefix
    assert got[0] == log[-1].partial_sum
    abs_sum = Fraction(20)
    for count, (entry, ref) in enumerate(zip(log, ref_log), start=2):
        abs_sum += abs(Fraction(entry.term_value))
        error = abs(Fraction(entry.partial_sum) - ref.partial_sum)
        assert error <= _sum2_bound(ref.partial_sum, count, abs_sum)
    # without a log the same result comes back
    assert _accumulate(_block_of(q, terms, []), cfg, 20.0) == got


@pytest.mark.parametrize("stop", (20, 700) + BOUNDARY_STOPS + (None,))
def test_result_does_not_depend_on_where_blocks_end(stop, monkeypatch):
    cfg = SeriesConfig(n_max=COUNT, tail_window=20)
    terms = -_terms_stopping_at(stop, 20, COUNT, seed=7 + (stop or 0))
    q = 0.25 * np.arange(1, COUNT + 1)
    results = []
    for first in (1, 7, BLOCK, COUNT):
        monkeypatch.setattr(fourier_bessel, "BLOCK", first)
        log, calls = [], []
        results.append((_accumulate(_block_of(q, terms, calls), cfg, -20.0, log), log))
        assert calls == _spans_through(results[-1][0][1])
    # bit for bit: value, stop, tail and every logged term and partial sum
    assert len({pickle.dumps(result) for result in results}) == 1
    assert results[0][0][1] == (stop if stop is not None else COUNT)


def test_a_block_that_raises_leaves_the_log_as_it_was():
    # the log is written once, after the stop: a series refused in its
    # second block logs none of the first block's terms
    terms = _terms_stopping_at(None, 20, COUNT, seed=5)
    q = 0.5 * np.arange(1, COUNT + 1)
    fetch = _block_of(q, terms, [])

    def block(lo, hi):
        if lo:
            raise ValidationError("wavenumber beyond the float range")
        return fetch(lo, hi)

    log = [None]
    with pytest.raises(ValidationError):
        _accumulate(block, SeriesConfig(n_max=COUNT, tail_window=20), 20.0, log)
    assert log == [None]


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
    total = _accumulate(_block_of(np.arange(1.0, count + 1), terms, []), cfg, 0.0)[0]
    ours = abs(Fraction(total) - exact)
    assert ours <= abs(Fraction(_kahan(0.0, terms.tolist())) - exact)
    assert ours <= _sum2_bound(exact, count, sum(abs(Fraction(x)) for x in terms.tolist()))


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


def test_saturated_dipole_kernel_is_q_times_the_cosine_average():
    s = Schedule(1.0, 0.8, 0.3)
    q = np.array([0.5, 2.0, 7.0])
    got = _saturated_kernels((1,), s)(q)[1]
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
    # the terms overflow to a nan, or (at 1e150) the unit-scale durations
    # fall below the floor; neither may come back as a value
    with pytest.raises(ValidationError, match="float range"):
        route(FactorKind.AXX, RegionPair(length, length))


def test_general_root_weights_beyond_the_float_range_are_refused():
    # the regions are at unit scale, but r_ex**3 of the root weights
    # overflows; the offset keeps the point inside the light-cone support,
    # where the series is summed
    with pytest.raises(ValidationError, match="float range"):
        factor_series_general(FactorKind.AXX, RegionPair(1.0, 1.0, r=1e150, t_offset=1e150))


@pytest.mark.parametrize("kind", list(FactorKind))
@pytest.mark.parametrize("route", [factor_series, factor_series_general])
def test_dead_window_with_overflowing_lags_is_exactly_zero(route, kind):
    # every corner lag is negative, so every gate is exactly 0 and the
    # factor is 0; q tau would overflow there, and 0 * sin(inf) be a nan.
    # The point lies outside the light-cone support, so both routes return
    # their exact 0 before any node is summed
    p = RegionPair(r1=1e-100, r2=1e-100, dt1=1.0, dt2=1.0, t_offset=-1e250)
    assert not p.in_support()
    assert factor_closed(kind, p).value == 0.0
    result = route(kind, p)
    assert result.value == 0.0
    assert result.converged


def test_series_routes_import_nothing_from_the_closed_form():
    # the flat head is the ball-overlap polynomial and TwoSum lives in
    # model, so an error in the closed form's kernels cannot reach the
    # series routes and hide behind route agreement
    tree = ast.parse(inspect.getsource(fourier_bessel))
    imported = {
        node.module: {alias.name for alias in node.names}
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert "closed_form" not in imported
    assert "_two_sum" in imported["model"]
    assert fourier_bessel._two_sum is model._two_sum is closed_form._two_sum


def _exact_head(g00, a, b, r):
    """The flat head as a Fraction, from the ball-overlap volume."""
    g00, a, b, r = map(Fraction, (g00, a, b, r))
    if r >= a + b:
        return Fraction(0)
    if r <= abs(a - b):
        return 2 * g00 / max(a, b) ** 3
    return g00 * (a + b - r) ** 2 * (r * r + 2 * r * (a + b) - 3 * (a - b) ** 2) / (
        8 * r * a**3 * b**3)


def _head_points(seed, count, margin=0.0):
    """Seeded (g00, a, b, r): radii log-uniform over three decades, and a
    third each nested, lens and disjoint, at least `margin` from the
    support edges |a - b| and a + b."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        a, b = np.exp(rng.uniform(-3.5, 3.5, 2)).tolist()
        d, s = abs(a - b), a + b
        lo, hi = [(0.0, d - margin), (d + margin, s - margin), (s + margin, 2 * s)][k % 3]
        if lo < hi:
            yield float(rng.uniform(-2.0, 2.0)), a, b, float(rng.uniform(lo, hi))


def test_flat_head_matches_the_exact_ball_overlap_value():
    regimes = set()
    for g00, a, b, r in _head_points(1600, 900):
        exact = _exact_head(g00, a, b, r)
        got = _flat_head(g00, a, b, r)
        regimes.add((r <= abs(a - b), r >= a + b))
        if exact == 0:
            assert got == 0.0
        else:
            assert abs(Fraction(got) - exact) <= 1e-12 * abs(exact)
    assert regimes == {(True, False), (False, False), (False, True)}


def test_flat_head_matches_the_closed_form_ji4_away_from_the_edges():
    # an independent derivation: the closed form's permutation sums
    points = [(g, a, b, r) for g, a, b, r in _head_points(1601, 300, margin=0.05)
              if 0.3 <= min(a, b) and max(a, b) <= 3.0]
    assert len(points) >= 30
    for g00, a, b, r in points:
        closed = 12.0 / (math.pi * a * b) * g00 * ji4(
            Ji4Args(n=0, l1=1, l2=1, l3=0, l4=0, alpha=a, beta=b, gamma=r, delta=0.0))
        # past a + b the closed form leaves rounding noise where the head is 0
        noise = 1e-12 * abs(g00) / max(a, b) ** 3
        assert _flat_head(g00, a, b, r) == pytest.approx(closed, rel=1e-8, abs=noise)


@pytest.mark.parametrize("a,b", [(0.75, 1.5), (1.0, 1.0), (3.0, 0.25)])
def test_flat_head_is_exactly_zero_on_and_past_the_support_and_for_a_closed_gate(a, b):
    # a + b is exact for these radii
    for r in (a + b, math.nextafter(a + b, math.inf), 2.0 * (a + b), 1e300):
        assert _flat_head(-0.5, a, b, r) == 0.0
    for r in (0.0, abs(a - b), 0.5 * (a + b)):
        assert _flat_head(0.0, a, b, r) == 0.0


@pytest.mark.parametrize("a,b", [(0.75, 1.5), (3.0, 0.25), (1e-5, 1.0)])
def test_flat_head_branches_meet_where_the_balls_touch_inside(a, b):
    d = abs(a - b)
    nested = _flat_head(1.0, a, b, d)
    assert nested == 2.0 / max(a, b) ** 3
    lens = _flat_head(1.0, a, b, math.nextafter(d, math.inf))
    assert lens == pytest.approx(nested, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("r", [0.0, 0.3])
def test_flat_head_of_a_small_ball_inside_a_large_one(r):
    # the closed form's ji4 loses its digits here: 1.8917 and 2.5102
    assert _flat_head(1.0, 1e-5, 1.0, r) == 2.0


@pytest.mark.parametrize("route", [factor_series, factor_series_general])
def test_small_ball_probe_is_near_its_reference_or_unconverged(route):
    # r1 = 1e-5 inside r2 = 1; the closed form with its lanes at 60 digits
    # gives 1.5
    result = route(FactorKind.AXX, RegionPair(1e-5, 1.0, t_offset=0.5))
    assert result.value == pytest.approx(1.5, rel=1e-3)
    assert not result.converged or result.value == pytest.approx(1.5, rel=5e-5)

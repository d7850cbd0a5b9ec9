"""Analytic double time averages against quadrature and hand formulas."""

import math
import warnings

import numpy as np
import pytest

from brfactor.cli import _time_average_integrand
from brfactor.closed_form import CancellationWarning
from brfactor.model import ValidationError
from brfactor.time_averages import (
    BOUNDARY_RTOL,
    AvgKind,
    QuadratureError,
    Schedule,
    _panel_sums,
    _sorted_rows,
    finite_avg,
    heaviside,
    infinite_avg,
    numeric_time_average,
    numeric_time_average_batch,
    step_coefficients,
)

SCHEDULES = (
    Schedule(1.0, 0.8, 0.3),
    Schedule(0.5, 2.0, -1.2),
    Schedule(1.3, 1.3, 0.0),
    Schedule(2.4, 0.7, 3.1),
)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dt1": 0.0, "dt2": 1.0},
        {"dt1": 1.0, "dt2": -0.5},
        {"dt1": float("nan"), "dt2": 1.0},
        {"dt1": 1.0, "dt2": 1.0, "t_offset": float("inf")},
    ],
)
def test_schedule_rejects_bad_values(kwargs):
    with pytest.raises(ValidationError):
        Schedule(**kwargs)


def test_schedule_corner_lags():
    s = Schedule(1.0, 0.8, 0.3)
    assert s.taus == pytest.approx((0.1, 1.1, 0.3, -0.7), abs=1e-15)
    assert s.scale() == 1.0
    assert s.scale(5.0) == 5.0


def test_heaviside_boundary_band():
    assert heaviside(0.0, 1.0) == 0.5
    assert heaviside(5e-13, 1.0) == 0.5
    assert heaviside(-5e-13, 1.0) == 0.5
    assert heaviside(2e-12, 1.0) == 1.0
    assert heaviside(-2e-12, 1.0) == 0.0
    # the band scales with the magnitude argument
    assert heaviside(5e-10, 1e3) == 0.5


@pytest.mark.parametrize("s", SCHEDULES)
@pytest.mark.parametrize("q", [0.3, 2.7, 11.0])
@pytest.mark.parametrize("r_ex", [0.7, 2.5])
def test_finite_averages_match_quadrature(s, q, r_ex):
    sc = s.scale(r_ex)
    for kind, trig in ((AvgKind.SIN, np.sin), (AvgKind.COS, np.cos)):
        f = lambda t: trig(q * t) * heaviside(t, sc) * heaviside(r_ex - t, sc)
        numeric = numeric_time_average(f, s, breakpoints=(0.0, r_ex))
        assert finite_avg(kind, q, r_ex, s) == pytest.approx(numeric, abs=1e-9)


@pytest.mark.parametrize("s", SCHEDULES)
@pytest.mark.parametrize("q", [0.3, 2.7, 11.0])
def test_infinite_averages_match_quadrature(s, q):
    sc = s.scale()
    for kind, trig in ((AvgKind.SIN, np.sin), (AvgKind.COS, np.cos)):
        f = lambda t: trig(q * t) * heaviside(t, sc)
        numeric = numeric_time_average(f, s, breakpoints=(0.0,))
        assert infinite_avg(kind, q, s) == pytest.approx(numeric, abs=1e-9)


def test_zero_offset_unit_square_closed_forms():
    # with both windows (0, 1) the lag density is the unit triangle, so
    # <cos(qt) Theta(t)> = (1 - cos q)/q^2 and <sin(qt) Theta(t)> = (q - sin q)/q^2
    s = Schedule(1.0, 1.0, 0.0)
    for q in (0.4, 1.7, 9.3):
        assert infinite_avg(AvgKind.COS, q, s) == pytest.approx(
            (1.0 - math.cos(q)) / q**2, rel=1e-13
        )
        assert infinite_avg(AvgKind.SIN, q, s) == pytest.approx(
            (q - math.sin(q)) / q**2, rel=1e-13
        )


def _per_norm(s: Schedule, r_ex: float, field: str) -> float:
    # a step coefficient divided by dt1*dt2, the average it stands for
    return getattr(step_coefficients(s, r_ex), field) / (s.dt1 * s.dt2)


def _overlap_density(s: Schedule, lag: float) -> float:
    # length of {t1 in (0, dt1) : t1 + lag in (t_offset, t_offset + dt2)}
    lo = max(0.0, s.t_offset - lag)
    hi = min(s.dt1, s.t_offset + s.dt2 - lag)
    return max(0.0, hi - lo) / (s.dt1 * s.dt2)


@pytest.mark.parametrize("s", SCHEDULES)
@pytest.mark.parametrize("r_ex", [0.35, 0.9, 1.8])
def test_delta_average_is_the_overlap_density(s, r_ex):
    got = _per_norm(s, r_ex, "dr")
    assert got == pytest.approx(_overlap_density(s, r_ex), abs=1e-14)


@pytest.mark.parametrize("s", SCHEDULES)
def test_eps_term_is_half_the_zero_lag_density(s):
    got = 0.5 * _per_norm(s, 0.55, "d0")
    assert got == pytest.approx(0.5 * _overlap_density(s, 0.0), abs=1e-14)


@pytest.mark.parametrize("s", SCHEDULES)
@pytest.mark.parametrize("r_ex", [0.35, 0.9, 1.8])
def test_delta_prime_is_minus_the_density_slope(s, r_ex):
    # away from the corner lags the density is piecewise linear, so a
    # central difference of the delta average is exact up to rounding
    taus = s.taus
    if any(abs(r_ex - tau) < 1e-3 for tau in taus):
        pytest.skip("probe too close to a corner lag")
    h = 1e-6
    slope = (
        _per_norm(s, r_ex + h, "dr")
        - _per_norm(s, r_ex - h, "dr")
    ) / (2.0 * h)
    got = _per_norm(s, r_ex, "dp")
    assert got == pytest.approx(-slope, abs=1e-8)


@pytest.mark.parametrize("s", SCHEDULES)
@pytest.mark.parametrize("q", [0.6, 4.2])
def test_gate_derivative_links_cosine_to_delta(s, q):
    # d/dr <trig(qt) Theta(t) Theta(r - t)> = trig(q r) <delta(t - r)>
    r_ex = 0.77
    if any(abs(r_ex - tau) < 1e-3 for tau in s.taus):
        pytest.skip("probe too close to a corner lag")
    h = 1e-5
    for kind, trig in ((AvgKind.COS, math.cos), (AvgKind.SIN, math.sin)):
        slope = (
            finite_avg(kind, q, r_ex + h, s) - finite_avg(kind, q, r_ex - h, s)
        ) / (2.0 * h)
        expected = trig(q * r_ex) * _per_norm(s, r_ex, "dr")
        assert slope == pytest.approx(expected, abs=5e-8)


@pytest.mark.parametrize("s", SCHEDULES)
def test_saturated_gate_reproduces_infinite_average(s):
    # once r_ex exceeds every positive lag the gate is inert, bit for bit
    r_big = 50.0
    q = np.array([0.3, 1.9, 7.5])
    sin_f = finite_avg(AvgKind.SIN, q, r_big, s)
    cos_f = finite_avg(AvgKind.COS, q, r_big, s)
    assert np.array_equal(sin_f, infinite_avg(AvgKind.SIN, q, s))
    assert np.array_equal(cos_f, infinite_avg(AvgKind.COS, q, s))


def test_broadcasting_and_scalar_types():
    s = Schedule(1.0, 0.8, 0.3)
    q = np.array([0.5, 1.5, 2.5, 3.5])
    vec = finite_avg(AvgKind.SIN, q, 1.1, s)
    assert isinstance(vec, np.ndarray) and vec.shape == q.shape
    for i, qi in enumerate(q):
        scalar = finite_avg(AvgKind.SIN, float(qi), 1.1, s)
        assert isinstance(scalar, float)
        assert scalar == vec[i]
    vec_inf = infinite_avg(AvgKind.COS, q, s)
    assert vec_inf.shape == q.shape
    assert infinite_avg(AvgKind.COS, 1.5, s) == vec_inf[1]


def test_quadrature_error_carries_its_estimate():
    # a jump that is not on the breakpoint list defeats the error budget, at
    # ten seeded places; numeric_time_average's docstring measures how often
    # such a jump goes unseen instead
    s = Schedule(1.0, 1.0, 0.0)
    for jump in np.random.default_rng(0).uniform(0.05, 0.95, 10).tolist():
        f = lambda t: np.where(t < jump, 0.0, 1.0)
        reference = numeric_time_average(f, s, tol=1e-9, breakpoints=(jump,))
        with pytest.raises(QuadratureError) as exc_info:
            numeric_time_average(f, s, tol=1e-13)
        estimate = exc_info.value.estimate
        assert estimate == pytest.approx(reference, abs=1e-6), jump


@pytest.mark.parametrize("average", [finite_avg, infinite_avg])
def test_averages_refuse_a_kind_that_is_not_an_avgkind(average):
    # the string "sin" used to be read as the cosine average, silently
    s = Schedule(1.3, 0.7, 0.4)
    args = (11.0, 2.5, s) if average is finite_avg else (11.0, s)
    for kind in ("sin", "cos", None):
        with pytest.raises(ValidationError):
            average(kind, *args)
    assert finite_avg(AvgKind.SIN, 11.0, 2.5, s) == pytest.approx(0.0653714048737, rel=1e-10)


@pytest.mark.parametrize("r_ex", [0.0, -1.0, float("nan"), float("inf")])
def test_finite_average_refuses_a_radius_that_is_not_finite_and_positive(r_ex):
    # a nan or infinite radius would otherwise come back as a nan average
    for kind in AvgKind:
        with pytest.raises(ValidationError):
            finite_avg(kind, 2.0, r_ex, Schedule(1.3, 0.7, 0.4))


def test_time_average_quadrature_takes_arrays_within_its_budget():
    # f is called on arrays of lags, and a tolerance that cannot be met
    # stops at the evaluation budget
    s = Schedule(1.0, 1.0, 0.0)
    sizes = []

    def step(t):
        sizes.append(np.size(t))
        return np.where(t < 0.3712345, 0.0, 1.0)

    with pytest.raises(QuadratureError) as alone:
        numeric_time_average(step, s, tol=1e-13)
    assert min(sizes) > 1 and sum(sizes) <= 2**21

    # in a batch among cheap integrals, the step raises what it raises alone,
    # and keeps its own budget: each integral's evaluations stay within 2**21
    q = np.array([2.0, 0.0, 1.5, 3.0])
    counts = np.zeros(q.size, dtype=int)

    def stacked(t, which):
        counts[:] += np.bincount(which, minlength=q.size)
        return np.where(which == 1, np.where(t < 0.3712345, 0.0, 1.0), np.cos(q[which] * t))

    with pytest.raises(QuadratureError) as batched:
        numeric_time_average_batch(stacked, [s] * q.size, [(0.0,)] * q.size, tol=1e-13)
    assert str(batched.value) == str(alone.value)
    assert batched.value.estimate.hex() == alone.value.estimate.hex()
    assert counts.max() <= 2**21 and counts[1] == sum(sizes)

    def wave(t):
        sizes.append(np.size(t))
        return np.cos(2.0 * t)

    sizes.clear()
    # |int_0^1 exp(2it) dt|^2 = 2 (1 - cos 2) / 2^2
    assert numeric_time_average(wave, s) == pytest.approx(0.5 * (1.0 - math.cos(2.0)), abs=1e-13)
    assert min(sizes) > 1 and sum(sizes) < 10_000


@pytest.mark.parametrize("average", [finite_avg, infinite_avg])
@pytest.mark.parametrize("q", [0.0, -1.0, float("nan"), np.array([1.0, 0.0])])
def test_averages_refuse_q_that_is_not_positive_and_finite(average, q):
    s = Schedule(1.3, 0.7, 0.4)
    args = (q, 2.5, s) if average is finite_avg else (q, s)
    with pytest.raises(ValidationError):
        average(AvgKind.COS, *args)


@pytest.mark.parametrize("dt", [1e-200, 1e200])
def test_schedule_refuses_durations_whose_product_leaves_the_float_range(dt):
    # every average is normalized by dt1 * dt2, which is 0 or inf here
    with pytest.raises(ValidationError, match="float range"):
        Schedule(dt, dt, 0.0)


def test_step_coefficients_take_one_body_for_floats_and_arrays():
    # float schedules (series routes) and array schedules (closed-form
    # batches) run one body and give the same bits, field by field, also
    # where a lag lands on zero or on r_ex, or within 1e-13 of them
    rng = np.random.default_rng(5)
    for _ in range(300):
        dt1, dt2 = rng.uniform(0.05, 3.0, size=2)
        r_ex = float(rng.choice([0.0, rng.uniform(0.1, 8.0), dt1 + dt2]))
        t = float(rng.choice([
            rng.uniform(-4.0, 4.0), 0.0, dt1, -dt2, dt1 - dt2, r_ex, r_ex - dt2, r_ex + dt1,
            1e-13, -1e-13, r_ex + 1e-13, -dt2 - 1e-13,
        ]))
        floats = step_coefficients(Schedule(float(dt1), float(dt2), t), r_ex)
        arrays = step_coefficients(Schedule(np.array([dt1]), np.array([dt2]), np.array([t])), r_ex)
        assert isinstance(floats.d0, float)
        for name, value in floats._asdict().items():
            assert np.array(value).tobytes() == np.ravel(getattr(arrays, name)).tobytes(), name


def _four_term_average(kind: AvgKind, q, s: Schedule, r_ex=None):
    # every corner lag's term, closed gates included, added in tau1..tau4 order
    st = step_coefficients(s, 0.0 if r_ex is None else r_ex)
    gates = st.open_gates if r_ex is None else st.radius_gates
    trig = np.sin if kind is AvgKind.SIN else np.cos
    val = sum(g * trig(q * tau) for g, tau in zip(gates, s.taus))
    if r_ex is not None:
        val = val - trig(q * r_ex) * st.dp
    if kind is AvgKind.SIN:
        val = val / q
        if r_ex is not None:
            val = val - np.cos(q * r_ex) * st.dr
        val = val + st.d0
    else:
        val = (val + st.const_pair) / q
        if r_ex is not None:
            val = val + np.sin(q * r_ex) * st.dr
    return val / (q * (s.dt1 * s.dt2))


@pytest.mark.parametrize("kind", list(AvgKind))
def test_averages_skip_closed_gates_bit_for_bit(kind):
    # leaving out the corners whose gate is exactly 0 keeps every bit of the
    # four-term sum, on dead windows and on lags at the band edge too
    rng = np.random.default_rng(12)
    q = np.geomspace(1e-3, 300.0, 97)
    closed = 0
    for _ in range(300):
        dt1, dt2 = (float(v) for v in rng.uniform(0.02, 3.0, size=2))
        r_ex = float(rng.choice([rng.uniform(0.1, 8.0), dt1 + dt2, 30.0]))
        band = BOUNDARY_RTOL * max(dt1, dt2, r_ex, 1.0)
        t = float(rng.choice([
            rng.uniform(-4.0, 4.0), 0.0, dt1, -dt2, dt1 - dt2, r_ex, r_ex - dt2,
            -dt2 - rng.uniform(0.01, 5.0), -dt2 - 1.5 * band, band, -band, dt1 - 1.5 * band,
            r_ex + 1.5 * band, 1.5 * band,
        ]))
        s = Schedule(dt1, dt2, t)
        closed += step_coefficients(s, 0.0).open_gates.count(0.0)
        for got, want in [
            (infinite_avg(kind, q, s), _four_term_average(kind, q, s)),
            (finite_avg(kind, q, r_ex, s), _four_term_average(kind, q, s, r_ex)),
        ]:
            assert got.tobytes() == want.tobytes()
        for v in q[::12].tolist():
            assert np.float64(infinite_avg(kind, v, s)).tobytes() == np.float64(
                _four_term_average(kind, v, s)).tobytes()
            assert np.float64(finite_avg(kind, v, r_ex, s)).tobytes() == np.float64(
                _four_term_average(kind, v, s, r_ex)).tobytes()
    assert closed > 300  # the seeded schedules close many corners


def _validate_stack(seed: int, samples: int = 4):
    """validate's time-average draws at `seed`: per sample, each trig's
    radius-gated integral and its open one, as (trig, q, r_ex, schedule,
    scale, breakpoints); the open ones have r_ex = inf."""
    from brfactor.cli import _draw_pair, _draw_time_averages

    rng = np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        for i in range(samples):
            _draw_pair(rng, i)
    stack = []
    for q, r_ex, s in _draw_time_averages(rng, samples):
        for trig in (np.sin, np.cos):
            stack.append((trig, q, r_ex, s, s.scale(r_ex), (0.0, r_ex)))
            stack.append((trig, q, math.inf, s, s.scale(r_ex), (0.0,)))
    return stack


def _scalar_loop(stack) -> list:
    out = []
    for trig, q, r_ex, s, sc, bps in stack:
        if r_ex < math.inf:
            f = lambda t: trig(q * t) * heaviside(t, sc) * heaviside(r_ex - t, sc)
        else:
            f = lambda t: trig(q * t) * heaviside(t, sc)
        out.append(numeric_time_average(f, s, breakpoints=bps).hex())
    return out


def _batch(stack) -> list:
    trigs = [trig for trig, *_ in stack]

    def f(t, which):
        out = np.empty_like(t)
        for j in np.unique(which):
            _, q, r_ex, _, sc, _ = stack[j]
            mine = which == j
            x = t[mine]
            out[mine] = trigs[j](q * x) * heaviside(x, sc) * heaviside(r_ex - x, sc)
        return out

    values = numeric_time_average_batch(f, [e[3] for e in stack], [e[5] for e in stack])
    return [v.hex() for v in values]


@pytest.mark.parametrize("seed", [0, 7, 20260223])
def test_batch_equals_a_loop_of_scalar_calls_bit_for_bit(seed):
    stack = _validate_stack(seed)
    # breakpoint lists of one, two and three lags in one batch; a breakpoint
    # that is no kink only cuts the panels
    stack[2] = stack[2][:5] + ((0.0, 0.5 * stack[2][2], stack[2][2]),)
    assert _batch(stack) == _scalar_loop(stack)
    assert _batch(stack[3:4]) == _scalar_loop(stack[3:4])


def _lag_density_average(trig, q, r_ex, s):
    """(1/dt1 dt2) times the integral of trig(q t) Theta(t) Theta(r_ex - t)
    over the sampling intervals, at 40 digits: a 1-D integral over the lag t
    against its piecewise-linear density, cut at the corner lags."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        dt1, dt2, offset, q = (mp.mpf(v) for v in (s.dt1, s.dt2, s.t_offset, q))
        lo, hi = max(mp.mpf(0), offset - dt1), min(mp.mpf(r_ex), offset + dt2)
        if hi <= lo:
            return 0.0
        cuts = sorted({lo, hi} | {k for k in (offset + dt2 - dt1, offset) if lo < k < hi})
        density = lambda t: min(dt1, offset + dt2 - t) - max(mp.mpf(0), offset - t)
        f = mp.cos if trig is np.cos else mp.sin
        return mp.quad(lambda t: f(q * t) * density(t), cuts) / (dt1 * dt2)


@pytest.mark.parametrize("seed", [0, 4, 6, 7])
def test_validate_quadrature_is_within_rounding_of_40_digit_references(seed):
    # validate's own pass over both trigs, radius-gated and open; seeds 0
    # and 7 are the ones whose margins test_cli holds, seed 4's gates cut its
    # lag windows, and seed 6 has a window with no positive lag
    stack = _validate_stack(seed, samples=2)
    q, scales, cosines, gates = (np.array(column) for column in zip(
        *((q, sc, trig is np.cos, r_ex) for trig, q, r_ex, _, sc, _ in stack)))
    integrand = _time_average_integrand(q, scales, cosines, gates)
    values = numeric_time_average_batch(integrand, [e[3] for e in stack], [e[5] for e in stack])
    for (trig, q, r_ex, s, _, _), value in zip(stack, values):
        assert abs(value - _lag_density_average(trig, q, r_ex, s)) <= 5e-16


def test_validate_integrand_keeps_the_bits_of_the_gated_product():
    # one band test per node: closed nodes are +0.0, and open and band nodes
    # keep the bits of trig(q t) Theta(t) Theta(gate - t)
    q, scales = np.array([3.7, 11.0, 0.4]), np.array([2.5, 6.0, 1e3])
    cosines, gates = np.array([True, False, True]), np.array([2.0, 5.5, math.inf])
    integrand = _time_average_integrand(q, scales, cosines, gates)
    bands = BOUNDARY_RTOL * scales
    t, which = [], []
    for j in range(q.size):
        edges = [0.0] + ([gates[j]] if gates[j] < math.inf else [])
        for edge in edges:
            for shift in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
                t.append(edge + shift * bands[j])
                which.append(j)
        grid = np.linspace(-1.0, 7.0, 41)
        t += grid.tolist()
        which += [j] * grid.size
    t, which = np.array(t), np.array(which)
    x = q[which] * t
    trig = np.where(cosines[which], np.cos(x), np.sin(x))
    want = trig * heaviside(t, scales[which]) * heaviside(gates[which] - t, scales[which])
    got = integrand(t, which)
    assert (want == 0.5 * trig).any() and (want == 0.0).any()
    assert got.tobytes() == np.where(want == 0.0, 0.0, want).tobytes()


def test_sorted_rows_is_np_unique_of_every_row():
    # repeats, inf padding anywhere, and a row with no finite value
    rng = np.random.default_rng(9)
    rows = np.round(rng.uniform(-2.0, 2.0, (50, 6)), 1)
    rows[rng.random(rows.shape) < 0.3] = np.inf
    rows[7] = np.inf
    unique = [np.unique(row[np.isfinite(row)]) for row in rows]
    got = _sorted_rows(rows)
    assert got.shape == (rows.shape[0], max(u.size for u in unique))
    for row, want in zip(got, unique):
        assert row[:want.size].tobytes() == want.tobytes() and np.isinf(row[want.size:]).all()


@pytest.mark.parametrize("panels", [1, 3, 7, 100, 1001])
def test_panel_sums_keep_their_bits_whatever_shares_the_call(panels):
    # a row's sum does not depend on how many panels are reduced with it
    rng = np.random.default_rng(3)
    lo = rng.uniform(-5.0, 5.0, 1001)
    hi = lo + rng.uniform(1e-3, 2.0, lo.size)
    f = lambda x: np.stack((np.sin(3.0 * x) * np.exp(-0.1 * x * x), x**3))
    alone = np.concatenate([_panel_sums(f, lo[i:i + 1], hi[i:i + 1]) for i in range(panels)], axis=1)
    assert _panel_sums(f, lo[:panels], hi[:panels]).tobytes() == alone.tobytes()

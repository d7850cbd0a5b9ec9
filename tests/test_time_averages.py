"""Analytic double time averages against quadrature and hand formulas."""

import math

import numpy as np
import pytest

from brfactor.model import ValidationError
from brfactor.time_averages import (
    BOUNDARY_RTOL,
    AvgKind,
    QuadratureError,
    Schedule,
    finite_avg,
    heaviside,
    infinite_avg,
    numeric_time_average,
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
    # a jump that is not on the breakpoint list defeats the error budget
    s = Schedule(1.0, 1.0, 0.0)
    jump = 0.3712345
    f = lambda t: np.where(t < jump, 0.0, 1.0)
    reference = numeric_time_average(f, s, tol=1e-9, breakpoints=(jump,))
    with pytest.raises(QuadratureError) as exc_info:
        numeric_time_average(f, s, tol=1e-13)
    estimate = exc_info.value.estimate
    assert estimate == pytest.approx(reference, abs=1e-6)


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

    with pytest.raises(QuadratureError):
        numeric_time_average(step, s, tol=1e-13)
    assert min(sizes) > 1 and sum(sizes) <= 2**21

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

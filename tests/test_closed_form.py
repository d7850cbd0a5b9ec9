"""Closed-form factors, the four-function integral table, and exact zeros."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from brfactor import closed_form
from brfactor.closed_form import (
    _ROUTES,
    CancellationWarning,
    UnsupportedSignatureError,
    coincident_axx,
    commutator_difference,
    factor_closed,
    factor_closed_batch,
    ji4,
)
from brfactor.fourier_bessel import factor_series
from brfactor.model import (
    FIELDS,
    FactorKind,
    Ji4Args,
    Method,
    RegionPair,
    ValidationError,
    reverse,
)
from brfactor.oracle import ji4_numeric
from brfactor.time_averages import Schedule

require_no_cancel = pytest.mark.filterwarnings(
    "error::brfactor.closed_form.CancellationWarning"
)


def test_ji4_zero_band():
    # gamma within 1e-12 of zero, relative to max(alpha, beta, |gamma|,
    # |delta|, 1), counts as zero whatever its sign; a negative gamma
    # outside the band is refused
    for a, b, inside in ((1.0, 2.0, -5e-13), (1e3, 2e3, -5e-10)):
        zero = ji4(Ji4Args(0, 1, 1, 0, 0, a, b, 0.0, 0.0))
        assert ji4(Ji4Args(0, 1, 1, 0, 0, a, b, inside, 0.0)) == zero
        assert ji4(Ji4Args(0, 1, 1, 0, 0, a, b, -inside, 0.0)) == zero
    with pytest.raises(ValidationError):
        ji4(Ji4Args(0, 1, 1, 0, 0, 0.5, 1.0, -2e-12, 0.0))
    # beside a nonzero argument too: the monopole fold takes gamma or delta
    # in the band as 0, not as a window of its width
    rng = random.Random(3)
    for _ in range(200):
        a, b, other = (rng.uniform(0.2, 3.0) for _ in range(3))
        inside = rng.choice((-4e-13, 4e-13)) * max(a, b, other)
        for lane, zero in (((inside, other), (0.0, other)), ((other, inside), (other, 0.0))):
            assert ji4(Ji4Args(0, 1, 1, 0, 0, a, b, *lane)) == ji4(Ji4Args(0, 1, 1, 0, 0, a, b, *zero))


def test_ji4_two_argument_pin():
    got = ji4(Ji4Args(0, 1, 1, 0, 0, 1.0, 2.0, 0.0, 0.0))
    assert got == pytest.approx(math.pi / 24.0, rel=1e-15)


@pytest.mark.parametrize(
    "a,b", [(1.0, 2.0), (0.4, 0.9), (2.5, 2.5), (0.31, 2.97), (1.7, 0.2)]
)
def test_ji4_two_argument_formula_and_symmetry(a, b):
    lo, hi = min(a, b), max(a, b)
    expected = (math.pi / 6.0) * lo / hi**2
    assert ji4(Ji4Args(0, 1, 1, 0, 0, a, b, 0.0, 0.0)) == pytest.approx(
        expected, rel=1e-13
    )
    assert ji4(Ji4Args(0, 1, 1, 0, 0, a, b, 0.0, 0.0)) == pytest.approx(
        ji4(Ji4Args(0, 1, 1, 0, 0, b, a, 0.0, 0.0)), rel=1e-13
    )


_SIG_CASES = (
    (Ji4Args(0, 1, 1, 0, 0, 0.9, 1.4, 0.6, 0.7), -1.0),
    (Ji4Args(0, 1, 1, 0, 2, 0.9, 1.4, 0.6, 0.7), -1.0),
    (Ji4Args(0, 1, 1, -1, 1, 0.9, 1.4, 0.6, 0.7), -1.0),
    (Ji4Args(1, 1, 1, 0, 1, 0.9, 1.4, 0.0, 0.7), 0.0),
)


@require_no_cancel
@pytest.mark.parametrize("args,power", _SIG_CASES)
def test_ji4_length_scaling(args, power):
    # substituting x -> x/s shows the integral scales as s**(n - 1)
    s = 1.7
    base = ji4(args)
    scaled = ji4(
        Ji4Args(
            args.n,
            args.l1,
            args.l2,
            args.l3,
            args.l4,
            s * args.alpha,
            s * args.beta,
            s * args.gamma,
            s * args.delta,
        )
    )
    assert scaled == pytest.approx(base * s**power, rel=1e-12)


def test_ji4_vanishes_outside_support():
    # once one length exceeds the sum of the others the integral is zero
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        assert ji4(Ji4Args(0, 1, 1, 0, 0, 0.5, 0.6, 0.3, 3.0)) == pytest.approx(
            0.0, abs=1e-13
        )


def test_ji4_support_boundary_warns_but_cancels_cleanly():
    # largest length exactly equal to the sum of the rest: a true zero
    # reached through full cancellation, which the evaluator flags
    with pytest.warns(CancellationWarning):
        got = ji4(Ji4Args(0, 1, 1, 0, 2, 1.0, 2.0, 0.0, 1.0))
    assert got == pytest.approx(0.0, abs=1e-12)


@require_no_cancel
def test_ji4_interior_values_do_not_warn():
    for args, _ in _SIG_CASES:
        ji4(args)


@pytest.mark.parametrize(
    "sig",
    [(0, 1, 1, 1, 1), (2, 1, 1, 0, 1), (0, 2, 2, 0, 0), (1, 1, 1, 0, 0), (-1, 1, 1, 0, 0)],
)
def test_ji4_unsupported_signatures_raise(sig):
    with pytest.raises(UnsupportedSignatureError):
        ji4(Ji4Args(*sig, 1.0, 1.5, 0.5, 0.5))


@pytest.mark.parametrize(
    "lengths",
    [(0.0, 1.0, 0.5, 0.5), (1.0, -1.0, 0.5, 0.5), (1.0, 1.0, -0.1, 0.5), (1.0, 1.0, 0.5, -0.2)],
)
def test_ji4_rejects_nonpositive_leading_lengths(lengths):
    with pytest.raises(ValidationError):
        ji4(Ji4Args(0, 1, 1, 0, 0, *lengths))


# every cell of the route table at alpha = 0.9, beta = 1.3: (gamma, delta)
# both positive, gamma zero, delta zero, both zero.  A trailing order > 0
# meeting a zero argument is an exact zero; a refused cell has no formula.
_ROUTE_CELLS = ((0.6, 0.7), (0.0, 0.7), (0.6, 0.0), (0.0, 0.0))
_ROUTE_OUTCOMES = {
    (0, 1, 1, 0, 0): ("value", "value", "value", "value"),
    (0, 1, 1, 0, 2): ("value", "value", "zero", "zero"),
    (0, 1, 1, -1, 1): ("value", "refused", "zero", "zero"),
    (1, 1, 1, 0, 1): ("refused", "value", "refused", "zero"),
}


@require_no_cancel
@pytest.mark.parametrize(
    "sig,gamma,delta,outcome",
    [
        (sig, gamma, delta, outcome)
        for sig, outcomes in _ROUTE_OUTCOMES.items()
        for (gamma, delta), outcome in zip(_ROUTE_CELLS, outcomes)
    ],
)
def test_ji4_route_table_cell_by_cell(sig, gamma, delta, outcome):
    args = Ji4Args(*sig, 0.9, 1.3, gamma, delta)
    if outcome == "refused":
        with pytest.raises(UnsupportedSignatureError):
            ji4(args)
    elif outcome == "zero":
        assert ji4(args) == 0.0
    else:
        reference = ji4_numeric(args)
        assert reference.value != 0.0
        assert ji4(args) == pytest.approx(reference.value, abs=max(reference.error, 1e-9))


def test_ji4_zero_band_is_routed_before_the_sign_check():
    # a lag that rounds to just below zero is inside the zero band: it
    # takes the reduced sum exactly as a lag of 0 would
    at_zero = ji4(Ji4Args(0, 1, 1, 0, 0, 1.0, 1.0, 0.0, 0.5))
    assert ji4(Ji4Args(0, 1, 1, 0, 0, 1.0, 1.0, -1.1e-16, 0.5)) == at_zero
    assert ji4(Ji4Args(1, 1, 1, 0, 1, 1.0, 1.2, -1e-13, 0.7)) == ji4(
        Ji4Args(1, 1, 1, 0, 1, 1.0, 1.2, 0.0, 0.7)
    )


def test_corner_lag_just_below_zero_evaluates():
    # tau1 = 0.7 + 0.1 - 0.8 rounds to -1.1e-16, inside the zero band
    p = RegionPair(1.0, 1.0, 0.5, 0.3, 0.2, dt1=0.8, dt2=0.1, t_offset=0.7)
    assert -1e-15 < Schedule(p.dt1, p.dt2, p.t_offset).taus[0] < 0.0
    for kind in FactorKind:
        res = factor_closed(kind, p)
        assert res.value == pytest.approx(factor_series(kind, p).value, rel=5e-5)


@require_no_cancel
@pytest.mark.parametrize("kind", list(FactorKind))
def test_lag_in_the_time_band_is_routed_as_zero(kind):
    # tau3 = 1e-10 lies in the band of the times (1e-12 * dt1 = 1e-9), where
    # its gate reads Theta(0) = 1/2, but outside the band of the radii
    # (1e-12); it must take the reduced sums, not an 8-term sum that
    # cancels against a gamma of 1e-10
    near = RegionPair(1.0, 1.0, 0.5, 0.3, 0.2, dt1=1000.0, dt2=1.0, t_offset=1e-10)
    at_zero = RegionPair(1.0, 1.0, 0.5, 0.3, 0.2, dt1=1000.0, dt2=1.0, t_offset=0.0)
    assert factor_closed(kind, near).value == pytest.approx(
        factor_closed(kind, at_zero).value, rel=1e-9
    )


# full-precision values of the built-in table computed by this route and
# confirmed against the series routes and the quadrature oracle
_FROZEN = (
    ("axx", (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0), -1.6249999999999998),
    ("axx", (10.0, 10.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0), -0.002850124999999999),
    ("axx", (1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.5), 0.1953124999999998),
    ("axx", (1.0, 1.0, 0.0, math.pi, math.pi, 2.0, 1.0, -0.5), -0.5664062499999999),
    ("axx", (1.0, 1.0, 1.0, math.pi / 6, math.pi / 3, 1.0, 1.0, 0.5), -0.06407492501395097),
    ("axx", (1.0, 1.0, 1.0, 5 * math.pi / 6, math.pi / 3 + math.pi, 1.0, 1.0, -0.5), -0.45304521833147315),
    ("axy", (1.0, 1.0, 1.0, math.pi / 6, math.pi / 3, 1.0, 1.0, 0.5), 0.06636208110132678),
    ("axy", (1.0, 1.0, 1.0, 5 * math.pi / 6, math.pi / 3 + math.pi, 1.0, 1.0, -0.5), 0.0059012176780268094),
    ("bxy", (1.0, 1.0, 1.0, math.pi / 6, math.pi / 3, 1.0, 1.0, 0.5), -0.272958690499441),
    ("bxy", (1.0, 1.0, 1.0, 5 * math.pi / 6, math.pi / 3 + math.pi, 1.0, 1.0, -0.5), 0.16753870360322),
    ("axx", (1.0, 2.0, 1.0, math.pi / 6, math.pi / 3, 1.0, 2.0, 0.5), 0.07453859874180413),
    ("axx", (2.0, 1.0, 1.0, 5 * math.pi / 6, math.pi / 3 + math.pi, 2.0, 1.0, -0.5), -0.08914049693516321),
    ("axy", (1.0, 2.0, 1.0, math.pi / 6, math.pi / 3, 1.0, 2.0, 0.5), 0.0034925212829349074),
    ("axy", (2.0, 1.0, 1.0, 5 * math.pi / 6, math.pi / 3 + math.pi, 2.0, 1.0, -0.5), -0.00038843547743921687),
    ("bxy", (1.0, 2.0, 1.0, math.pi / 6, math.pi / 3, 1.0, 2.0, 0.5), -0.025596484483802154),
    ("bxy", (2.0, 1.0, 1.0, 5 * math.pi / 6, math.pi / 3 + math.pi, 2.0, 1.0, -0.5), 0.004125566575035127),
)


@pytest.mark.filterwarnings("ignore::brfactor.closed_form.CancellationWarning")
@pytest.mark.parametrize("kind,fields,expected", _FROZEN)
def test_factor_closed_regression_pins(kind, fields, expected):
    p = RegionPair(*fields)
    res = factor_closed(FactorKind(kind), p)
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert res.method is Method.CLOSED_FORM
    assert res.converged
    assert res.tail_estimate == 0.0


def test_dead_sampling_window_is_an_exact_zero():
    # second window entirely before the first: every step gate closes
    p = RegionPair(1.0, 0.8, 0.5, 0.3, 0.4, 1.0, 0.8, -5.0)
    for kind in FactorKind:
        res = factor_closed(kind, p)
        assert res.value == 0.0
        assert res.terms_used == 0


def test_causally_disconnected_regions_vanish():
    # separation beyond every light-travel reach of the sampling lags
    p = RegionPair(0.763, 0.597, 2.813, 1.567, 3.528, 0.725, 0.436, 0.988)
    assert p.r > p.r1 + p.r2 + p.t_offset + p.dt2  # beyond the largest lag
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        for kind in FactorKind:
            assert abs(factor_closed(kind, p).value) < 1e-10


@pytest.mark.filterwarnings("ignore::brfactor.closed_form.CancellationWarning")
@pytest.mark.parametrize(
    "R0,dt0",
    [(1.0, 0.5), (1.0, 1.5), (2.0, 1.0), (0.7, 1.0), (1.0, 2.5), (0.5, 3.0)],
)
def test_coincident_formula_matches_general_route(R0, dt0):
    p = RegionPair(R0, R0, 0.0, 0.0, 0.0, dt0, dt0, 0.0)
    assert coincident_axx(R0, dt0) == pytest.approx(
        factor_closed(FactorKind.AXX, p).value, rel=1e-13
    )


def test_coincident_long_average_tail():
    # for dt0 >= 2 R0 only the -1/(R0^4 kappa) term survives
    assert coincident_axx(1.0, 2.0) == -0.5
    assert coincident_axx(0.5, 4.0) == -1.0 / (0.5**4 * 8.0)


@pytest.mark.parametrize(
    "R0,dt0",
    [
        (0.0, 1.0),
        (-1.0, 1.0),
        (1.0, 0.0),
        (1.0, -2.0),
        (math.nan, 1.0),
        (1.0, math.nan),
        (math.inf, 1.0),
        (1.0, math.inf),
    ],
)
def test_coincident_rejects_nonpositive_inputs(R0, dt0):
    with pytest.raises(ValidationError):
        coincident_axx(R0, dt0)


def test_commutator_difference_contract_and_antisymmetry():
    p = RegionPair(1.0, 1.3, 0.9, 0.4, 1.1, 1.0, 0.8, 0.3)
    for kind in FactorKind:
        diff = commutator_difference(kind, p)
        expected = factor_closed(kind, p).value - factor_closed(kind, reverse(p)).value
        assert diff == pytest.approx(expected, rel=1e-13)
        swapped = commutator_difference(kind, reverse(p))
        assert swapped == pytest.approx(-diff, rel=1e-11, abs=1e-14)


@pytest.mark.parametrize(
    "args",
    [
        Ji4Args(0, 1, 1, 0, 0, 1e-310, 1e-310, 1e-310, 1e-310),  # the value overflows
        Ji4Args(0, 1, 1, 0, 0, 1e308, 1e308, 0.0, 0.0),  # the value is subnormal
    ],
)
def test_ji4_beyond_the_float_range_is_refused(args):
    with pytest.raises(ValidationError):
        ji4(args)


@pytest.mark.parametrize("scale", [1e100, 1e-150])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_closed_factor_beyond_the_float_range_is_refused(scale):
    # a nan or an infinity must not come back marked converged
    p = RegionPair(scale, scale, scale, dt1=scale, dt2=scale)
    with pytest.raises(ValidationError):
        factor_closed(FactorKind.AXX, p)


@pytest.mark.parametrize(
    # at (27.8, 4.5e-313) -1/(R0**4 kappa) = -1.03e308 is finite, the whole
    # value -3.10e308 is not; at (1e110, 1.0), (1e100, 1.5e100) and (1e78,
    # 3e78) the value is nonzero but below the normal range
    "R0,dt0", [(1e-300, 1.0), (1e110, 1.0), (27.8, 4.5e-313), (1e100, 1.5e100), (1e78, 3e78)]
)
def test_coincident_beyond_the_float_range_is_refused(R0, dt0):
    with pytest.raises(ValidationError):
        coincident_axx(R0, dt0)


@pytest.mark.parametrize(
    "R0,dt0",
    [
        (1e100, 1.0),
        (3e80, 1e-200),
        (4e102, 1e-10),
        (1e110, 1e-200),  # R0**3 overflows
        (2.4033461324302067e-79, 5.824122509442667e262),  # kappa = inf: the gate is closed
        (3.8028094605875137e-90, 0.2053303216909999),  # R0**4 underflows
        (4.614e70, 1.167e-253),  # kappa is subnormal
        (1.0104e77, 2.798e76),  # 8 R0**4 kappa overflows
        (1e-105, 1e10),  # R0**3 is subnormal
    ],
)
def test_coincident_past_the_fourth_power_overflow(R0, dt0):
    # R0**4, R0**3 or kappa leaves the normal range, but the value has
    # R0**4 kappa = R0**3 dt0 in a denominator and is rounded once: exact
    # rationals give the reference
    lead = Fraction(R0) ** 3 * Fraction(dt0)
    kappa = Fraction(dt0) / Fraction(R0)
    exact = -1 / lead
    if kappa < 2:
        exact -= (4 + kappa) * (2 - kappa) ** 2 / (8 * lead)
    assert coincident_axx(R0, dt0) == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_coincident_keeps_the_gated_term_where_eight_r0_to_the_fourth_overflows():
    # for R0 in about 6.9e76-1.16e77, R0**4 is finite but 8 R0**4 is not;
    # kappa in 1e-300-1e-3 keeps R0**4 kappa normal and 8 R0**4 kappa finite
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(14)
    points = [(1.1413e77, 1.1383e-204)]
    for _ in range(200):
        R0 = math.exp(rng.uniform(math.log(1e76), math.log(1.2e77)))
        points.append((R0, R0 * math.exp(rng.uniform(math.log(1e-300), math.log(1e-3)))))
    with mpmath.workdps(40):
        for R0, dt0 in points:
            kappa = mpmath.mpf(dt0) / mpmath.mpf(R0)
            lead = mpmath.mpf(R0) ** 4 * kappa
            exact = -(1 + (4 + kappa) * (2 - kappa) ** 2 / 8) / lead
            got = coincident_axx(R0, dt0)
            assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0), (R0, dt0)


def test_coincident_long_average_at_extreme_scale():
    # the closed gate is off for kappa = 1e120; its overflowing factor
    # (4 + kappa)(2 - kappa)**2 must not turn the value into nan
    assert coincident_axx(1e-60, 1e60) == pytest.approx(-1e120, rel=1e-15)


def _seeded_points(seed: int, count: int) -> list:
    """Points of the tested box, most with a corner lag on a boundary: in the
    band of the times, in the band of the radii, or at +-1e-13; some at
    r = 0 or with a dead window (t_offset < -dt2)."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        r1, r2, dt1, dt2 = (rng.uniform(0.3, 3.0) for _ in range(4))
        t = rng.choice((
            rng.uniform(-4.0, 4.0), 0.0, dt1, -dt2, dt1 - dt2,  # a lag on zero
            1e-10, dt1 + 5e-10,  # in the band of the times (scale dt1 * 1e-12 or more)
            1e-13, -1e-13, dt1 - dt2 + 1e-13, -dt2 - 1e-13,  # at +-1e-13
            -dt2 - rng.uniform(0.1, 2.0),  # a dead window
        ))
        r = rng.choice((rng.uniform(0.0, 3.0), 0.0, 1e-13, abs(t)))
        points.append((r1, r2, r, rng.uniform(0.0, math.pi), rng.uniform(0.0, 6.3), dt1, dt2, t))
    return points


@pytest.mark.parametrize("kind", list(FactorKind))
def test_scalar_call_is_a_batch_of_one_bit_for_bit(kind):
    points = _seeded_points(23, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        batch = factor_closed_batch(kind, RegionPair(*(np.array(col) for col in zip(*points))))
    for i, fields in enumerate(points):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            single = factor_closed(kind, RegionPair(*fields))
        assert np.float64(single.value).tobytes() == batch.value[i].tobytes(), fields
        assert single.terms_used == batch.terms_used[i]
        warned = any(issubclass(w.category, CancellationWarning) for w in caught)
        assert warned == batch.cancelled[i], fields
    assert batch.terms_used.min() == 0 and batch.cancelled.any()


# (gamma, delta) of each zero-band code: neither zero, gamma zero, delta
# zero, both; the zeros once exact and once 1e-13 off, on either side
_BAND_LANES = (
    ((0.6, 0.7), (1.9, 0.2)),
    ((0.0, 0.7), (1e-13, 1.1), (-1e-13, 0.4)),
    ((0.6, 0.0), (1.4, 1e-13)),
    ((0.0, 0.0), (-1e-13, 1e-13)),
)


def _ji4_lanes(sig, lanes) -> tuple:
    """(values, cancelled) of one `_evaluate` over the lanes (alpha, beta,
    gamma, delta), each at unit scale as `ji4` runs it: divided by the power
    of two that puts its largest argument in [1, 2), its value scaled back."""
    args = np.array(lanes, dtype=float).T
    k = np.frexp(abs(args).max(axis=0))[1] - 1
    unit = np.ldexp(args, -k)
    values, cancelled = closed_form._evaluate(closed_form._cells(closed_form._ROW[sig], unit), unit)
    return np.ldexp(values, (sig[0] - 1) * k), cancelled


@pytest.mark.parametrize("sig", list(_ROUTES))
def test_ji4_is_a_batch_of_one_for_every_route_cell(sig):
    # a batch of all lanes a signature can route, each cell beside the
    # others, gives every lane the value and the flag of its batch of one
    lanes = [
        (a, b, gamma, delta)
        for code, route in enumerate(_ROUTES[sig])
        if not isinstance(route, str)
        for gamma, delta in _BAND_LANES[code]
        for a, b in ((0.9, 1.3), (2.1, 0.4))
    ]
    values, cancelled = _ji4_lanes(sig, lanes)
    for i, lane in enumerate(lanes):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            single = ji4(Ji4Args(*sig, *lane))
        assert np.float64(single).tobytes() == values[i].tobytes(), lane
        assert bool(caught) == cancelled[i]
    for code, route in enumerate(_ROUTES[sig]):
        if isinstance(route, str):
            gamma, delta = _BAND_LANES[code][0]
            with pytest.raises(UnsupportedSignatureError):
                _ji4_lanes(sig, [(0.9, 1.3, gamma, delta)])
            with pytest.raises(UnsupportedSignatureError):
                ji4(Ji4Args(*sig, 0.9, 1.3, gamma, delta))


def test_no_open_lane_runs_no_kernel(monkeypatch):
    # with no lanes every cell counts zero: none may be taken as the one
    # kernel of all lanes, whatever the route table holds first
    monkeypatch.setattr(closed_form, "_CELLS", ("a refusal",) + closed_form._CELLS[1:])
    values, cancelled = closed_form._evaluate(np.zeros(0, dtype=int), np.zeros((4, 0)))
    assert values.shape == cancelled.shape == (0,)


def _spy_kernel_runs(monkeypatch) -> list:
    """The (`_CELLS` index, lane count) of every kernel call from now on."""
    calls = []
    kernel = closed_form._kernel

    def spy(index, lanes):
        calls.append((index, lanes.shape[1]))
        return kernel(index, lanes)

    monkeypatch.setattr(closed_form, "_kernel", spy)
    return calls


def test_ji4_lane_blocks_equal_scalar_calls(monkeypatch):
    # one signature's cells with runs of 2 LANES + 1, LANES + 1, LANES and 3
    # lanes, shuffled: the first spans three blocks, its last of one lane
    size = closed_form.LANES
    rng = np.random.default_rng(5)
    runs = ((2 * size + 1, 1.0, 1.0), (size + 1, 0.0, 0.0), (size, 1.0, 0.0), (3, 0.0, 1.0))
    lanes = np.concatenate([
        rng.uniform(0.1, 3.0, (count, 4)) * (1.0, 1.0, gamma, delta)
        for count, gamma, delta in runs
    ])
    rng.shuffle(lanes)
    calls = _spy_kernel_runs(monkeypatch)
    values, cancelled = _ji4_lanes((0, 1, 1, 0, 0), lanes)
    # every cell of the row runs the fold, on its own lanes: cell 4 * row +
    # zero-band code, the code 1 for gamma zero, 2 for delta zero, 3 both
    assert sorted(calls) == sorted([(0, size), (0, size), (0, 1), (3, size), (3, 1), (2, size), (1, 3)])
    assert {closed_form._CELLS[index] for index, _ in calls} == {closed_form._ji4_1100_fold}
    monkeypatch.undo()
    for lane, value, flag in zip(lanes.tolist(), values.tolist(), cancelled.tolist()):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            single = ji4(Ji4Args(0, 1, 1, 0, 0, *lane))
        assert single.hex() == value.hex(), lane
        assert bool(caught) == flag, lane


def _grid(seed: int) -> RegionPair:
    """A seeded 240-point grid, with zero lags and r = 0 among its points."""
    rng = np.random.default_rng(seed)
    axes = (rng.uniform(0.3, 3.0, 5), [1.1], [0.0, *rng.uniform(0.0, 3.0, 3)], [1.0],
            rng.uniform(0.0, 6.3, 3), [1.0], rng.uniform(0.2, 3.0, 2),
            [0.0, rng.uniform(-2.0, 2.0)])
    return RegionPair(*(g.ravel() for g in np.meshgrid(*axes, indexing="ij")))


@pytest.mark.parametrize("kind", list(FactorKind))
def test_lane_blocks_leave_every_point_as_its_batch_of_one(kind, monkeypatch):
    # the longest kernel run of the grid in three blocks, in one block plus
    # one lane, and in exactly one block: each point as its batch of one
    grid = _grid(3)
    points = list(zip(*(getattr(grid, name).tolist() for name in FIELDS)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        singles = [factor_closed_batch(kind, RegionPair(*fields)) for fields in points]
    assert any(single.cancelled[0] for single in singles) == bool(caught)
    calls = _spy_kernel_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CancellationWarning)
        factor_closed_batch(kind, grid)
    cell, longest = max(calls, key=lambda call: call[1])
    assert longest > 100
    for size in (longest // 3, longest - 1, longest):
        monkeypatch.setattr(closed_form, "LANES", size)
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CancellationWarning)
            batch = factor_closed_batch(kind, grid)
        run = [count for index, count in calls if index == cell]
        assert run == [size] * (longest // size) + [longest % size] * (longest % size > 0)
        for i, (fields, single) in enumerate(zip(points, singles)):
            assert batch.value[i].hex() == single.value[0].hex(), fields
            assert batch.terms_used[i] == single.terms_used[0], fields
            assert batch.cancelled[i] == single.cancelled[0], fields


def test_empty_batch_and_batch_shapes():
    def batch(r1, r2):
        return factor_closed_batch(FactorKind.AXY, RegionPair(r1, r2, 0.5, 0.3, 0.2, 1.0, 1.0, 0.5))

    empty = batch(np.zeros(0), 1.0)
    assert empty.value.shape == empty.terms_used.shape == empty.cancelled.shape == (0,)
    with pytest.raises(ValidationError):  # a float field is checked even with no points
        batch(np.zeros(0), -1.0)
    for r1, r2 in ((np.ones((4, 4)), 1.0), (np.ones((4, 1)), np.ones(3)), (np.ones(4), np.ones(3))):
        with pytest.raises(ValidationError, match="1-D"):
            batch(r1, r2)


def _two_sum_reference(a: float, b: float) -> tuple:
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _tree_total(column: list) -> float:
    """The pairwise TwoSum of a column in floats: terms 2m and 2m + 1 first,
    each level's errors added pairwise to the errors below them."""
    x, err = zip(*(_two_sum_reference(*column[i : i + 2]) for i in range(0, len(column), 2)))
    while len(x) > 1:
        x, e = zip(*(_two_sum_reference(*x[i : i + 2]) for i in range(0, len(x), 2)))
        err = [err[i] + err[i + 1] + e[i // 2] for i in range(0, len(err), 2)]
    return x[0] + err[0]


def test_two_sum_total_is_the_float_tree():
    # rows spanning 40 decades whose float sum cancels, where another tree
    # rounds otherwise; _two_sum_total pairs its rows in the bit-reversed
    # order of their index
    rng = np.random.default_rng(9)
    for count in (2, 4, 8, 16):
        stack = rng.normal(size=(count, 500)) * 10.0 ** rng.integers(-20, 21, (count, 500))
        stack[-1] = -stack[:-1].sum(axis=0)
        bits = count.bit_length() - 1
        reversed_rows = [int(f"{r:0{bits}b}"[::-1], 2) for r in range(count)]
        total = closed_form._two_sum_total(stack[reversed_rows])
        assert [v.hex() for v in total.tolist()] == [_tree_total(r).hex() for r in stack.T.tolist()]


# the monopole row (sig0) folds, with no sign sum
@pytest.mark.parametrize("sig", [
    pytest.param(sig, id=f"sig{i}") for i, sig in enumerate(_ROUTES) if sig != (0, 1, 1, 0, 0)])
def test_sign_sums_keep_their_summation_tree(sig):
    # term n of a permutation sum, n = 4 i + 2 j + k, flips the second
    # argument by (-1)^k and the next ones out of the zero band by (-1)^j
    # and (-1)^i; it is the all-plus term at the flipped arguments.  Each
    # kernel's total sums its terms as the float loop does, bit for bit.
    rng = np.random.default_rng(9)
    for code, kernel in enumerate(_ROUTES[sig]):
        if not callable(kernel):
            continue
        # small gammas and deltas make the sums cancel
        lanes = rng.uniform(0.1, 2.0, (4, 500)) * 10.0 ** rng.integers(-6, 1, (4, 500))
        lanes[:2] = rng.uniform(0.1, 2.0, (2, 500))
        lanes[2] *= code in (0, 2)  # gamma zero for codes 1 and 3
        lanes[3] *= code in (0, 1)  # delta zero for codes 2 and 3
        flipped = [1] + [k for k in (2, 3) if lanes[k].any()]
        terms = []
        for n in range(2 ** len(flipped)):
            args = lanes.copy()
            for bit, k in enumerate(flipped):
                args[k] *= (-1) ** (n >> bit & 1)
            terms.append(kernel(*args)[0].reshape(-1, 500)[0])
        total = closed_form._sign_total(kernel(*lanes)[0])[0]
        rows = np.array(terms).T.tolist()
        assert [v.hex() for v in total.tolist()] == [_tree_total(r).hex() for r in rows], kernel


def _four_term_tree(t0, t1, t2, t3):
    # _tree_total of four columns at once: (t0, t1) and (t2, t3) first
    (s1, e1), (s2, e2) = _two_sum_reference(t0, t1), _two_sum_reference(t2, t3)
    s, e = _two_sum_reference(s1, s2)
    return s + ((e1 + e2) + e)


@pytest.mark.parametrize("name,slot", [("_ji4_1102_quad", 3), ("_ji4_n1_1101_quad", 3)])
def test_four_term_sums_pair_terms_that_differ_in_the_second_sign(name, slot):
    # with the third argument within 1e-12..1e-5 of a support edge, a + b or
    # |a - b|, the four terms cancel to within a few ulps, and one or two of
    # them are tiny: there the pairing (0, 1), (2, 3) rounds otherwise than
    # (0, 2), (1, 3), which random lanes never show
    kernel = getattr(closed_form, name)
    rng = np.random.default_rng(12)
    a, b = rng.uniform(0.1, 2.0, (2, 10000))
    edge = np.concatenate((a[:5000] + b[:5000], abs(a[5000:] - b[5000:])))
    lanes = np.zeros((4, 10000))
    lanes[0], lanes[1] = a, b
    lanes[slot] = edge * (1.0 + rng.choice((-1.0, 1.0), 10000) * 10.0 ** rng.uniform(-12, -5, 10000))
    terms = []
    for n in range(4):  # term n flips the second argument by (-1)^n, the third by (-1)^(n >> 1)
        args = lanes * [[1.0], [(-1.0) ** n], [1.0], [1.0]]
        args[slot] *= (-1) ** (n >> 1)
        terms.append(kernel(*args)[0].reshape(-1, 10000)[0])
    total = closed_form._sign_total(kernel(*lanes)[0])[0]
    assert [v.hex() for v in total.tolist()] == [v.hex() for v in _four_term_tree(*terms).tolist()]
    swapped = _four_term_tree(terms[0], terms[2], terms[1], terms[3])
    # the lanes tell the two pairings apart
    assert np.sum((swapped != total) & np.isfinite(total)) >= 2


@pytest.mark.parametrize("multipoles", [1, 2])
def test_factor_pieces_keep_their_summation_tree(multipoles):
    # a factor's pieces, lane i of multipole k, sum as the float tree of the
    # rows 8 k + i, five lanes and three zero rows per multipole; pieces
    # spanning 40 decades whose float sum cancels tell the trees apart
    rng = np.random.default_rng(11)
    pieces = rng.normal(size=(multipoles, 5, 2000)) * 10.0 ** rng.integers(-20, 21, (multipoles, 5, 2000))
    pieces[-1, -1] = -pieces.sum(axis=(0, 1)) + pieces[-1, -1]
    rows = np.zeros((multipoles, 8, 2000))
    rows[:, :5] = pieces
    total = closed_form._piece_total(pieces)
    columns = rows.reshape(-1, 2000).T.tolist()
    assert [v.hex() for v in total.tolist()] == [_tree_total(c).hex() for c in columns]

"""Acceptance gate: the nine accuracy contracts the package promises.

One test per contract, every one deterministic (fixed seeds, fixed grids),
so `pytest -v tests/test_acceptance.py` prints one pass/fail line per
contract.  Tolerances here are the published bounds; the measured margins
are recorded in the repository notes.
"""

from __future__ import annotations

import decimal
import math
import time

import numpy as np
import pytest

from brfactor import (
    AvgKind,
    FactorKind,
    Ji4Args,
    RegionPair,
    Schedule,
    SeriesConfig,
    QuadConfig,
    coincident_axx,
    commutator_difference,
    factor_closed,
    factor_fourier_numeric,
    factor_series,
    factor_series_general,
    finite_avg,
    infinite_avg,
    ji4,
    ji4_numeric,
    reverse,
    sph_bessel,
)
# the random draws are the CLI's own, so `validate` and these criteria
# sample the same geometries
from brfactor.cli import (
    _JI4_SIGS,
    _draw_ji4,
    _draw_pair,
    _draw_time_averages,
    _time_average_integrand,
)
from brfactor.model import table1_rows
from brfactor.time_averages import numeric_time_average_batch

_CTX4 = decimal.Context(prec=4, rounding=decimal.ROUND_HALF_EVEN)

IGNORE_CANCEL = pytest.mark.filterwarnings(
    "ignore::brfactor.closed_form.CancellationWarning"
)


def _round4(x: float) -> str:
    """Four significant digits, half-even, rendered as d.ddde±k."""
    d = _CTX4.create_decimal(repr(float(x)))
    sign, digits, exp = d.as_tuple()
    e = exp + len(digits) - 1
    digits = (digits + (0, 0, 0))[:4]
    mant = f"{digits[0]}.{digits[1]}{digits[2]}{digits[3]}"
    return f"{'-' if sign else ''}{mant}e{e:+d}"


# the sixteen reference values, pinned here independently of `model`'s table
_EXPECTED = (
    "-1.625e+0",
    "-2.850e-3",
    "1.953e-1",
    "-5.664e-1",
    "-6.407e-2",
    "-4.530e-1",
    "6.636e-2",
    "5.901e-3",
    "-2.730e-1",
    "1.675e-1",
    "7.454e-2",
    "-8.914e-2",
    "3.493e-3",
    "-3.884e-4",
    "-2.560e-2",
    "4.126e-3",
)


def _rows():
    rows = table1_rows()
    assert tuple(r.expected for r in rows) == _EXPECTED
    assert [r.is_reverse_of_previous for r in rows] == [
        False, False, False, True, False, True, False, True,
        False, True, False, True, False, True, False, True,
    ]
    for prev, row in zip(rows, rows[1:]):
        if row.is_reverse_of_previous:
            assert row.params == reverse(prev.params)
    assert rows[0].params == RegionPair(1.0, 1.0)
    assert rows[4].params == RegionPair(
        1.0, 1.0, 1.0, math.pi / 6.0, math.pi / 3.0, 1.0, 1.0, 0.5
    )
    assert rows[10].params == RegionPair(
        1.0, 2.0, 1.0, math.pi / 6.0, math.pi / 3.0, 1.0, 2.0, 0.5
    )
    return rows


@IGNORE_CANCEL
def test_criterion_1_closed_form_table_values():
    rows = _rows()
    start = time.perf_counter()
    computed = [factor_closed(r.kind, r.params).value for r in rows]
    elapsed = time.perf_counter() - start
    for row, value in zip(rows, computed):
        assert _round4(value) == row.expected, (row, value)
    assert elapsed < 1.0


def test_criterion_2_simple_series_table_values():
    rows = _rows()
    start = time.perf_counter()
    deep = SeriesConfig(n_max=2000)
    for row in rows:
        value = factor_series(row.kind, row.params, deep).value
        assert _round4(value) == row.expected, row
    # the displaced-centre rows converge to four digits within 200 nodes
    shallow = SeriesConfig(n_max=200)
    for row in rows[4:]:
        assert row.params.r > 0.0
        value = factor_series(row.kind, row.params, shallow).value
        assert _round4(value) == row.expected, row
    assert time.perf_counter() - start < 10.0


def test_criterion_3_general_series_table_values():
    rows = _rows()
    start = time.perf_counter()
    cfg = SeriesConfig(n_max=2000)
    for row in rows:
        value = factor_series_general(row.kind, row.params, cfg).value
        assert _round4(value) == row.expected, row
    assert time.perf_counter() - start < 30.0


def test_criterion_4_coincident_closed_form():
    assert _round4(coincident_axx(1.0, 1.0)) == "-1.625e+0"
    assert _round4(coincident_axx(10.0, 1.0)) == "-2.850e-3"
    # once the interval outlasts the light-crossing time twice over, only
    # the -1/(R0^4 kappa) term survives, exactly
    for r0, dt0 in ((1.0, 2.0), (1.0, 3.0), (0.5, 1.0), (2.0, 5.0), (1.5, 3.0)):
        kappa = dt0 / r0
        assert kappa >= 2.0
        assert coincident_axx(r0, dt0) == -1.0 / (r0**4 * kappa)


_KINDS = (FactorKind.AXX, FactorKind.AXY, FactorKind.BXY)


@IGNORE_CANCEL
def test_criterion_5_cross_method_random_grid():
    rng = np.random.default_rng(20260501)
    oracle_cfg = QuadConfig(abs_tol=1.0, rel_tol=1.0)  # value check below is the gate
    start = time.perf_counter()
    dev_simple = dev_general = dev_numeric = 0.0
    orderings = set()
    r_values = []
    for i in range(100):
        kind, p, closed = _draw_pair(rng, i)
        orderings.add(tuple(tau > 0.0 for tau in Schedule(p.dt1, p.dt2, p.t_offset).taus))
        r_values.append(p.r)
        floor = max(abs(closed), 1e-6)
        simple = factor_series(kind, p).value
        general = factor_series_general(kind, p).value
        numeric = factor_fourier_numeric(kind, p, oracle_cfg).value
        dev_simple = max(dev_simple, abs(simple - closed) / abs(closed))
        dev_general = max(dev_general, abs(general - closed) / abs(closed))
        dev_numeric = max(dev_numeric, abs(numeric - closed) / floor)
    # every step-ordering class with a live sampling window shows up
    assert len(orderings) == 5, orderings
    assert min(r_values) < 0.1 and max(r_values) > 2.9
    assert dev_simple <= 5e-5, dev_simple
    assert dev_general <= 5e-5, dev_general
    assert dev_numeric <= 1e-3, dev_numeric
    assert time.perf_counter() - start < 120.0


def test_criterion_6_time_average_quadrature():
    rng = np.random.default_rng(20260223)
    # (kind, q, r_ex, schedule, scale); r_ex = inf for the open averages
    stack = [(kind, q, gate, s, s.scale(r_ex)) for q, r_ex, s in _draw_time_averages(rng, 200)
             for gate in (r_ex, math.inf) for kind in (AvgKind.SIN, AvgKind.COS)]
    # trig(q t) Theta(t) Theta(r_ex - t) of each lag's own integral, as validate builds it
    wavenumbers, gates, scales = (np.array([item[i] for item in stack]) for i in (1, 2, 4))
    cosines = np.array([kind is AvgKind.COS for kind, *_ in stack])
    integrand = _time_average_integrand(wavenumbers, scales, cosines, gates)
    numerics = numeric_time_average_batch(
        integrand, [s for *_, s, _ in stack],
        [(0.0, g) if g < math.inf else (0.0,) for _, _, g, _, _ in stack])
    worst = 0.0
    for (kind, q, r_ex, s, _), numeric in zip(stack, numerics):
        exact = finite_avg(kind, q, r_ex, s) if r_ex < math.inf else infinite_avg(kind, q, s)
        worst = max(worst, abs(exact - numeric))
    assert len(numerics) == 800
    assert worst <= 1e-8, worst


@IGNORE_CANCEL
def test_criterion_7_ji4_quadrature_and_exact_values():
    rng = np.random.default_rng(20260617)
    cfg = QuadConfig(abs_tol=1.0, rel_tol=1.0, tail_periods=800)
    counts = dict.fromkeys(_JI4_SIGS, 0)
    worst = 0.0
    for i in range(50):
        args, closed = _draw_ji4(rng, i)
        counts[(args.n, args.l1, args.l2, args.l3, args.l4)] += 1
        numeric = ji4_numeric(args, cfg).value
        worst = max(worst, abs(numeric - closed) / abs(closed))
    assert worst <= 1e-7, worst
    assert all(c >= 10 for c in counts.values()), counts

    # concentric pair: pi/6 * min / max^2, exactly
    for a, b in ((1.0, 2.0), (0.7, 1.9), (1.3, 2.1), (2.5, 0.9)):
        target = (math.pi / 6.0) * min(a, b) / max(a, b) ** 2
        value = ji4(Ji4Args(0, 1, 1, 0, 0, a, b, 0.0, 0.0))
        assert abs(value - target) <= 1e-12 * abs(target), (a, b)

    # a vanishing last argument with positive order kills the integrand
    assert ji4(Ji4Args(0, 1, 1, 0, 2, 1.0, 1.2, 0.8, 0.0)) == 0.0
    assert ji4(Ji4Args(0, 1, 1, -1, 1, 1.0, 1.2, 0.8, 0.0)) == 0.0
    assert ji4(Ji4Args(1, 1, 1, 0, 1, 1.0, 1.2, 0.0, 0.0)) == 0.0


def _scaled(p: RegionPair, lam: float) -> RegionPair:
    return RegionPair(
        r1=lam * p.r1,
        r2=lam * p.r2,
        r=lam * p.r,
        theta=p.theta,
        phi=p.phi,
        dt1=lam * p.dt1,
        dt2=lam * p.dt2,
        t_offset=lam * p.t_offset,
    )


@IGNORE_CANCEL
def test_criterion_8_invariant_properties():
    # dimensional scaling: all lengths by lambda, value by lambda^-4
    rng = np.random.default_rng(20260808)
    accepted = 0
    while accepted < 20:
        p = RegionPair(
            rng.uniform(0.3, 2.5),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.0, 2.5),
            rng.uniform(0.0, math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.3, 2.5),
            rng.uniform(-3.0, 3.0),
        )
        base = {k: factor_closed(k, p).value for k in _KINDS}
        if min(abs(v) for v in base.values()) < 1e-6:
            continue
        accepted += 1
        for lam in (2.0, 0.5):
            q = _scaled(p, lam)
            for k in _KINDS:
                rescaled = factor_closed(k, q).value * lam**4
                assert abs(rescaled - base[k]) <= 1e-10 * abs(base[k]), (k, lam, p)

    # azimuthal structure at fixed polar angle
    geo = dict(r1=1.0, r2=1.3, r=0.9, theta=0.4 * math.pi, dt1=1.0, dt2=0.8,
               t_offset=0.3)
    phis = (0.3, 0.9, 2.1, 4.0, 5.5)
    axy = [factor_closed(FactorKind.AXY, RegionPair(phi=f, **geo)).value for f in phis]
    bxy = [factor_closed(FactorKind.BXY, RegionPair(phi=f, **geo)).value for f in phis]
    k0 = axy[0] / math.sin(2.0 * phis[0])
    for f, value in zip(phis, axy):
        assert abs(value / math.sin(2.0 * f) - k0) <= 1e-12 * abs(k0)
    for value in bxy[1:]:
        assert abs(value - bxy[0]) <= 1e-12 * abs(bxy[0])

    # concentric spheres: the off-diagonal factors vanish identically
    for theta, phi, dt1, dt2, t in (
        (0.7, 1.1, 1.0, 1.0, 0.0),
        (1.2, 4.0, 0.6, 1.7, 0.8),
        (2.3, 2.9, 2.0, 0.4, -1.1),
    ):
        p0 = RegionPair(1.1, 0.8, 0.0, theta, phi, dt1, dt2, t)
        for kind in (FactorKind.AXY, FactorKind.BXY):
            assert abs(factor_closed(kind, p0).value) <= 1e-14
            assert abs(factor_series(kind, p0).value) <= 1e-14

    # order reversal is an involution and flips the commutator bracket
    rng = np.random.default_rng(20260811)
    for _ in range(10):
        p = RegionPair(
            rng.uniform(0.3, 2.5),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.1, 2.5),
            rng.uniform(0.0, math.pi),
            rng.uniform(0.0, 2.0 * math.pi),
            rng.uniform(0.3, 2.5),
            rng.uniform(0.3, 2.5),
            rng.uniform(-3.0, 3.0),
        )
        pp = reverse(reverse(p))
        assert (pp.r1, pp.r2, pp.r, pp.dt1, pp.dt2, pp.t_offset) == (
            p.r1, p.r2, p.r, p.dt1, p.dt2, p.t_offset
        )
        assert abs(pp.theta - p.theta) <= 1e-15
        assert abs(pp.phi - p.phi) <= 1e-12
        for kind in _KINDS:
            fwd = commutator_difference(kind, p)
            rev = commutator_difference(kind, reverse(p))
            assert abs(fwd + rev) <= 1e-12 * max(abs(fwd), 1e-14), (kind, p)

    # half-weight steps at the window corners: the averages stay continuous
    eps = 1e-7
    for dt1, dt2, r_ex in ((1.0, 1.0, 2.5), (0.7, 1.9, 1.2), (2.2, 0.4, 3.0)):
        for t0 in (dt1, -dt2, r_ex - dt2):
            for q in (0.3, 1.0, 4.0, 12.0):
                for kind in (AvgKind.SIN, AvgKind.COS):
                    f = lambda t: finite_avg(kind, q, r_ex, Schedule(dt1, dt2, t))
                    mid = 0.5 * (f(t0 + eps) + f(t0 - eps))
                    assert abs(f(t0) - mid) <= 1e-12, (dt1, dt2, r_ex, t0, q, kind)
                    assert abs(f(t0) - f(t0 + eps)) <= 2e-7
                    assert abs(f(t0) - f(t0 - eps)) <= 2e-7


def test_criterion_9_partial_sum_limits():
    n = np.arange(1, 100001, dtype=float)
    for a, b, r_ex in ((1.0, 2.0, 3.5), (0.7, 1.9, 3.0), (1.3, 2.1, 4.0)):
        q = n * (math.pi / r_ex)
        total = (math.pi / r_ex) * float(np.sum(sph_bessel(1, q * a) * sph_bessel(1, q * b)))
        target = (math.pi / 6.0) * min(a, b) / max(a, b) ** 2
        assert abs(total - target) <= 1e-6, (a, b, r_ex, total - target)

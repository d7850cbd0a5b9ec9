"""The monopole lanes ji4(0;1,1,0,0) against an exact fold of the overlap
volume of two balls, and the paper's permutation sums against the same fold.

ji4(0;1,1,0,0; a, b, c, d) = (1/(16 a^2 b^2 c d)) * integral of s V(a, b, s)
over |c - d| < s < c + d, where V is the overlap volume of balls of radii a
and b at distance s.  V / pi is piecewise polynomial in s with rational
coefficients, so the referee integrates each piece exactly, in rationals,
from its antiderivative, and multiplies by pi at 40 digits.  At c = 0 or
d = 0 the fold is V(a, b, max(c, d)) / (8 a^2 b^2).
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from brfactor import closed_form
from brfactor.closed_form import factor_closed, ji4
from brfactor.model import FactorKind, Ji4Args, RegionPair

mpmath = pytest.importorskip("mpmath")

MONOPOLE = (0, 1, 1, 0, 0)


def _overlap(small, big, s) -> Fraction:
    """V / pi of balls of radii small <= big at distance s >= 0."""
    inner, outer = big - small, big + small
    if s <= inner:
        return Fraction(4, 3) * small**3
    if s >= outer:
        return Fraction(0)
    return (outer - s) ** 2 * (s * s + 2 * outer * s - 3 * inner * inner) / (12 * s)


def _lens_antiderivative(inner, outer, s) -> Fraction:
    # of (S - s)^2 (s^2 + 2 S s - 3 D^2) = 12 s V / pi on the lens
    return (s**5 / 5 - (outer * outer + inner * inner) * s**3
            + outer * (outer * outer + 3 * inner * inner) * s**2 - 3 * outer * outer * inner * inner * s)


def _fold_exact(a, b, c, d) -> Fraction:
    """ji4(0;1,1,0,0; a, b, c, d) / pi, exactly, the arguments being floats."""
    a, b, c, d = map(Fraction, (a, b, c, d))
    small, big = sorted((a, b))
    if c == 0 or d == 0:
        return _overlap(small, big, max(c, d)) / (8 * a * a * b * b)
    inner, outer = big - small, big + small
    lo, hi = abs(c - d), c + d
    total = Fraction(0)
    if lo < inner:  # the nested piece, where s V = (4 pi/3) small^3 s
        top = min(hi, inner)
        total += Fraction(2, 3) * small**3 * (top * top - lo * lo)
    start, stop = max(lo, inner), min(hi, outer)
    if start < stop:  # the lens
        total += (_lens_antiderivative(inner, outer, stop)
                  - _lens_antiderivative(inner, outer, start)) / 12
    return total / (16 * a * a * b * b * c * d)


def fold_reference(a, b, c, d):
    """The monopole lane at 40 digits, an mpmath float."""
    exact = _fold_exact(a, b, c, d)
    with mpmath.workdps(40):
        return mpmath.mpf(exact.numerator) / exact.denominator * mpmath.pi


def paper_sum(a, b, c, d):
    """The monopole lane by the paper's closed form at 60 digits: a sum over
    the sign permutations of b, c and d, four terms where one of c and d is
    0 (j0 is symmetric in its two slots) and two where both are."""
    with mpmath.workdps(60):
        a, b, c, d = (mpmath.mpf(v) for v in (a, b, c, d))
        pi, signs = mpmath.pi, (1, -1)
        if c == 0 and d == 0:
            return pi / (12 * a * b) * sum(
                abs(a + bn) / (a * bn) * (a * a - a * bn + b * b) for bn in (b, -b))
        if c == 0 or d == 0:
            c = c + d
            total = 0
            for i, j in itertools.product(signs, signs):
                bn, cn = i * b, j * c
                s = a + bn + cn
                total += s * abs(s) / (a * bn * cn) * (3 * (a - bn) ** 2 + 2 * (a + bn) * cn - c * c)
            return pi / (192 * a * b) * total
        total = 0
        for i, j, k in itertools.product(signs, signs, signs):
            bn, cn, dn = i * b, j * c, k * d
            s = a + bn + cn + dn
            poly = 4 * a * a + (4 * bn - cn - dn) * (-3 * a + bn + cn + dn)
            total += abs(s) ** 3 / (a * bn * cn * dn) * poly
        return pi / (1920 * a * b) * total


def _lanes(seed: int, count: int) -> list:
    """Seeded lanes: radius ratios log-uniform from 1e-9 to 1, in either
    order; the window's centre in the nested range, on the lens or past
    it, or spread over the box; its half-width from 1e-9 of the radii to
    twice them; c = 0, d = 0 or both in some."""
    rng = random.Random(seed)
    lanes = []
    for _ in range(count):
        big = rng.uniform(0.3, 3.0)
        small = big * 10.0 ** rng.uniform(-9.0, 0.0)
        a, b = (small, big) if rng.random() < 0.5 else (big, small)
        centre = rng.choice((
            rng.uniform(0.0, big - small),  # the balls nest
            big + small * rng.uniform(-1.2, 1.2),  # on the lens
            big + small + small * rng.uniform(0.0, 0.1),  # just past it
            rng.uniform(0.0, 3.0),
        ))
        width = rng.choice((small, big)) * 10.0 ** rng.uniform(-9.0, 0.3)
        c, d = centre, width
        if rng.random() < 0.5:
            c, d = d, c
        case = rng.random()
        if case < 0.1:
            c = 0.0
        elif case < 0.2:
            d = 0.0
        elif case < 0.25:
            c = d = 0.0
        lanes.append((a, b, c, d))
    return lanes


def _banded(a, b, c, d) -> tuple:
    """The lane as ji4 takes it: c or d within 1e-12 of the largest
    argument (the zero band) counts as 0."""
    band = 1e-12 * max(a, b, c, d)
    return a, b, *(0.0 if v <= band else v for v in (c, d))


def _relative_error(value: float, reference) -> float:
    return float(abs(mpmath.mpf(value) - reference) / abs(reference))


@pytest.mark.parametrize("seed", [0, 1])
def test_monopole_lanes_match_the_exact_fold(seed):
    # every lane within 1e-14 of the exact fold; a lane whose window lies
    # past the lens, |c - d| >= a + b, is exactly 0.0
    zeros = 0
    for a, b, c, d in (_banded(*lane) for lane in _lanes(seed, 600)):
        got = ji4(Ji4Args(*MONOPOLE, a, b, c, d))
        reference = fold_reference(a, b, c, d)
        if reference == 0:
            assert got == 0.0 and math.copysign(1.0, got) == 1.0, (a, b, c, d)
            assert abs(c - d) >= a + b or c == 0 or d == 0
            zeros += 1
        else:
            assert got > 0.0 and _relative_error(got, reference) < 1e-14, (a, b, c, d)
    assert zeros > 20


def test_monopole_lanes_in_the_box_match_the_exact_fold():
    # every argument uniform in (0.2, 3), as the closed form's tested box
    rng = np.random.default_rng(13)
    for a, b, c, d in rng.uniform(0.2, 3.0, (2000, 4)).tolist():
        got = ji4(Ji4Args(*MONOPOLE, a, b, c, d))
        reference = fold_reference(a, b, c, d)
        if reference == 0:
            assert got == 0.0, (a, b, c, d)
        else:
            assert _relative_error(got, reference) < 1e-14, (a, b, c, d)


@pytest.mark.parametrize("lane", [
    (1.0, 1.0, 999.9999999999, 1e-3),  # a permutation sum of 4.09e-4
    (1.0, 2.0, 0.5, 3.5),  # |c - d| = a + b exactly
    (0.3, 0.4, 5.0, 0.0),
    (1e-9, 1.0, 3.0, 2.0 - 2e-9),
])
def test_lanes_past_the_lens_are_exact_zeros(lane):
    assert ji4(Ji4Args(*MONOPOLE, *lane)) == 0.0


def test_the_fold_takes_the_identity_limits():
    # d = 0: V(a, b, c) / (8 a^2 b^2); c = d = 0: (pi/6) R_< / R_>^2; a
    # lane on the kink |a - b| or a + b takes the value either side agrees on
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        kink = rng.choice((abs(a - b), a + b, rng.uniform(0.0, 6.0)))
        for c, d in ((kink, 0.0), (0.0, kink), (0.0, 0.0)):
            got = ji4(Ji4Args(*MONOPOLE, a, b, c, d))
            reference = fold_reference(a, b, c, d)
            assert got == 0.0 if reference == 0 else _relative_error(got, reference) < 1e-15
        small, big = min(a, b), max(a, b)
        both_zero = ji4(Ji4Args(*MONOPOLE, a, b, 0.0, 0.0))
        assert both_zero == pytest.approx(math.pi / 6.0 * small / big**2, rel=1e-15)


def test_the_fold_keeps_the_float_range_at_unit_scale():
    # lanes of a factor at unit scale reach radii of 2**-340 (UNIT_FLOOR):
    # a^2 b^2 c d would underflow there, the fold's ratios do not
    tiny = 2.0**-340
    for lane in ((tiny, tiny, 1.0, 0.0), (tiny, tiny, 0.0, 0.0), (tiny, 1.0, 1.0, tiny),
                 (1.0, tiny, 1.0 - tiny, 0.5 * tiny), (tiny, 1.5 * tiny, 1e-12, 2e-12)):
        unit = np.array(lane)[:, None]
        value, cancelled = closed_form._evaluate(closed_form._cells(0, unit), unit)
        reference = fold_reference(*lane)
        assert not cancelled[0]
        if reference == 0:
            assert value[0] == 0.0, lane
        else:
            assert _relative_error(value[0], reference) < 1e-14, lane


@pytest.mark.parametrize("seed", [2, 3])
def test_the_paper_sums_equal_the_exact_fold(seed):
    # the closed form of the paper, summed at 60 digits, is the fold: the
    # sums cancel by up to some 40 digits at ratios of 1e-9
    for a, b, c, d in (_banded(*lane) for lane in _lanes(seed, 150)):
        exact = fold_reference(a, b, c, d)
        total = paper_sum(a, b, c, d)
        scale = math.pi / 6.0 * min(a, b) / max(a, b) ** 2  # the largest a lane can be
        assert abs(total - exact) <= 1e-20 * max(abs(exact), scale), (a, b, c, d)


def _axx_concentric(r1, r2, dt1, dt2, t) -> Fraction:
    """A_xx at r = 0, exactly: only the monopole lanes are open there, each
    V(lag)/(8 r1^2 r2^2), and A_xx = (3/2) (sum of gate * V/pi) / (r1^3
    r2^3 dt1 dt2).  The gates are those of the closed form: -D0/2 at lag 0
    and sign_i Theta(tau_i) tau_i at the corner lag tau_i, where a lag
    within 1e-12 of the largest length or time counts as 0, Theta(0) = 1/2."""
    r1, r2, dt1, dt2, t = map(Fraction, (r1, r2, dt1, dt2, t))
    small, big = sorted((r1, r2))
    band = Fraction(1e-12) * max(dt1, dt2, abs(t), big)
    taus = (t + dt2 - dt1, t + dt2, t, t - dt1)
    steps = [Fraction(1, 2) if abs(tau) <= band else Fraction(tau > 0) for tau in taus]
    d0 = (1 - steps[3]) * steps[1] * (min(dt1, taus[1]) - max(taus[2], 0))
    total = -d0 / 2 * _overlap(small, big, 0)
    for sign, tau, step in zip((1, -1, 1, -1), taus, steps):
        total += sign * step * tau * _overlap(small, big, tau if abs(tau) > band else 0)
    return Fraction(3, 2) * total / (r1**3 * r2**3 * dt1 * dt2)


@pytest.mark.parametrize("point", [
    RegionPair(1.0, 1.0),  # the table's -13/8
    RegionPair(1e-5, 1.0, t_offset=0.5),  # probe 2: 3/2; the sums gave 1.0823
    RegionPair(1.0, 1.0, 0.0, 0.0, 0.0, 1000.0, 1.0, 1000.0 - 1e-10),  # probe 3.3; 6.249851e-4
    RegionPair(1.0, 1e-3),  # -1.999625; -1.999625052
    RegionPair(1.0, 1e-7),  # -1.9999999625; -186264.5
    RegionPair(1e-100, 1e-100),  # -1e300, where a^2 b^2 underflows
])
def test_concentric_axx_probes_take_their_exact_values(point):
    # at probe 3.3 the lag T - dt1 = -1e-10 lies in the band (1e-9), so its
    # gate reads 1/2, which moves the value by 2.4e-10 from the strict
    # steps' 6.2499999995e-4
    exact = _axx_concentric(point.r1, point.r2, point.dt1, point.dt2, point.t_offset)
    assert factor_closed(FactorKind.AXX, point).value == pytest.approx(float(exact), rel=1e-14, abs=0.0)

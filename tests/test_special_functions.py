"""Spherical Bessel values, root tables, and the angular weight maps."""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from brfactor.fourier_bessel import _root_nodes
from brfactor.model import FactorKind
from brfactor.special_functions import (
    SMALL_X,
    _POLYS,
    _refine_roots,
    angular_weight,
    bessel_roots,
    fb_weight,
    sph_bessel,
    sph_bessels,
)

GRID = np.concatenate(
    [
        np.geomspace(1e-9, 0.99, 40),
        np.linspace(1.0, 60.0, 120),
        np.geomspace(60.0, 5e3, 20),
    ]
)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_matches_reference_bessel(l):
    ours = sph_bessel(l, GRID)
    ref = spherical_jn(l, GRID)
    assert np.max(np.abs(ours - ref)) < 1e-15


@pytest.mark.parametrize("l,expected", [(0, 1.0), (1, 0.0), (2, 0.0)])
def test_values_at_zero(l, expected):
    assert sph_bessel(l, 0.0) == expected


def test_j_minus_one_is_cos_over_x():
    x = np.linspace(0.1, 30.0, 50)
    assert np.max(np.abs(sph_bessel(-1, x) - np.cos(x) / x)) < 1e-15


def test_j_minus_one_rejects_zero():
    with pytest.raises(ValueError):
        sph_bessel(-1, 0.0)
    with pytest.raises(ValueError):
        sph_bessel(-1, np.array([0.5, 0.0]))


def test_unsupported_order_raises():
    with pytest.raises(ValueError):
        sph_bessel(3, 1.0)


@pytest.mark.parametrize("l", [1, 2])
def test_branch_seam_is_continuous(l):
    # the polynomial and trigonometric branches must agree across SMALL_X;
    # just above the seam the trigonometric form already cancels ~2 digits,
    # so a couple of ulp of the pre-cancellation magnitude is the limit
    band = np.linspace(SMALL_X * (1.0 - 1e-3), SMALL_X * (1.0 + 1e-3), 401)
    assert np.max(np.abs(sph_bessel(l, band) - spherical_jn(l, band))) < 2e-15


def test_scalar_in_scalar_out():
    v = sph_bessel(1, 0.5)
    assert isinstance(v, float)
    arr = sph_bessel(1, np.array([0.5, 1.5]))
    assert arr.shape == (2,)


@pytest.mark.parametrize("l", [0, 1, 2])
def test_roots_are_roots_and_ascend(l):
    roots = bessel_roots(l, 60)
    assert roots.shape == (60,) and not roots.flags.writeable
    assert np.all(np.diff(roots) > 0)
    residual = np.abs(sph_bessel(l, roots))
    assert np.max(residual) < 1e-13


def test_l0_roots_are_multiples_of_pi():
    roots = bessel_roots(0, 10)
    assert roots.tolist() == [n * math.pi for n in range(1, 11)]


@pytest.mark.parametrize("l", [0, 1])
def test_roots_of_consecutive_orders_interlace(l):
    lower = bessel_roots(l, 21)
    upper = bessel_roots(l + 1, 20)
    for n, u in enumerate(upper):
        assert lower[n] < u < lower[n + 1]


def test_known_first_roots():
    assert bessel_roots(1, 1)[0] == pytest.approx(4.493409457909064, rel=1e-13)
    assert bessel_roots(2, 1)[0] == pytest.approx(5.763459196894550, rel=1e-13)


@pytest.mark.parametrize("l", [1, 2])
def test_root_tables_hold_at_depth(l):
    # the whole table the general-roots series runs over by default
    roots = bessel_roots(l, 2000)
    lower = bessel_roots(l - 1, 2001)
    assert np.all((lower[:-1] < roots) & (roots < lower[1:]))
    # near a root |j_l'| ~ 1/x, so a root within an ulp leaves a residual
    # of about spacing(x)/x
    assert np.all(np.abs(sph_bessel(l, roots)) * roots <= 2.0 * np.spacing(roots))


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("n", [1, 1000, 2000])
def test_roots_match_high_precision_zeros(l, n):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        # j_l is a multiple of the cylinder function J_{l + 1/2}
        ref = float(mpmath.besseljzero(mpmath.mpf(l) + mpmath.mpf(1) / 2, n))
    got = bessel_roots(l, 2000)[n - 1]
    assert abs(got - ref) <= 2.0 * np.spacing(ref)


@pytest.mark.parametrize(
    "l,count", [(1, 3.0), (1, 2.5), (1, True), (1, 0), (1.0, 3), (True, 3), (3, 5)]
)
def test_root_table_arguments_must_be_integers(l, count):
    with pytest.raises(ValueError):
        bessel_roots(l, count)


def test_root_tables_are_cached():
    a = bessel_roots(2, 30)
    b = bessel_roots(2, 30)
    assert a is b


@pytest.mark.parametrize("l", [0, 1, 2])
def test_fb_weight_matches_norm_integral(l):
    # w_n = integral_0^R j_l(q_n s)^2 s^2 ds at q_n = root/R, both from
    # fb_weight and as the general series scales its cached r_ex = 1 weights
    r_ex = 1.7
    roots, unit_weights = _root_nodes(l, 3)
    s = np.linspace(0.0, r_ex, 20001)
    for root, unit in zip(roots, unit_weights):
        f = sph_bessel(l, root / r_ex * s) ** 2 * s**2
        w_quad = np.trapezoid(f, s)
        assert r_ex**3 * fb_weight(l, root) == pytest.approx(w_quad, rel=1e-6)
        assert r_ex**3 * unit == pytest.approx(w_quad, rel=1e-6)


def test_fb_weight_l0_closed_form():
    r_ex = 2.0
    for n in (1, 2, 5):
        got = r_ex**3 * fb_weight(0, n * math.pi)
        assert got == pytest.approx(r_ex**3 / (2.0 * n**2 * math.pi**2), rel=1e-14)


def test_angular_weight_keys_per_kind():
    assert set(angular_weight(FactorKind.AXX, 0.3, 0.7)) == {0, 2}
    assert set(angular_weight(FactorKind.AXY, 0.3, 0.7)) == {2}
    assert set(angular_weight(FactorKind.BXY, 0.3, 0.7)) == {1}


def test_angular_weight_special_angles():
    # along the z axis the transverse quadrupole terms vanish
    w = angular_weight(FactorKind.AXX, 0.0, 0.9)
    assert w[0] == pytest.approx(8.0 * math.pi / 3.0, rel=1e-15)
    assert w[2] == pytest.approx(-4.0 * math.pi / 3.0, rel=1e-15)
    assert angular_weight(FactorKind.AXY, 0.0, 0.9)[2] == pytest.approx(0.0, abs=1e-15)
    assert angular_weight(FactorKind.BXY, 0.0, 0.9)[1] == pytest.approx(
        -4.0 * math.pi, rel=1e-15
    )
    # in the equatorial plane the dipole weight vanishes
    assert angular_weight(FactorKind.BXY, math.pi / 2.0, 0.3)[1] == pytest.approx(
        0.0, abs=1e-15
    )
    # at phi = pi/4 in the plane, sin(2 phi) = 1
    w = angular_weight(FactorKind.AXY, math.pi / 2.0, math.pi / 4.0)
    assert w[2] == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_angular_weight_phi_symmetries():
    theta = 0.8
    for phi in (0.2, 1.4, 2.9):
        wp = angular_weight(FactorKind.AXY, theta, phi)[2]
        wm = angular_weight(FactorKind.AXY, theta, -phi)[2]
        assert wm == pytest.approx(-wp, rel=1e-14)
        # A_xx depends on phi only through cos(2 phi)
        a = angular_weight(FactorKind.AXX, theta, phi)[2]
        b = angular_weight(FactorKind.AXX, theta, phi + math.pi)[2]
        assert b == pytest.approx(a, rel=1e-14)


def test_root_refinement_bisects_where_newton_leaves_the_bracket():
    # the midpoint 5.94 sits near an extremum of j1, so the first Newton
    # step lands far outside (4.2, 7.68); bisection must keep the lane in it
    lo, hi = np.array([4.2]), np.array([7.68])
    mid = 0.5 * (lo[0] + hi[0])
    newton = mid - sph_bessel(1, mid) / (sph_bessel(0, mid) - 2.0 / mid * sph_bessel(1, mid))
    assert not lo[0] < newton < hi[0]
    root = _refine_roots(1, lo, hi)
    assert root[0] == pytest.approx(bessel_roots(1, 1)[0], rel=1e-14)


def test_angular_weight_refuses_a_kind_that_is_not_a_factor_kind():
    with pytest.raises(ValueError):
        angular_weight("axx", 0.3, 0.7)


def _bessel_arguments() -> np.ndarray:
    # both signs, 0 and -0, 1.0 and its float neighbours (the branch seam),
    # tiny and huge magnitudes
    seam = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    x = np.concatenate([
        np.linspace(-40.0, 40.0, 161), seam, np.negative(seam), [0.0, -0.0, 1e-300, 1e300, -1e300],
        np.geomspace(1e-8, 0.999, 40), np.random.default_rng(3).uniform(-60.0, 60.0, 200),
    ])
    return x


def _one_order(l: int, x: np.ndarray) -> np.ndarray:
    # each order by its own formula and its own sin and cos of x
    if l == -1:
        return np.cos(x) / x
    if l == 0:
        return np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))
    small = np.abs(x) < SMALL_X
    xs = np.where(small, 1.0, x)
    if l == 1:
        out = np.sin(xs) / xs**2 - np.cos(xs) / xs
    else:
        out = (3.0 / xs**3 - 1.0 / xs) * np.sin(xs) - 3.0 * np.cos(xs) / xs**2
    xm = x[small]
    poly = np.full_like(xm, _POLYS[l][-1])
    for c in _POLYS[l][-2::-1]:
        poly = poly * (xm * xm) + c
    out[small] = xm**l * poly
    return out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ls", [(0,), (1,), (2,), (0, 2), (1, 2), (2, 0, 1), (-1, 0, 1, 2)])
def test_bessel_orders_from_one_pass_equal_each_order_bit_for_bit(ls):
    x = _bessel_arguments()
    if -1 in ls:
        x = np.abs(x[x != 0.0])
    got = sph_bessels(ls, x)
    assert len(got) == len(ls)
    for l, values in zip(ls, got):
        assert values.tobytes() == sph_bessel(l, x).tobytes(), l
        assert values.tobytes() == _one_order(l, x).tobytes(), l
    # a row of a stacked argument array gets the bits it gets alone
    stacked = np.stack([x, x[::-1], 2.5 * x])
    for row, ys in zip(stacked, zip(*sph_bessels(ls, stacked))):
        for l, y, alone in zip(ls, ys, sph_bessels(ls, row)):
            assert y.tobytes() == alone.tobytes(), l
    # the caller's own sin and cos give the same bits
    trig = (np.sin(stacked), np.cos(stacked))
    for a, b in zip(sph_bessels(ls, stacked, trig), sph_bessels(ls, stacked)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ls", [(-1,), (0,), (1,), (2,), (0, 2), (-1, 0, 1, 2)])
def test_bessel_selects_are_skipped_with_the_same_bits(ls):
    # an array with no |x| < SMALL_X and no zero skips the selects that
    # guard such entries; each entry keeps the bits it gets beside them
    x = _bessel_arguments()
    x = x[np.abs(x) >= SMALL_X]
    tails = [[0.5, -1e-3], [1e-300]] + ([] if -1 in ls else [[0.0], [-0.0, 0.25]])
    for tail in tails:
        mixed = sph_bessels(ls, np.concatenate((x, tail)))
        for l, alone, beside in zip(ls, sph_bessels(ls, x), mixed):
            assert alone.tobytes() == beside[: x.size].tobytes(), (l, tail)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bessel_orders_take_floats_to_floats():
    for v in [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), -2.5, 1e300, 7.0]:
        got = sph_bessels((0, 1, 2), v)
        assert all(type(y) is float for y in got)
        for l, y in zip((0, 1, 2), got):
            assert math.copysign(1.0, y) == math.copysign(1.0, sph_bessel(l, v))
            assert y == sph_bessel(l, v) or (math.isnan(y) and math.isnan(sph_bessel(l, v)))
            # and equal to the entry of a one-element array
            assert np.float64(y).tobytes() == sph_bessel(l, np.array([v])).tobytes()


def test_bessel_orders_refuse_what_sph_bessel_refuses():
    with pytest.raises(ValueError, match="unsupported order"):
        sph_bessels((0, 3), 1.0)
    with pytest.raises(ValueError, match="singular"):
        sph_bessels((-1, 1), np.array([0.5, 0.0]))

"""Spherical Bessel values, root tables, and the angular weight maps."""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from brfactor.fourier_bessel import _root_nodes
from brfactor.model import FactorKind
from brfactor.special_functions import (
    SMALL_X,
    angular_weight,
    bessel_roots,
    fb_weight,
    sph_bessel,
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
    "l,count", [(1, 3.0), (1, 2.5), (1, True), (1, 0), (1.0, 3), (True, 3)]
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
        assert fb_weight(l, root, r_ex) == pytest.approx(w_quad, rel=1e-6)
        assert r_ex**3 * unit == pytest.approx(w_quad, rel=1e-6)


def test_fb_weight_l0_closed_form():
    r_ex = 2.0
    for n in (1, 2, 5):
        got = fb_weight(0, n * math.pi, r_ex)
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

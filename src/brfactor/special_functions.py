"""Spherical Bessel functions j_l for l in {-1, 0, 1, 2}, their positive
roots, Fourier-Bessel weights, and the real angular weights that contract
the multipole sums of the three factor kinds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import FactorKind, check_integer

# Below this argument the trigonometric closed forms of j1, j2 lose digits
# to cancellation; switch to the Maclaurin polynomials there.
SMALL_X = 1.0


def _series_coefficients(l: int) -> tuple:
    """First eight coefficients of j_l(x)/x^l as a polynomial in x^2,
    (-1)^k / (2^k k! (2k + 2l + 1)!!); the integer denominators are exact."""
    return tuple(
        (-1) ** k / (2**k * math.factorial(k) * math.prod(range(1, 2 * k + 2 * l + 2, 2)))
        for k in range(8)
    )


_POLYS = {1: _series_coefficients(1), 2: _series_coefficients(2)}


def _horner(coeffs: tuple, u: np.ndarray) -> np.ndarray:
    acc = coeffs[-1] * u + coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= u
        acc += c
    return acc


_ORDERS = (-1, 0, 1, 2)


def sph_bessels(ls, x, trig=None) -> tuple:
    """(j_l(x) for l in ls), each l in {-1, 0, 1, 2}, from one sin and one
    cos of x; `trig` is (sin x, cos x) when the caller holds them already.

    j_0 is sin(x)/x with j_0(0) = 1.  j_1 and j_2 take the trigonometric
    closed form at |x| >= SMALL_X and x**l times the Maclaurin polynomial in
    x**2 below it; every division sees 1.0 in place of a small x, so finite
    x never divides by zero.  j_{-1} is cos(x)/x and requires x > 0; the
    limits j_l(0) = delta_{0l} hold for l >= 0.  Elementwise, so a row of a
    stacked x gets the bits it gets alone; where x holds no |x| < SMALL_X,
    or no zero, the selects that guard those entries are skipped, with the
    same bits.  A float in gives floats out; arrays pass through.
    """
    for l in ls:
        if l not in _ORDERS:
            raise ValueError(f"unsupported order l={l}, expected -1, 0, 1 or 2")
    x = np.asarray(x, dtype=float)
    if -1 in ls and (x == 0.0).any():
        raise ValueError("j_{-1} is singular at x = 0")
    if trig is None and len(ls) > 1:
        trig = (np.sin(x), np.cos(x))

    # A lone order takes its sin and cos where it uses them, so that each
    # dies with its use: on long arrays a lower peak of live arrays spares
    # the allocator fresh pages.  Arithmetic on this call's own temporaries
    # is done in place for the same reason; it is the same arithmetic.
    def sin_x():
        return np.sin(x) if trig is None else trig[0]

    def cos_x():
        return np.cos(x) if trig is None else trig[1]

    out = {}
    if -1 in ls:
        out[-1] = cos_x() / x
    if 0 in ls:
        zero = x == 0.0
        if zero.any():
            out[0] = np.where(zero, 1.0, sin_x() / np.where(zero, 1.0, x))
        else:
            out[0] = sin_x() / x
    if 1 in ls or 2 in ls:
        small = np.abs(x) < SMALL_X
        xm = x[small]
        xs = np.where(small, 1.0, x) if xm.size else x
        if 1 in ls:
            j = out[1] = np.asarray(sin_x() / xs**2)
            j -= cos_x() / xs
        if 2 in ls:
            j = out[2] = np.asarray(3.0 / xs**3)
            j -= 1.0 / xs
            j *= sin_x()
            j -= 3.0 * cos_x() / xs**2
        if xm.size:
            u = xm * xm
            for l in (1, 2):
                if l in ls:
                    out[l][small] = xm**l * _horner(_POLYS[l], u)
    if x.ndim == 0:
        return tuple(float(out[l]) for l in ls)
    return tuple(out[l] for l in ls)


def sph_bessel(l: int, x) -> float:
    """j_l(x) for l in {-1, 0, 1, 2}: the one-order call of `sph_bessels`.

    Scalars in, scalar out; arrays pass through.
    """
    return sph_bessels((l,), x)[0]


def _refine_roots(l: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Newton iteration on j_l, one lane per bracket (lo[k], hi[k]).

    Every lane starts at its midpoint; a Newton step that leaves the bracket
    is replaced by bisection on the sign of j_l against its sign at the
    lower end.  A lane stops once its step is at most 1e-15 of x.
    """
    lo, hi = lo.copy(), hi.copy()
    x = 0.5 * (lo + hi)
    lane = np.arange(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if not len(lane):
                break
            xa, a, b = x[lane], lo[lane], hi[lane]
            below, f = sph_bessels((l - 1, l), xa)
            # j_l'(x) = j_{l-1}(x) - (l+1)/x * j_l(x)
            df = below - (l + 1) / xa * f
            x_new = xa - np.where(df != 0.0, f / df, 0.0)
            out = np.flatnonzero(~((a < x_new) & (x_new < b)))
            if len(out):
                same = (f[out] < 0.0) == (sph_bessel(l, a[out]) < 0.0)
                lo[lane[out[same]]] = xa[out[same]]
                hi[lane[out[~same]]] = xa[out[~same]]
                x_new[out] = 0.5 * (lo[lane[out]] + hi[lane[out]])
            x[lane] = x_new
            lane = lane[np.abs(x_new - xa) > 1e-15 * xa]
    return x


@functools.lru_cache(maxsize=None)
def _roots(l: int, count: int) -> np.ndarray:
    if l == 0:
        roots = np.arange(1, count + 1) * math.pi
    else:
        lower = _roots(l - 1, count + 1)
        # Roots of consecutive orders interlace: exactly one root of j_l lies
        # between consecutive roots of j_{l-1}.
        eps = 1e-9
        roots = _refine_roots(l, lower[:-1] + eps, lower[1:] - eps)
    roots.flags.writeable = False  # shared by every caller through the cache
    return roots


def bessel_roots(l: int, count: int) -> np.ndarray:
    """First `count` positive roots of j_l, l in {0, 1, 2}, to 1e-14 relative.

    Ascending, in a read-only array that is built once per (l, count).
    """
    check_integer("l", l)
    if l not in (0, 1, 2):
        raise ValueError(f"root tables exist for l in {{0, 1, 2}}, got {l}")
    check_integer("count", count)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return _roots(l, count)


def fb_weight(l: int, root):
    """Fourier-Bessel weight w_n of a root of j_l at expansion radius 1.

    At a root of j_l the derivative reduces to j_{l-1}, so
    w = j_{l-1}(root)**2 / 2; for l = 0 and root = n*pi this is
    1 / (2 n**2 pi**2).  The weight at radius r_ex, q = root/r_ex, is
    r_ex**3 times it.  Elementwise over an array of roots; a float in gives
    a float out.
    """
    w = 0.5 * sph_bessel(l - 1, root) ** 2
    return float(w) if np.ndim(root) == 0 else w


def angular_weight(kind: FactorKind, theta: float, phi: float) -> dict:
    """Per-l real angular coefficients W_l(theta, phi) for the given kind.

    These are the pre-reduced real combinations of the multipole constants
    with the spherical harmonics of the displacement direction: the m = +-2
    pairs collapse to cos(2*phi) (A_xx) and sin(2*phi) (A_xy) terms, the
    dipole to cos(theta).  All three routes and the numeric oracle contract
    their radial sums against these same weights.  Elementwise over arrays
    of angles; `np.float_power` rounds squares as Python's `**` does.
    """
    if kind is FactorKind.AXX:
        st2 = np.float_power(np.sin(theta), 2)
        ct2 = np.float_power(np.cos(theta), 2)
        return {
            0: 8.0 * math.pi / 3.0,
            2: 2.0 * math.pi * st2 * np.cos(2.0 * phi)
            - (2.0 * math.pi / 3.0) * (3.0 * ct2 - 1.0),
        }
    if kind is FactorKind.AXY:
        st2 = np.float_power(np.sin(theta), 2)
        return {2: 2.0 * math.pi * st2 * np.sin(2.0 * phi)}
    if kind is FactorKind.BXY:
        return {1: -4.0 * math.pi * np.cos(theta)}
    raise ValueError(f"unknown factor kind {kind!r}")

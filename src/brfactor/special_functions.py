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
    acc = np.full_like(u, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * u + c
    return acc


def _j0(x):
    x = np.asarray(x, dtype=float)
    return np.where(x == 0.0, 1.0, np.sin(x) / np.where(x == 0.0, 1.0, x))


def _j12(l: int, x):
    """j_1 or j_2: the trigonometric closed form at |x| >= SMALL_X, and
    x**l times the Maclaurin polynomial in x**2 below it.

    Every division sees 1.0 in place of a small x, so finite x never
    divides by zero.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < SMALL_X
    xs = np.where(small, 1.0, x)
    if l == 1:
        out = np.asarray(np.sin(xs) / xs**2 - np.cos(xs) / xs)
    else:
        out = np.asarray((3.0 / xs**3 - 1.0 / xs) * np.sin(xs) - 3.0 * np.cos(xs) / xs**2)
    if small.any():
        xm = x[small]
        out[small] = xm**l * _horner(_POLYS[l], xm * xm)
    return out


def _jm1(x):
    x = np.asarray(x, dtype=float)
    return np.cos(x) / x


_J_FUNCS = {-1: _jm1, 0: _j0, 1: functools.partial(_j12, 1), 2: functools.partial(_j12, 2)}


def sph_bessel(l: int, x) -> float:
    """j_l(x) for l in {-1, 0, 1, 2}; scalars in, scalar out; arrays pass through.

    j_{-1}(x) = cos(x)/x requires x > 0.  The limits j_l(0) = delta_{0l}
    hold for l >= 0.
    """
    if l not in _J_FUNCS:
        raise ValueError(f"unsupported order l={l}, expected -1, 0, 1 or 2")
    if l == -1 and np.any(np.asarray(x) == 0.0):
        raise ValueError("j_{-1} is singular at x = 0")
    out = _J_FUNCS[l](x)
    if np.ndim(x) == 0:
        return float(out)
    return out


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
            f = _J_FUNCS[l](xa)
            # j_l'(x) = j_{l-1}(x) - (l+1)/x * j_l(x)
            df = _J_FUNCS[l - 1](xa) - (l + 1) / xa * f
            x_new = xa - np.where(df != 0.0, f / df, 0.0)
            out = np.flatnonzero(~((a < x_new) & (x_new < b)))
            if len(out):
                same = (f[out] < 0.0) == (_J_FUNCS[l](a[out]) < 0.0)
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
    w = 0.5 * _J_FUNCS[l - 1](root) ** 2
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

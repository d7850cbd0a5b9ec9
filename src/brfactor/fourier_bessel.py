"""Fourier-Bessel series routes for the geometric factors.

Two independent expansions of the same quantity: a fixed-node series with
nodes q_n = n pi / r_ex (the radius-gated kernel saturates, so the plain
infinite-radius time averages appear), and a general-roots series over the
per-l root tables of j_l with the boundary terms kept explicitly.  Both
remove the flat (q-independent) part of the monopole kernel from the sum
and add back its closed value, which turns the slowest-converging piece of
the series into an exact term: a polynomial from the overlap volume of two
balls, so the series take nothing from the closed form's kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    FactorKind,
    FactorResult,
    Method,
    RegionPair,
    SeriesConfig,
    ValidationError,
    _ldexp,
    _two_sum,
    length_scale,
    scale_back,
    unit_scale,
)
from .special_functions import angular_weight, bessel_roots, fb_weight, sph_bessels
from .time_averages import (
    AvgKind,
    Schedule,
    _average,
    open_lags,
    step_coefficients,
)

#: nodes are evaluated in vectorized blocks: the first holds BLOCK nodes and
#: each later one twice as many as the one before
BLOCK = 128


@dataclass(frozen=True)
class SeriesTermLog:
    """One series node: its term and the compensated (Sum2) partial sum
    through it, as `_accumulate` computes them."""

    n: int
    q_n: float
    term_value: float
    partial_sum: float


def _spans(count: int):
    """(lo, hi) index ranges that cover range(count) in order: BLOCK
    indices first, then each range twice as long as the one before."""
    lo, size = 0, BLOCK
    while lo < count:
        yield lo, min(lo + size, count)
        lo, size = lo + size, 2 * size


def _saturated_kernels(ls, s: Schedule):
    """The function that maps q > 0 (a finite 1-d array) to the saturated
    (infinite-radius) radial kernel of every channel l in `ls`, angular
    constants excluded: q times the sine average for l = 0 and 2, the
    monopole also carrying the -(3/2)<delta(t)> flat term, and q times the
    cosine average for l = 1.  The schedule's constants are taken once."""
    st = step_coefficients(s, 0.0)
    lags = open_lags(s, st.open_gates, 1)
    norm = s.dt1 * s.dt2

    def kernels(q) -> dict:
        out = {}
        if 1 in ls:
            out[1] = q * _average(AvgKind.COS, q, st, lags, norm)
        if 0 in ls or 2 in ls:
            out[2] = q * _average(AvgKind.SIN, q, st, lags, norm)
        if 0 in ls:
            out[0] = out[2] - 1.5 * (st.d0 / norm)
        return out

    return kernels


def _boundary_kernel(l: int, r_ex: float, s: Schedule):
    """The radial kernel of channel l with the expansion-boundary terms kept
    at finite r_ex, as a function of the roots' wavenumber q and of q r_ex,
    sin(q r_ex) and cos(q r_ex); the schedule's constants are taken once.

    Combines the radius-gated averages with the delta-type boundary terms at
    t = r_ex; at the roots of j_l the non-decaying pieces cancel against the
    gated averages.  Evaluated only at those roots, q r_ex = x_n, where every
    term carrying j_l(q r_ex) vanishes and is left out.  Broadcasts over q.
    """
    st = step_coefficients(s, r_ex)
    lags = open_lags(s, st.radius_gates, 1)
    norm = s.dt1 * s.dt2
    delta_r = st.dr / norm
    d0 = step_coefficients(s, 0.0).d0

    def kernel(q, x_rex, sin_rex, cos_rex):
        rex_trig = (sin_rex, cos_rex)
        if l == 1:
            cos_avg = _average(AvgKind.COS, q, st, lags, norm, rex_trig)
            return q * cos_avg - sin_rex * delta_r
        sin_avg = _average(AvgKind.SIN, q, st, lags, norm, rex_trig)
        if l == 0:
            boundary = d0 / norm - cos_rex * delta_r
            return q * sin_avg - boundary - 0.5 * d0 / norm
        combo = cos_rex - sph_bessels((0,), x_rex, rex_trig)[0]
        return q * sin_avg + combo * delta_r

    return kernel


@functools.lru_cache(maxsize=None)
def _root_nodes(l: int, count: int) -> tuple:
    """Read-only arrays of the first `count` roots x_n of j_l and of their
    Fourier-Bessel weights at r_ex = 1; a weight at r_ex is r_ex**3 times it."""
    roots = bessel_roots(l, count)
    weights = fb_weight(l, roots)
    weights.flags.writeable = False
    return roots, weights


def _flat_head(g00: float, a: float, b: float, r: float) -> float:
    """Closed value of the flat monopole contribution, any separation r.

    Equals (12/(pi a b)) g00 ji4(0;1,1,0,0;a,b,r,0) = (12/(pi a b)) g00
    V/(8 a^2 b^2), with V the overlap volume of balls of radii a and b at
    distance r.  With R_< <= R_> the radii and d = R_> - R_<, it is 0.0 for
    a closed gate (g00 = 0) or disjoint balls (r >= a + b), 2 g00 / R_>^3
    for nested balls (r <= d), and for a lens
    g00 (a+b-r)^2 (r^2 + 2r(a+b) - 3d^2) / (8 r a^3 b^3).

    The lens's middle factor is summed as (r - d)(r + d + 2(a+b)) + 4 d R_<,
    whose terms are nonnegative, with a + b - r and r - d rounded once
    each, so no step cancels.  Lengths enter as ratios of at most 14, and
    R_>^3 is divided by once; the routes pass radii at unit scale
    (`unit_scale`), where R_> lies in [2**-340, 2] and R_>^3 is a normal
    float.  The series being replaced reproduces this value exactly because
    a, b + r <= r_ex keeps the node sum alias-free.
    """
    if g00 == 0.0:
        return 0.0
    small, big = (a, b) if a < b else (b, a)
    overlap = math.fsum((a, b, -r))  # a + b - r
    if overlap <= 0.0:
        return 0.0
    big3 = big * big * big
    gap = math.fsum((r, -big, small))  # r - d
    if gap <= 0.0:
        return 2.0 * g00 / big3
    d = big - small
    # gap <= min(r, 2 R_<) and, in a lens, max(r, R_<) >= R_>/2
    lo, hi = (r, small) if r < small else (small, r)
    lens = gap / lo * ((r + d + 2.0 * (a + b)) / hi) + 4.0 * d / r
    return g00 * (overlap / small) ** 2 * lens / (8.0 * big3)


def _accumulate(block, cfg: SeriesConfig, start: float, term_log=None, k: int = 0):
    """The series engine: sums start and the terms that `block(lo, hi)`
    returns, as the (q, terms) arrays of nodes lo + 1..hi, over the spans of
    `_spans(cfg.n_max)`, with compensated prefix sums and the windowed
    stopping rule.

    Each partial sum is Sum2 of Ogita, Rump & Oishi (SIAM J. Sci. Comput. 26
    (2005) 1955) over the terms so far: the left-to-right float sum plus the
    sum of every addition's exact TwoSum error, within u|s| + gamma_n^2
    sum|x| of the exact one.  After each block both sums and the windows are
    recomputed over every term so far; np.add.accumulate adds left to right,
    so the result does not depend on where the blocks end.

    Stops at the first term after which the largest |term| across the
    trailing tail_window terms falls below tail_tol times the current
    |partial sum| (floored away from zero).  Windows that end in earlier
    blocks saw the same floats and failed, so the first window that passes
    is the stop, and no later block is asked for.  Returns (total, last_n,
    tail_estimate, converged).  term_log is extended once, after the stop,
    so a block that raises leaves it as it was, and in the caller's units:
    the blocks work at the point of `unit_scale`'s exponent k, so q is
    logged times 2**-k, terms and partial sums times 2**(-4k).
    """
    width = cfg.tail_window
    qs, terms = [], np.empty(0)
    for lo, hi in _spans(cfg.n_max):
        q, block_terms = block(lo, hi)
        qs.append(q)
        terms = np.concatenate((terms, block_terms))
        run = np.add.accumulate(np.concatenate(((start,), terms)))
        partials = run[1:] + np.add.accumulate(_two_sum(run[:-1], terms)[1])
        mags = np.abs(terms)
        if len(terms) < width:
            continue
        # window k covers mags[k:k + width] and ends at term k + width
        window_max = _window_max(mags, width)
        bound = cfg.tail_tol * np.maximum(np.abs(partials[width - 1 :]), 1e-300)
        hits = np.flatnonzero(window_max < bound)
        if hits.size:
            count = width + int(hits[0])
            tail, converged = float(window_max[hits[0]]), True
            break
    else:
        count = len(terms)
        tail, converged = float(mags[-width:].max()), False
    if term_log is not None:
        q = np.ldexp(np.concatenate(qs)[:count], -k)
        sums = np.ldexp((terms[:count], partials[:count]), -4 * k)
        term_log.extend(map(SeriesTermLog, range(1, count + 1), q.tolist(), *sums.tolist()))
    return float(partials[count - 1]), count, tail, converged


def _window_max(mags: np.ndarray, width: int) -> np.ndarray:
    """Max over every window of `width` consecutive entries, in order.

    Maxima over windows of 1, 2, 4, ... entries are built by doubling; two
    overlapping windows of the largest power of two cover each full window.
    Taking a max is exact, so this equals the max over each window.
    """
    out, span = mags, 1
    while 2 * span <= width:
        out = np.maximum(out[:-span], out[span:])
        span *= 2
    return np.maximum(out[: len(mags) - width + 1], out[width - span :])


def _bessel_rows(x, ls) -> tuple:
    """(j_1(q r1'), j_1(q r2), the rows j_l(q r) for l in ls, sin x, cos x)
    from x = q * radii, whose rows are q r1', q r2, q r and any whose trig
    the caller needs.  One sin and one cos of x serve every row; the dipole
    alone, ls = (1,), takes q r with j_1."""
    sin_x, cos_x = np.sin(x), np.cos(x)
    j1_rows = 3 if ls == (1,) else 2
    (j1,) = sph_bessels((1,), x[:j1_rows], (sin_x[:j1_rows], cos_x[:j1_rows]))
    j_r = j1[2:] if j1_rows == 3 else sph_bessels(ls, x[2], (sin_x[2], cos_x[2]))
    return j1[0], j1[1], j_r, sin_x, cos_x


def _point_pipeline(method: Method, series, kind: FactorKind, p: RegionPair, cfg, term_log):
    """A series route at point p: `validate`, then `unit_scale` (exponent k)
    and, outside the light-cone support (`RegionPair.in_support`), an exact
    0.0 with terms_used = 0, a zero tail and converged = True.  Otherwise
    the route's `series(p, k, s, weights, g00, cfg, term_log)` sums at unit
    scale, given the schedule, the angular weights and g00 = -<delta(t)>/2,
    the q-independent part of the monopole kernels, and its (value,
    terms_used, tail, converged) are scaled back to the caller's point."""
    p.validate()
    k, p = unit_scale(p)
    if not p.in_support():  # no lag is a distance between the balls: 0
        return FactorResult(0.0, 0, 0.0, method, converged=True)
    s = Schedule(p.dt1, p.dt2, p.t_offset)
    weights = angular_weight(kind, p.theta, p.phi)
    g00 = -0.5 * step_coefficients(s, 0.0).d0 / (s.dt1 * s.dt2)
    value, used, tail, converged = series(p, k, s, weights, g00, cfg, term_log)
    value, tail = scale_back(f"{method.value}: the value", -4 * k, value, tail)
    return FactorResult(value, used, tail, method, converged)


def _fixed_node_series(p, k, s, weights, g00, cfg, term_log) -> tuple:
    """`factor_series`'s node sum at unit scale."""
    r_ex = p.r + p.r2 + max(p.t_offset + p.dt2, 0.0) + _ldexp(cfg.rex_slack, -k)
    r1p = min(p.r1, r_ex)
    corr = (r1p / p.r1) ** 3
    # at unit scale r1' and r2 keep the product from underflowing; a large
    # r_ex still overflows it, as at RegionPair(1, 1, r=1e308, t_offset=1e308)
    prefac = corr * 9.0 / length_scale(2.0 * math.pi * r_ex * r1p * p.r2)
    head = corr * _flat_head(g00, r1p, p.r2, p.r) if 0 in weights else 0.0
    ls = tuple(sorted(weights))
    kernels = _saturated_kernels(ls, s)
    radii = np.array([[r1p], [p.r2], [p.r]])

    def block(lo, hi):
        q = np.arange(lo + 1, hi + 1) * (math.pi / r_ex)
        radial = kernels(q)
        j1_a, j1_b, j_r, _, _ = _bessel_rows(q * radii, ls)
        acc = 0.0
        for l, j in zip(ls, j_r):
            rad = radial[l] - g00 if l == 0 else radial[l]
            acc = acc + weights[l] * rad * j
        return q, prefac * j1_a * j1_b * acc

    return _accumulate(block, cfg, head, term_log, k)


def factor_series(
    kind: FactorKind,
    p: RegionPair,
    cfg: SeriesConfig = SeriesConfig(),
    term_log=None,
) -> FactorResult:
    """Geometric factor by the fixed-node series.

    The expansion radius is r_ex = r + r2 + max(t_offset + dt2, 0) +
    rex_slack, the smallest radius through which no signal from outside can
    reach region 2 within the sampled window.  When r1 exceeds r_ex the
    region-1 ball is truncated to r1' = r_ex, which is exact for the factor
    but rescales the density normalization; the (r1'/r1)^3 volume factor
    restores it.  The series runs at unit scale, and a point outside the
    light-cone support gives an exact 0.0 (`_point_pipeline`).
    """
    return _point_pipeline(Method.SERIES_SIMPLE, _fixed_node_series, kind, p, cfg, term_log)


def _general_roots_series(p, k, s, weights, g00, cfg, term_log) -> tuple:
    """`factor_series_general`'s channel sums at unit scale."""
    r_ex = p.r + p.r1 + p.r2 + _ldexp(cfg.rex_slack, -k)
    # the root weights are r_ex**3 times the unit ones; a large r_ex
    # overflows it, as at RegionPair(1, 1, r=1e150, t_offset=1e150)
    try:
        r_ex3 = length_scale(r_ex**3)
    except OverflowError:
        r_ex3 = length_scale(math.inf)
    radii = np.array([[p.r1], [p.r2], [p.r], [r_ex]])
    channels = []
    for l, w in sorted(weights.items()):
        roots, unit_weights = _root_nodes(l, cfg.n_max)
        chan_pref = (9.0 / (p.r1 * p.r2)) * (w / (4.0 * math.pi))
        kernel = _boundary_kernel(l, r_ex, s)

        def block(lo, hi):
            q = roots[lo:hi] / r_ex
            x = q * radii
            j1_a, j1_b, (jl_r,), sin_x, cos_x = _bessel_rows(x, (l,))
            bracket = kernel(q, x[3], sin_x[3], cos_x[3])
            if l == 0:
                bracket = bracket - g00
            terms = chan_pref * (bracket / (r_ex3 * unit_weights[lo:hi])) * j1_a * j1_b * jl_r
            return q, terms / (q * q)

        channels.append(_accumulate(block, cfg, 0.0, term_log, k))
    totals, used, tails, convs = zip(*channels)
    # the channels' tails add in channel order
    tail = sum(tails)
    head = _flat_head(g00, p.r1, p.r2, p.r) if 0 in weights else 0.0
    # fsum raises on an inf or a nan, so the parts are checked first
    if not all(map(math.isfinite, totals)):
        raise ValidationError("series-general: a channel sum lies beyond the float range")
    value = head + math.fsum(totals)
    # a channel that sums to a structural near-zero never passes its own
    # relative stop; judge such channels against the combined magnitude
    scale = max(abs(value), 1e-300)
    converged = all(ok or t <= cfg.tail_tol * scale for t, ok in zip(tails, convs))
    return value, max(used), tail, converged


def factor_series_general(
    kind: FactorKind,
    p: RegionPair,
    cfg: SeriesConfig = SeriesConfig(),
    term_log=None,
) -> FactorResult:
    """Geometric factor by the general-roots series.

    Each l channel runs over its own root table q_n = x_n^(l)/r_ex with
    r_ex = r + r1 + r2 + rex_slack and is truncated independently; the
    reported terms_used is the deepest node index across channels.  The
    series runs at unit scale, and a point outside the light-cone support
    gives an exact 0.0 (`_point_pipeline`).
    """
    return _point_pipeline(Method.SERIES_GENERAL, _general_roots_series, kind, p, cfg, term_log)

"""Fourier-Bessel series routes for the geometric factors.

Two independent expansions of the same quantity: a fixed-node series with
nodes q_n = n pi / r_ex (the radius-gated kernel saturates, so the plain
infinite-radius time averages appear), and a general-roots series over the
per-l root tables of j_l with the boundary terms kept explicitly.  Both
remove the flat (q-independent) part of the monopole kernel from the sum
and add back its closed value, which turns the slowest-converging piece of
the series into an exact term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .closed_form import _two_sum, ji4
from .model import (
    CHANNELS,
    FactorKind,
    FactorResult,
    Ji4Args,
    Method,
    RegionPair,
    SeriesConfig,
    ValidationError,
    length_scale,
)
from .special_functions import angular_weight, bessel_roots, fb_weight, sph_bessels
from .time_averages import (
    AvgKind,
    Schedule,
    _average,
    check_wavenumbers,
    open_lags,
    step_coefficients,
    wavenumbers,
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


def _check_pair(kind: FactorKind, l: int) -> None:
    if (kind, l) not in CHANNELS:
        raise ValidationError(f"no radial kernel for (kind={kind.value}, l={l})")


def utilde(kind: FactorKind, l: int, q, s: Schedule):
    """Radial multipole kernel at wavenumber q, angular constants excluded.

    These are the saturated (infinite-radius) forms: q times the sine
    average for l = 0 and 2 (the monopole also carries the -(3/2)<delta(t)>
    flat term), q times the cosine average for l = 1.  Broadcasts over q.
    """
    _check_pair(kind, l)
    qa = wavenumbers(q)
    out = _saturated_kernels((l,), s, qa.ndim)(qa)[l]
    return float(out) if np.ndim(q) == 0 else out


def _saturated_kernels(ls, s: Schedule, ndim: int):
    """The function that maps checked wavenumbers q of `ndim` dimensions to
    the `utilde` of every channel l in `ls`, with the schedule's constants
    taken once; l = 0 and 2 share one sine average."""
    st = step_coefficients(s, 0.0)
    lags = open_lags(s, st.open_gates, ndim)
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
    at finite r_ex, as a function of the roots' wavenumbers q and of q r_ex,
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


def _flat_monopole_coeff(s: Schedule) -> float:
    """q-independent part of the monopole kernels: -<delta(t)>/2."""
    return -0.5 * step_coefficients(s, 0.0).d0 / (s.dt1 * s.dt2)


def _flat_head(g00: float, a: float, b: float, r: float) -> float:
    """Closed value of the flat monopole contribution, any separation r.

    Equals (12/(pi a b)) g00 ji4(0;1,1,0,0;a,b,r,0); the series being
    replaced reproduces this exactly because a, b + r <= r_ex keeps the
    node sum alias-free, and at r = 0 it reduces to 2 g00 R_< / (a b R_>^2).
    """
    return 12.0 / length_scale(math.pi * a * b) * g00 * ji4(
        Ji4Args(n=0, l1=1, l2=1, l3=0, l4=0, alpha=a, beta=b, gamma=r, delta=0.0)
    )


def _accumulate(blocks, cfg: SeriesConfig, start: float, term_log=None):
    """Compensated prefix sums of blocks of (n, q_n, term) arrays, with the
    windowed stopping rule.

    Each partial sum is Sum2 of Ogita, Rump & Oishi (SIAM J. Sci. Comput. 26
    (2005) 1955) over the terms so far: the left-to-right float sum plus the
    sum of every addition's exact TwoSum error, within u|s| + gamma_n^2
    sum|x| of the exact one.  Both running sums are carried from block to
    block, so the result does not depend on where the blocks end.

    Stops at the first term after which the largest |term| across the
    trailing tail_window terms falls below tail_tol times the current
    |partial sum| (floored away from zero).  The rule is tested once per
    block, over every window that ends in it, and a window may reach back
    into earlier blocks.  Returns (total, last_n, tail_estimate, converged).
    """
    width = cfg.tail_window
    total = run_end = start
    err_end = 0.0
    # |term| of the last width - 1 terms before the current block
    recent = mags = np.empty(0)
    used = 0
    for n, q, terms in blocks:
        run = np.add.accumulate(np.concatenate(((run_end,), terms)))
        errs = _two_sum(run[:-1], terms)[1]
        # the carried error comes first, as in one sequential sum
        errs[0] += err_end
        np.add.accumulate(errs, out=errs)
        run_end, err_end = run[-1], errs[-1]
        partials = run[1:] + errs
        mags = np.concatenate((recent, np.abs(terms)))
        count = len(terms)
        stop = None
        # window k covers mags[k:k + width] and ends at block index k + lead
        lead = width - 1 - len(recent)
        if lead < count:
            window_max = _window_max(mags, width)
            bound = cfg.tail_tol * np.maximum(np.abs(partials[lead:]), 1e-300)
            hits = np.flatnonzero(window_max < bound)
            if hits.size:
                stop = int(hits[0])
                count = lead + stop + 1
        total = float(partials[count - 1])
        if term_log is not None:
            term_log.extend(
                map(SeriesTermLog, n[:count].tolist(), q[:count].tolist(),
                    terms[:count].tolist(), partials[:count].tolist())
            )
        used = int(n[count - 1])
        if stop is not None:
            return total, used, float(window_max[stop]), True
        recent = mags[max(len(mags) - width + 1, 0):]
    tail = float(mags[-width:].max()) if len(mags) else 0.0
    return total, used, tail, False


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


def _check_finite(method: Method, *values: float) -> None:
    """Refuse a series whose value or tail left the float range: the terms
    scale as the inverse fourth power of the lengths."""
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{method.value}: the value lies beyond the float range")


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
    restores it.
    """
    p.validate()
    s = Schedule(p.dt1, p.dt2, p.t_offset)
    r_ex = p.r + p.r2 + max(p.t_offset + p.dt2, 0.0) + cfg.rex_slack
    r1p = min(p.r1, r_ex)
    corr = (r1p / p.r1) ** 3
    weights = angular_weight(kind, p.theta, p.phi)
    prefac = corr * 9.0 / length_scale(2.0 * math.pi * r_ex * r1p * p.r2)
    g00 = _flat_monopole_coeff(s)
    head = corr * _flat_head(g00, r1p, p.r2, p.r) if 0 in weights else 0.0

    ls = sorted(weights)
    kernels = _saturated_kernels(ls, s, 1)
    radii = np.array([[r1p], [p.r2], [p.r]])
    # rows that take j_1 alone: q r1' and q r2, and q r too for the dipole
    j1_rows = 3 if ls == [1] else 2

    def nodes():
        for lo, hi in _spans(cfg.n_max):
            n = np.arange(lo + 1, hi + 1)
            q = n * (math.pi / r_ex)
            check_wavenumbers(q[0], q[-1])  # q increases
            radial = kernels(q)
            x = q * radii
            sin_x, cos_x = np.sin(x), np.cos(x)
            (j1,) = sph_bessels((1,), x[:j1_rows], (sin_x[:j1_rows], cos_x[:j1_rows]))
            j_r = j1[2:] if j1_rows == 3 else sph_bessels(ls, x[2], (sin_x[2], cos_x[2]))
            acc = 0.0
            for l, j in zip(ls, j_r):
                rad = radial[l] - g00 if l == 0 else radial[l]
                acc = acc + weights[l] * rad * j
            terms = prefac * j1[0] * j1[1] * acc
            yield n, q, terms

    total, used, tail, converged = _accumulate(nodes(), cfg, head, term_log)
    _check_finite(Method.SERIES_SIMPLE, total, tail)
    return FactorResult(
        value=total,
        terms_used=used,
        tail_estimate=tail,
        method=Method.SERIES_SIMPLE,
        converged=converged,
    )


def factor_series_general(
    kind: FactorKind,
    p: RegionPair,
    cfg: SeriesConfig = SeriesConfig(),
    term_log=None,
) -> FactorResult:
    """Geometric factor by the general-roots series.

    Each l channel runs over its own root table q_n = x_n^(l)/r_ex with
    r_ex = r + r1 + r2 + rex_slack and is truncated independently; the
    reported terms_used is the deepest node index across channels.
    """
    p.validate()
    s = Schedule(p.dt1, p.dt2, p.t_offset)
    r_ex = p.r + p.r1 + p.r2 + cfg.rex_slack
    weights = angular_weight(kind, p.theta, p.phi)
    g00 = _flat_monopole_coeff(s)
    try:  # the root weights are r_ex**3 times the unit ones
        r_ex3 = length_scale(r_ex**3)
    except OverflowError:
        r_ex3 = length_scale(math.inf)
    totals = []
    used = 0
    tail = 0.0
    channel_status = []
    radii = np.array([[p.r1], [p.r2], [p.r], [r_ex]])
    for l, w in sorted(weights.items()):
        roots, unit_weights = _root_nodes(l, cfg.n_max)
        chan_pref = (9.0 / length_scale(p.r1 * p.r2)) * (w / (4.0 * math.pi))
        kernel = _boundary_kernel(l, r_ex, s)
        # rows that take j_1 alone: q r1 and q r2, and q r too for l = 1
        j1_rows = 3 if l == 1 else 2

        def nodes():
            for lo, hi in _spans(cfg.n_max):
                q = roots[lo:hi] / r_ex
                check_wavenumbers(q[0], q[-1])  # q increases
                x = q * radii
                sin_x, cos_x = np.sin(x), np.cos(x)
                (j1,) = sph_bessels((1,), x[:j1_rows], (sin_x[:j1_rows], cos_x[:j1_rows]))
                jl_r = j1[2] if l == 1 else sph_bessels((l,), x[2], (sin_x[2], cos_x[2]))[0]
                bracket = kernel(q, x[3], sin_x[3], cos_x[3])
                if l == 0:
                    bracket = bracket - g00
                terms = (
                    chan_pref
                    * (bracket / (r_ex3 * unit_weights[lo:hi]))
                    * j1[0]
                    * j1[1]
                    * jl_r
                    / (q * q)
                )
                yield np.arange(lo + 1, hi + 1), q, terms

        total_l, used_l, tail_l, conv_l = _accumulate(nodes(), cfg, 0.0, term_log)
        totals.append(total_l)
        used = max(used, used_l)
        tail += tail_l
        channel_status.append((tail_l, conv_l))
    head = _flat_head(g00, p.r1, p.r2, p.r) if 0 in weights else 0.0
    # fsum raises on an inf or a nan, so the parts are checked first
    _check_finite(Method.SERIES_GENERAL, head, tail, *totals)
    value = head + math.fsum(totals)
    _check_finite(Method.SERIES_GENERAL, value)
    # a channel that sums to a structural near-zero never passes its own
    # relative stop; judge such channels against the combined magnitude
    scale = max(abs(value), 1e-300)
    converged = all(
        conv_l or tail_l <= cfg.tail_tol * scale for tail_l, conv_l in channel_status
    )
    return FactorResult(
        value=value,
        terms_used=used,
        tail_estimate=tail,
        method=Method.SERIES_GENERAL,
        converged=converged,
    )

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

from .closed_form import ji4
from .model import (
    CHANNELS,
    FactorKind,
    FactorResult,
    Ji4Args,
    Method,
    RegionPair,
    SeriesConfig,
    ValidationError,
)
from .special_functions import angular_weight, bessel_roots, fb_weight, sph_bessel
from .time_averages import AvgKind, Schedule, finite_avg, infinite_avg, step_coefficients

#: nodes are evaluated in vectorized blocks of this size, reduced in order
BLOCK = 128


@dataclass(frozen=True)
class SeriesTermLog:
    """One series node: term value and compensated partial sum after it."""

    n: int
    q_n: float
    term_value: float
    partial_sum: float


def _check_pair(kind: FactorKind, l: int) -> None:
    if (kind, l) not in CHANNELS:
        raise ValidationError(f"no radial kernel for (kind={kind.value}, l={l})")


def utilde(kind: FactorKind, l: int, q, s: Schedule):
    """Radial multipole kernel at wavenumber q, angular constants excluded.

    These are the saturated (infinite-radius) forms: q times the sine
    average for l = 0 and 2 (the monopole also carries the -(3/2)<delta(t)>
    flat term), q times the cosine average for l = 1.  Broadcasts over q.
    """
    return _saturated_kernels(kind, (l,), q, s)[l]


def _saturated_kernels(kind: FactorKind, ls, q, s: Schedule) -> dict:
    """`utilde` of every channel l in `ls`; l = 0 and 2 share one sine average."""
    for l in ls:
        _check_pair(kind, l)
    out = {}
    if 1 in ls:
        out[1] = q * infinite_avg(AvgKind.COS, q, s)
    if 0 in ls or 2 in ls:
        out[2] = q * infinite_avg(AvgKind.SIN, q, s)
    if 0 in ls:
        out[0] = out[2] - 1.5 * (step_coefficients(s, 0.0).d0 / (s.dt1 * s.dt2))
    return out


def _boundary_kernel(kind: FactorKind, l: int, q, r_ex: float, s: Schedule):
    """Radial kernel with the expansion-boundary terms kept at finite r_ex.

    Combines the radius-gated averages with the delta-type boundary terms at
    t = r_ex; at the roots of j_l the non-decaying pieces cancel against the
    gated averages.  Evaluated only at those roots, q r_ex = x_n, where every
    term carrying j_l(q r_ex) vanishes and is left out.  Broadcasts over q.
    """
    _check_pair(kind, l)
    norm = s.dt1 * s.dt2
    delta_r = step_coefficients(s, r_ex).dr / norm
    if l == 1:
        cos_avg = finite_avg(AvgKind.COS, q, r_ex, s)
        return q * cos_avg - np.sin(q * r_ex) * delta_r
    sin_avg = finite_avg(AvgKind.SIN, q, r_ex, s)
    if l == 0:
        d0 = step_coefficients(s, 0.0).d0
        boundary = d0 / norm - np.cos(q * r_ex) * delta_r
        return q * sin_avg - boundary - 0.5 * d0 / norm
    combo = np.cos(q * r_ex) - sph_bessel(0, q * r_ex)
    return q * sin_avg + combo * delta_r


@functools.lru_cache(maxsize=None)
def _root_nodes(l: int, count: int) -> tuple:
    """Read-only arrays of the first `count` roots x_n of j_l and of their
    Fourier-Bessel weights at r_ex = 1; a weight at r_ex is r_ex**3 times it."""
    roots = bessel_roots(l, count)
    weights = fb_weight(l, roots, 1.0)
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
    return 12.0 / (math.pi * a * b) * g00 * ji4(
        Ji4Args(n=0, l1=1, l2=1, l3=0, l4=0, alpha=a, beta=b, gamma=r, delta=0.0)
    )


def _accumulate(blocks, cfg: SeriesConfig, start: float, term_log=None):
    """Kahan-sum blocks of (n, q_n, term) arrays with the windowed stopping rule.

    Stops at the first term after which the largest |term| across the
    trailing tail_window terms falls below tail_tol times the current
    |partial sum| (floored away from zero).  The terms are summed one by
    one; the stop rule is tested once per block, over every window that ends
    in it, and a window may reach back into earlier blocks.
    Returns (total, last_n, tail_estimate, converged).
    """
    width = cfg.tail_window
    total = start
    comp = 0.0
    # |term| of the last width - 1 terms before the current block
    recent = mags = np.empty(0)
    used = 0
    for n, q, terms in blocks:
        values = terms.tolist()
        partials = []
        for term in values:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            partials.append(t)
        mags = np.concatenate((recent, np.abs(terms)))
        count = len(values)
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
        if term_log is not None:
            term_log.extend(
                map(SeriesTermLog, n[:count].tolist(), q[:count].tolist(),
                    values[:count], partials[:count])
            )
        used = int(n[count - 1])
        if stop is not None:
            return partials[count - 1], used, float(window_max[stop]), True
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
    prefac = corr * 9.0 / (2.0 * math.pi * r_ex * r1p * p.r2)
    g00 = _flat_monopole_coeff(s)
    head = corr * _flat_head(g00, r1p, p.r2, p.r) if 0 in weights else 0.0

    def nodes():
        for lo in range(1, cfg.n_max + 1, BLOCK):
            n = np.arange(lo, min(lo + BLOCK, cfg.n_max + 1))
            q = n * (math.pi / r_ex)
            acc = np.zeros_like(q)
            kernels = _saturated_kernels(kind, weights, q, s)
            for l, w in sorted(weights.items()):
                rad = kernels[l]
                if l == 0:
                    rad = rad - g00
                acc = acc + w * rad * sph_bessel(l, q * p.r)
            terms = prefac * sph_bessel(1, q * r1p) * sph_bessel(1, q * p.r2) * acc
            yield n, q, terms

    total, used, tail, converged = _accumulate(nodes(), cfg, head, term_log)
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
    totals = []
    used = 0
    tail = 0.0
    channel_status = []
    for l, w in sorted(weights.items()):
        roots, unit_weights = _root_nodes(l, cfg.n_max)
        w_n = r_ex**3 * unit_weights
        chan_pref = (9.0 / (p.r1 * p.r2)) * (w / (4.0 * math.pi))

        def nodes():
            for lo in range(0, cfg.n_max, BLOCK):
                sl = slice(lo, min(lo + BLOCK, cfg.n_max))
                q = roots[sl] / r_ex
                bracket = _boundary_kernel(kind, l, q, r_ex, s)
                if l == 0:
                    bracket = bracket - g00
                terms = (
                    chan_pref
                    * (bracket / w_n[sl])
                    * sph_bessel(1, q * p.r1)
                    * sph_bessel(1, q * p.r2)
                    * sph_bessel(l, q * p.r)
                    / (q * q)
                )
                yield np.arange(lo + 1, sl.stop + 1), q, terms

        total_l, used_l, tail_l, conv_l = _accumulate(nodes(), cfg, 0.0, term_log)
        totals.append(total_l)
        used = max(used, used_l)
        tail += tail_l
        channel_status.append((tail_l, conv_l))
    head = _flat_head(g00, p.r1, p.r2, p.r) if 0 in weights else 0.0
    value = head + math.fsum(totals)
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

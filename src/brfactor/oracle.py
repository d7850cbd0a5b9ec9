"""Quadrature oracles that cross-check the analytic routes numerically.

Both the factor integrand and the four-Bessel integrals oscillate with a
bounded combined frequency and decay algebraically, so the two oracles
share one scheme: a head of fixed Gauss-Legendre panels over the first few
periods, then half-period chunks integrated by the same rule, with the limit
of the chunk partial sums taken by iterated averaging.  The flat (large-q)
part of the monopole and quadrupole kernels would leave a non-oscillatory
1/q^2 tail that no such extrapolation can truncate, so the quadrature is
pointed at the decaying echo part of the kernel only and the flat part
enters through its four-Bessel value.

The scheme is stacked: a factor point's channels share one grid, a batch's
tails one averaging pass, and a scalar call is a batch of one.  The tail's
panels are all of one width, so at its nodes an integrand takes sin(a q)
and cos(a q), for each of its Bessel scales a, by angle addition from a
per-panel and a per-node table (`_tail_sums`).  In the head, whose 48
panels make the tables cost more than np.sin and np.cos, and called at
arbitrary points, it takes its own.

Nothing in this module is imported by the analytic routes; it exists to
give them something independent to agree with.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .closed_form import CancellationWarning, ji4
from .model import (
    FactorKind, Ji4Args, RegionPair, ValidationError, check_integer,
    scale_back, unit_scale,
)
from .special_functions import angular_weight, sph_bessels
from .time_averages import (
    QuadratureError, Schedule, _gauss_legendre, _panel_sums, step_coefficients,
)

__all__ = [
    "QuadConfig",
    "QuadResult",
    "factor_fourier_numeric",
    "factor_fourier_numeric_batch",
    "ji4_numeric",
    "ji4_numeric_batch",
]

#: head length, in periods of the fastest oscillation, before chunking starts
_HEAD_PERIODS = 8


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and budgets for the oscillatory quadrature oracles."""

    abs_tol: float = 1e-7
    rel_tol: float = 1e-4
    tail_periods: int = 400

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            # a bool is an int to Python, but no tolerance
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not (number and math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
        check_integer("tail_periods", self.tail_periods)
        if self.tail_periods < 8:
            raise ValidationError(f"tail_periods must be >= 8, got {self.tail_periods}")


class QuadResult(NamedTuple):
    """Oracle value together with its absolute error estimate."""

    value: float
    error: float


def _rounding_floor(panels: np.ndarray) -> np.ndarray:
    """Rounding error of summing the panel values in order, per column."""
    return 4e-16 * (np.abs(np.cumsum(panels, axis=0)).max(axis=0) + np.abs(panels).max(axis=0))


def _settled(estimates: np.ndarray) -> tuple:
    """Per column, the estimate after the smallest move between levels, and that move."""
    moves = np.abs(np.diff(estimates, axis=0))
    best = np.argmin(moves, axis=0)
    columns = tuple(np.indices(best.shape))  # none for a 1-D estimate
    return estimates[(best + 1, *columns)], moves[(best, *columns)]


def _averaged_limit(chunks: np.ndarray) -> tuple:
    """Extrapolated tails with error estimates honest about slow modes.

    Averaging adjacent partial sums multiplies a mode of per-chunk ratio rho
    by (1 + rho)/2 per level, damping every non-DC mode; the level that
    moved least gives the value and the spread.  A barely-damped beat can
    leave that move far below the true error, so the limit is also compared
    with the one from the first m chunks, read off the same averaged rows.
    chunks is (levels x columns), or 1-D for one column; columns share adds.
    """
    m = max(len(chunks) // 2, 8)
    row = np.cumsum(chunks, axis=0)
    # Level L holds 2^k times its averaged row, k growing by one a level: a
    # level is one add, the halvings exact while the values stay normal.  The
    # ends are scaled back by exact powers of two, and every `room` levels,
    # before 2^k times its largest partial sum could overflow, a column too.
    room = np.maximum(1020 - np.frexp(np.max(np.abs(row), axis=0))[1], 1)
    rescaled = {L for step in set(np.ravel(room).tolist()) for L in range(step + 1, len(row), step)}
    full, half = np.empty(row.shape), np.empty((m,) + row.shape[1:])
    full[0], half[0] = row[-1], row[m - 1]
    for level in range(1, len(row)):
        if level in rescaled:
            row = np.ldexp(row, np.where((level - 1) % room == 0, -room, 0))
        row = row[1:] + row[:-1]
        full[level] = row[-1]
        if level < m:
            half[level] = row[m - 1 - level]
    levels = np.arange(len(chunks)).reshape((-1,) + (1,) * (chunks.ndim - 1))
    shift = levels - room * (np.maximum(levels - 1, 0) // room)
    full, half = np.ldexp(full, -shift), np.ldexp(half, -shift[:m])
    (value, move), (half_value, _) = _settled(full), _settled(half)
    return value, np.maximum(np.maximum(move, abs(value - half_value)), _rounding_floor(chunks))


def _head(f, h: float) -> tuple:
    """Integrals of f's rows over (0, 2 * _HEAD_PERIODS * h) and their error
    estimates, from one call of f: the sums over 16-point Gauss-Legendre
    panels of width h/2, and their distance from the sums over width h."""
    n = 2 * _HEAD_PERIODS
    lo = np.concatenate((h * np.arange(n), 0.5 * h * np.arange(2 * n)))
    panels = _panel_sums(f, lo, lo + np.repeat((h, 0.5 * h), (n, 2 * n)))
    value = np.sum(panels[:, n:], axis=1)
    return value, abs(value - np.sum(panels[:, :n], axis=1)) + _rounding_floor(panels[:, n:].T)


def _tail_sums(f, lo: np.ndarray, half: float) -> np.ndarray:
    """16-point Gauss-Legendre sums over the panels (lo_k, lo_k + 2 half),
    one row of sums per row of f, from one call f(x, trig).

    Node (j, k) is c_k + half n_j with c_k = lo_k + half, and x holds the
    nodes laid out (16, panels).  trig(a, sin, cos) returns sin(a x) and
    cos(a x) there, each only if asked for, by angle addition: a 16 x 2
    table per function of the sin and cos of the angles a half n_j, times
    the 2 x panels table of the cos and sin of the angles a c_k.  That is
    2 (panels + 16) trig calls per scale a instead of 32 panels, and the
    matrix product makes each value in one pass, where broadcast products
    take three.  The values are within a few ulp of max(|a x|, 1) of np.sin
    and np.cos.  einsum reduces each panel on its own.
    """
    nodes, weights = _gauss_legendre()
    centre, offset = lo + half, half * nodes
    x = centre + offset[:, None]

    def trig(a, sin=True, cos=True):
        so, co = np.sin(a * offset), np.cos(a * offset)
        # sin(v + u) = sin v cos u + cos v sin u, cos(v + u) = cos v cos u - sin v sin u
        pairs = [(so, co)] if sin else []
        if cos:
            pairs.append((co, -so))
        ac = a * centre
        table = np.array(pairs).transpose(0, 2, 1) @ np.array((np.cos(ac), np.sin(ac)))
        return table[0] if sin else None, table[-1] if cos else None

    vals = np.reshape(f(x, trig), (-1,) + x.shape)
    return half * np.einsum("...jk,j->...k", vals, weights)


def _batch(staged, cfg: QuadConfig) -> list:
    """QuadResults of the (job, finish) pairs `staged` yields, one pass.

    A job is None, or (f, omega) with f oscillating no faster than omega and
    returning a row per integral over (0, inf); the tail is chunked at half
    the fastest period, so that the dominant mode alternates chunk to chunk.
    finish takes its job's (value, error) rows from an iterator.  An item
    that raises while staged raises once the items before it are finished.
    """
    items, failure = [], None
    try:
        for item in staged:
            items.append(item)
    except Exception as exc:  # deferred, not swallowed: raised below
        failure = exc
    heads, tails, rows = [], [], iter(())
    for f, omega in (job for job, _ in items if job):
        h = math.pi / omega
        heads.append(_head(f, h))
        lo = 2 * _HEAD_PERIODS * h + h * np.arange(cfg.tail_periods)
        tails.append(_tail_sums(f, lo, 0.5 * h))
    if tails:
        chunks = np.concatenate(tails)
        # a lone row stays 1-D: the per-level numpy calls cost more on 2-D rows
        tail, tail_err = _averaged_limit(
            chunks[0] if len(chunks) == 1 else np.ascontiguousarray(chunks.T))
        value, error = (np.concatenate(part) for part in zip(*heads))
        rows = zip((value + tail).tolist(), (error + tail_err).tolist())
    results = [finish(rows) for _, finish in items]
    if failure is not None:
        raise failure
    return results


def _require_converged(result: QuadResult, cfg: QuadConfig, context: str) -> QuadResult:
    if not math.isfinite(result.value):
        raise ValidationError(f"{context}: the value lies beyond the float range")
    budget = max(cfg.abs_tol, cfg.rel_tol * abs(result.value))
    if result.error > budget:
        raise QuadratureError(
            f"{context}: tail extrapolation stalled at error "
            f"{result.error:.3e} for value {result.value:.6e}",
            estimate=result.value,
        )
    return result


def _flat_part(l: int, s: Schedule) -> float:
    """Large-q limit of the radial kernel (zero for the odd channel).

    The monopole keeps -(3/2) of the coincidence gate against +1 from its
    sine average; the quadrupole keeps the sine average's gate alone.  The
    gate is the lag-0 diagonal overlap D0 of the schedule.
    """
    if l == 1:
        return 0.0
    flat = step_coefficients(s, 0.0).d0 / (s.dt1 * s.dt2)
    return -0.5 * flat if l == 0 else flat


def _active_echoes(s: Schedule) -> list:
    """(signed gate, tau) pairs whose trig echo survives the step functions."""
    gates = step_coefficients(s, 0.0).open_gates
    return [(gate, tau) for gate, tau in zip(gates, s.taus) if gate != 0.0 and tau != 0.0]


#: which of (sin x, cos x) the closed form of j_l(x) reads, by order l
_TRIG_USE = {-1: (False, True), 0: (True, False), 1: (True, True), 2: (True, True)}


def _bessels(ls, x, a, trig=None) -> tuple:
    """(j_l(a x) for l in ls), from the sin and cos of a x that trig(a,
    sin, cos) of `_tail_sums` gives, or, with no trig, from their own."""
    if trig is None:
        return sph_bessels(ls, x * a)
    sin, cos = (any(use) for use in zip(*(_TRIG_USE[l] for l in ls)))
    return sph_bessels(ls, x * a, trig(a, sin, cos))


def _echo_kernel(l: int, qa: np.ndarray, s: Schedule, echoes: list, trig=None):
    """Decaying part of the radial kernel, one gated trig term per endpoint
    of `echoes`, the schedule's `_active_echoes`; trig as in `_bessels`.

    Each term carries its own finite q -> 0 limit (tau j0(q tau), or a
    half-angle sine square over q), so nothing cancels at small q and
    nothing is subtracted at large q.  The nodes are Gauss-Legendre
    interior points, so q > 0.
    """
    norm = s.dt1 * s.dt2
    total = np.zeros_like(qa)
    if l == 1:
        for gate, tau in echoes:
            half = np.sin(0.5 * qa * tau) if trig is None else trig(0.5 * tau, cos=False)[0]
            total = total - gate * 2.0 * half * half
        return total / qa / norm
    for gate, tau in echoes:
        total = total + gate * tau * _bessels((0,), qa, tau, trig)[0]
    return total / norm


def _factor_point(kind: FactorKind, p: RegionPair, cfg: QuadConfig) -> tuple:
    """(job, finish) of one factor point for `_batch`."""
    p.validate()
    k, p = unit_scale(p)
    s = Schedule(p.dt1, p.dt2, p.t_offset)
    echoes = _active_echoes(s)
    pref = 9.0 / (2.0 * math.pi**2 * p.r1 * p.r2)
    channels = []  # (l, W_l, the flat kernel part's term)
    for l, w in sorted(angular_weight(kind, p.theta, p.phi).items()):
        if w == 0.0 or (l >= 1 and p.r == 0.0):
            continue  # j_l(0) = 0 for l >= 1 kills the channel exactly
        flat = _flat_part(l, s)
        if flat != 0.0:
            # at or beyond the support boundary (largest length = sum of the
            # rest) the bracket cancels to an exact zero; that cancellation
            # is benign here, so the relative-accuracy warning is noise
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CancellationWarning)
                bracket = ji4(Ji4Args(0, 1, 1, 0, l, p.r1, p.r2, 0.0, p.r))
            flat = pref * w * flat * bracket
        channels.append((l, w, flat))
    orders = [l for l, _, _ in channels]
    context = f"factor_fourier_numeric({kind.value})"

    def integrand(qv, trig=None):
        # one row per channel; a kind's channels share their echo kernel
        common = (_bessels((1,), qv, p.r1, trig)[0] * _bessels((1,), qv, p.r2, trig)[0]
                  * _echo_kernel(orders[0], qv, s, echoes, trig))
        return common * np.array(_bessels(orders, qv, p.r, trig))

    def finish(rows) -> QuadResult:
        value = error = 0.0
        for _, w, flat in channels:
            value += flat
            if job:
                part, part_error = next(rows)
                value += pref * w * part
                error += abs(pref * w) * part_error
        result = QuadResult(*scale_back(context + ": the value", -4 * k, value, error))
        return _require_converged(result, cfg, context)

    job = None  # no echo: a dead sampling window, all corner lags gated off
    if channels and echoes:
        job = (integrand, p.r1 + p.r2 + p.r + max(tau for _, tau in echoes))
    return job, finish


def factor_fourier_numeric_batch(items, cfg: QuadConfig = QuadConfig()) -> list:
    """`factor_fourier_numeric` of each (kind, point) of items, in one pass;
    raises what the first failing call of a loop of scalar calls raises."""
    return _batch((_factor_point(kind, p, cfg) for kind, p in items), cfg)


def factor_fourier_numeric(
    kind: FactorKind, p: RegionPair, cfg: QuadConfig = QuadConfig()
) -> QuadResult:
    """Geometric factor by direct Fourier-space quadrature.

    Integrates (9 / (2 pi^2 R1 R2)) sum_l W_l * int j1(q R1) j1(q R2)
    echo_l(q) j_l(q R) dq by the half-period scheme and adds the flat
    kernel part through its four-Bessel value, whose non-oscillatory
    1/q^2 tail would otherwise defeat the extrapolation.  The channels
    share one grid.  The quadrature runs at unit scale (`unit_scale`); the
    value and its error bound are scaled back before cfg judges them, in
    the caller's units.  A batch of one.
    """
    return factor_fourier_numeric_batch([(kind, p)], cfg)[0]


def _ji4_point(args: Ji4Args, cfg: QuadConfig) -> tuple:
    """(job, finish) of one four-Bessel integral for `_batch`."""
    if not (math.isfinite(args.n) and args.n >= 0 and args.n == int(args.n)):
        raise ValidationError(f"n must be a non-negative integer, got {args.n}")
    slots = list(zip((args.l1, args.l2, args.l3, args.l4),
                     (args.alpha, args.beta, args.gamma, args.delta)))
    for l, a in slots:
        if l not in (-1, 0, 1, 2):
            raise ValidationError(f"spherical Bessel order {l} not available")
        if not (math.isfinite(a) and a >= 0.0):
            raise ValidationError(f"Bessel arguments must be finite and >= 0, got {a}")
        if a == 0.0 and l == -1:
            raise ValidationError("j_-1 needs a positive argument")
    if any(a == 0.0 and l >= 1 for l, a in slots):
        return None, lambda rows: QuadResult(0.0, 0.0)  # j_l(0) = 0 for l >= 1
    active = [(l, a) for l, a in slots if a != 0.0]  # j_0(0) = 1 drops out
    n = int(args.n)
    if sum(l for l, _ in active) - n <= -1:
        raise ValidationError("integrand is not integrable at the origin")
    if len(active) + n < 1:
        raise ValidationError("integrand does not decay")

    def integrand(xv, trig=None):
        total = np.ones_like(xv)
        for l, a in active:
            total = total * _bessels((l,), xv, a, trig)[0]
        if n:
            total = total / xv**n
        return total

    signature = f"{n};{args.l1},{args.l2},{args.l3},{args.l4}"
    return (integrand, sum(a for _, a in active)), lambda rows: _require_converged(
        QuadResult(*next(rows)), cfg, f"ji4_numeric({signature})")


def ji4_numeric_batch(args, cfg: QuadConfig = QuadConfig()) -> list:
    """`ji4_numeric` of each Ji4Args of args, in one pass; raises what the
    first failing call of a loop of scalar calls raises."""
    return _batch((_ji4_point(a, cfg) for a in args), cfg)


def ji4_numeric(args: Ji4Args, cfg: QuadConfig = QuadConfig()) -> QuadResult:
    """Four-Bessel integral int x^-n prod_i j_li(a_i x) dx by quadrature.

    Any integrable signature is accepted, not only the ones the closed
    forms cover: slots with a zero argument reduce to j_l(0) analytically,
    the rest must leave the integrand finite at the origin and decaying.
    Every slot is checked before a zero argument of order >= 1 makes the
    integral an exact zero.  A batch of one.
    """
    return ji4_numeric_batch([args], cfg)[0]

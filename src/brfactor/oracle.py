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
    FactorKind, Ji4Args, RegionPair, ValidationError, check_channel, check_integer, length_scale,
)
from .special_functions import angular_weight, sph_bessel
from .time_averages import QuadratureError, Schedule, _panel_sums, step_coefficients

__all__ = [
    "QuadConfig",
    "QuadResult",
    "factor_fourier_numeric",
    "ji4_numeric",
    "utilde_direct",
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


def _rounding_floor(panels: np.ndarray) -> float:
    """Rounding error of summing the panel values in order."""
    return float(4e-16 * (np.max(np.abs(np.cumsum(panels))) + np.max(np.abs(panels))))


def _settled(estimates: np.ndarray) -> tuple:
    """Estimate after the smallest move between averaging levels, and that move."""
    moves = np.abs(np.diff(estimates))
    best = int(np.argmin(moves))
    return float(estimates[best + 1]), float(moves[best])


def _averaged_limit(chunks: np.ndarray) -> tuple:
    """Extrapolated tail with an error estimate honest about slow modes.

    Averaging adjacent partial sums multiplies a mode of per-chunk ratio rho
    by (1 + rho)/2 per level, damping every non-DC mode; the level that
    moved least gives the value and the spread.  A barely-damped beat can
    leave that move far below the true error, so the limit is also compared
    with the one from the first m chunks, read off the same averaged rows.
    """
    m = max(chunks.size // 2, 8)
    row = np.cumsum(chunks)
    # Level L holds 2^k times its averaged row, k growing by one a level: a
    # level is one add, the halvings exact while the values stay normal.  The
    # ends are scaled back by exact powers of two, and every `room` levels,
    # before 2^k times the largest partial sum could overflow, the row too.
    room = max(1020 - int(np.frexp(np.max(np.abs(row)))[1]), 1)
    full, half = np.empty(row.size), np.empty(m)
    full[0], half[0] = row[-1], row[m - 1]
    for level in range(1, row.size):
        if level > 1 and (level - 1) % room == 0:
            row = np.ldexp(row, -room)
        row = row[1:] + row[:-1]
        full[level] = row[-1]
        if level < m:
            half[level] = row[m - 1 - level]
    levels = np.arange(chunks.size)
    shift = levels - room * (np.maximum(levels - 1, 0) // room)
    full, half = np.ldexp(full, -shift), np.ldexp(half, -shift[:m])
    (value, move), (half_value, _) = _settled(full), _settled(half)
    return value, float(max(move, abs(value - half_value), _rounding_floor(chunks)))


def _head(f, h: float) -> tuple:
    """Integral of f over (0, 2 * _HEAD_PERIODS * h) and its error estimate,
    from one call of f: the sum over 16-point Gauss-Legendre panels of width
    h/2, and its distance from the sum over panels of width h."""
    n = 2 * _HEAD_PERIODS
    lo = np.concatenate((h * np.arange(n), 0.5 * h * np.arange(2 * n)))
    panels = _panel_sums(f, lo, lo + np.repeat((h, 0.5 * h), (n, 2 * n)))[0]
    value = float(np.sum(panels[n:]))
    return value, abs(value - float(np.sum(panels[:n]))) + _rounding_floor(panels[n:])


def _oscillatory_integral(f, omega: float, cfg: QuadConfig) -> QuadResult:
    """Integral of f over (0, inf), f oscillating no faster than omega.

    f must accept numpy arrays.  The tail is chunked at half the fastest
    period, so that the dominant mode alternates chunk to chunk.
    """
    h = math.pi / omega
    head, head_err = _head(f, h)
    edges = 2 * _HEAD_PERIODS * h + h * np.arange(cfg.tail_periods + 1)
    tail, tail_err = _averaged_limit(_panel_sums(f, edges[:-1], edges[1:])[0])
    return QuadResult(head + tail, head_err + tail_err)


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


def _echo_kernel(l: int, qa: np.ndarray, s: Schedule, echoes: list):
    """Decaying part of the radial kernel, one gated trig term per endpoint
    of `echoes`, the schedule's `_active_echoes`.

    Each term carries its own finite q -> 0 limit (tau j0(q tau), or a
    half-angle sine square over q), so nothing cancels at small q and
    nothing is subtracted at large q.
    """
    norm = s.dt1 * s.dt2
    total = np.zeros_like(qa)
    if l == 1:
        for gate, tau in echoes:
            half = np.sin(0.5 * qa * tau)
            total = total - gate * 2.0 * half * half
        safe = np.where(qa == 0.0, 1.0, qa)
        return np.where(qa == 0.0, 0.0, total / safe) / norm
    for gate, tau in echoes:
        total = total + gate * tau * sph_bessel(0, qa * tau)
    return total / norm


def utilde_direct(kind: FactorKind, l: int, q, s: Schedule):
    """Radial kernel in echo-plus-flat form; algebraically equal to utilde.

    Written independently from step-gated trig terms so the two can be
    compared; broadcasts over q (q >= 0 allowed, the q -> 0 limits are
    built in).
    """
    check_channel(kind, l)
    qa = np.asarray(q, dtype=float)
    if np.any(qa < 0.0) or not np.all(np.isfinite(qa)):
        raise ValidationError("q must be >= 0 and finite")
    value = _echo_kernel(l, qa, s, _active_echoes(s)) + _flat_part(l, s)
    return float(value) if np.ndim(q) == 0 else value


def factor_fourier_numeric(
    kind: FactorKind, p: RegionPair, cfg: QuadConfig = QuadConfig()
) -> QuadResult:
    """Geometric factor by direct Fourier-space quadrature.

    Integrates (9 / (2 pi^2 R1 R2)) sum_l W_l * int j1(q R1) j1(q R2)
    echo_l(q) j_l(q R) dq by the half-period scheme and adds the flat
    kernel part through its four-Bessel value, whose non-oscillatory
    1/q^2 tail would otherwise defeat the extrapolation.
    """
    p.validate()
    s = Schedule(p.dt1, p.dt2, p.t_offset)
    echoes = _active_echoes(s)
    pref = 9.0 / length_scale(2.0 * math.pi**2 * p.r1 * p.r2)
    value = error = 0.0
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
            value += pref * w * flat * bracket
        if not echoes:
            continue  # dead sampling window, all corner lags gated off
        omega = p.r1 + p.r2 + p.r + max(tau for _, tau in echoes)

        def integrand(qv, l=l):
            return (
                sph_bessel(1, qv * p.r1)
                * sph_bessel(1, qv * p.r2)
                * _echo_kernel(l, qv, s, echoes)
                * sph_bessel(l, qv * p.r)
            )

        part = _oscillatory_integral(integrand, omega, cfg)
        value += pref * w * part.value
        error += abs(pref * w) * part.error
    return _require_converged(
        QuadResult(value, error), cfg, f"factor_fourier_numeric({kind.value})"
    )


def ji4_numeric(args: Ji4Args, cfg: QuadConfig = QuadConfig()) -> QuadResult:
    """Four-Bessel integral int x^-n prod_i j_li(a_i x) dx by quadrature.

    Any integrable signature is accepted, not only the ones the closed
    forms cover: slots with a zero argument reduce to j_l(0) analytically,
    the rest must leave the integrand finite at the origin and decaying.
    """
    if args.n < 0 or args.n != int(args.n):
        raise ValidationError(f"n must be a non-negative integer, got {args.n}")
    active = []
    orders = (args.l1, args.l2, args.l3, args.l4)
    for l, a in zip(orders, (args.alpha, args.beta, args.gamma, args.delta)):
        if l not in (-1, 0, 1, 2):
            raise ValidationError(f"spherical Bessel order {l} not available")
        if not (math.isfinite(a) and a >= 0.0):
            raise ValidationError(f"Bessel arguments must be finite and >= 0, got {a}")
        if a == 0.0:
            if l == -1:
                raise ValidationError("j_-1 needs a positive argument")
            if l >= 1:
                return QuadResult(0.0, 0.0)  # j_l(0) = 0 for l >= 1
            continue  # j_0(0) = 1 drops out of the product
        active.append((l, a))
    n = int(args.n)
    if sum(l for l, _ in active) - n <= -1:
        raise ValidationError("integrand is not integrable at the origin")
    if len(active) + n < 1:
        raise ValidationError("integrand does not decay")
    omega = sum(a for _, a in active)

    def integrand(xv):
        total = np.ones_like(xv)
        for l, a in active:
            total = total * sph_bessel(l, xv * a)
        if n:
            total = total / xv**n
        return total

    result = _oscillatory_integral(integrand, omega, cfg)
    signature = f"{n};{args.l1},{args.l2},{args.l3},{args.l4}"
    return _require_converged(result, cfg, f"ji4_numeric({signature})")

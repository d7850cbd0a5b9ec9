"""Closed-form double time averages of retarded-kernel terms over a pair of
sampling intervals, plus the quadrature used to verify them.

All averages run t1 over (0, dt1) and t2 over (T, T+dt2), act on functions
of the lag t = t2 - t1, and are normalized by dt1*dt2.  The four corner lags

    tau1 = T + dt2 - dt1    tau2 = T + dt2    tau3 = T    tau4 = T - dt1

carry the whole schedule dependence.  Every step function goes through
`heaviside` with Theta(0) = 1/2 so that parameters landing exactly on a
kink line get the mean of the two one-sided limits.

The step functions, the schedule and the q-independent averages are written
in plain arithmetic, so they take a schedule of floats or a batch of
schedules held in arrays alike.

The quadrature integrates f against the lag density, the fold of the two
intervals, piecewise linear with kinks at the corner lags.  A batch of
integrals shares each level's calls of f, and a scalar call is a batch of one.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import BOUNDARY_RTOL, ValidationError, _greater, _lesser, check_field, length_scale

#: evaluations of f allowed to each integral of a numeric_time_average_batch call
_EVAL_BUDGET = 1 << 21


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    The best available value is attached as `estimate`.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


def heaviside(x, scale):
    """Unit step with Theta(0) = 1/2, the boundary band being |x| <= 1e-12*scale.

    The band is relative: `scale` is the largest length or time in play
    (`Schedule.scale`), with no absolute floor.  Elementwise on arrays; a
    float in gives a float out.
    """
    band = BOUNDARY_RTOL * scale
    return (x > band) + 0.5 * (abs(x) <= band)


@functools.cache
def _gauss_legendre() -> tuple:
    """16-point Gauss-Legendre nodes and weights on (-1, 1).

    Built on first use, so only the quadrature routes load numpy.polynomial.
    """
    return np.polynomial.legendre.leggauss(16)


class AvgKind(enum.Enum):
    """Trig factor of the analytic double time averages."""

    SIN = "sin"  # <sin(q t) Theta(t)>, radius-gated by Theta(r_ex - t) in finite_avg
    COS = "cos"  # <cos(q t) Theta(t)>, likewise


@dataclass(frozen=True)
class Schedule:
    """Sampling intervals (0, dt1) and (t_offset, t_offset + dt2)."""

    dt1: float
    dt2: float
    t_offset: float = 0.0

    def __post_init__(self):
        for name in ("dt1", "dt2", "t_offset"):
            check_field(name, getattr(self, name))
        # every average is normalized by dt1 * dt2, which the routes' unit
        # scale keeps normal but Schedule(1e-200, 1e-200) does not
        length_scale(self.dt1 * self.dt2)
        # step_coefficients' memo, one entry per r_ex; the fields are frozen,
        # so an entry never goes stale
        object.__setattr__(self, "_step_coefficients", {})

    @property
    def taus(self) -> tuple:
        """Corner lags (tau1, tau2, tau3, tau4)."""
        return (
            self.t_offset + self.dt2 - self.dt1,
            self.t_offset + self.dt2,
            self.t_offset,
            self.t_offset - self.dt1,
        )

    def scale(self, r_ex: float = 0.0) -> float:
        """Magnitude scale used for boundary detection in `heaviside`: the
        largest of dt1, dt2, |t_offset| and r_ex, so the band is relative."""
        return _greater(_greater(self.dt1, self.dt2), _greater(abs(self.t_offset), r_ex))


# alternating signs attached to the corner lags tau1..tau4
_TAU_SIGNS = (1.0, -1.0, 1.0, -1.0)


class StepCoefficients(NamedTuple):
    """Step-gated, q-independent coefficients of a schedule at one radius."""

    d0: float
    dr: float
    dp: float
    const_pair: float
    open_gates: tuple
    radius_gates: tuple


def step_coefficients(s: Schedule, r_ex: float) -> StepCoefficients:
    """Step coefficients of the schedule at radius r_ex, computed once per
    schedule and r_ex.

    Divided by dt1*dt2, d0 is <delta(t)>, the lag density at t = 0 (the
    diagonal overlap); dr is <delta(t - r_ex)>, the lag density at t = r_ex;
    and dp is <delta'(t - r_ex)>, the signed count of interval endpoints the
    line t = r_ex crosses.  const_pair = Theta(tau2)Theta(-tau1) -
    Theta(tau3)Theta(-tau4) is the constant of the cosine averages.  The
    gates are sign_i Theta(tau_i) and sign_i Theta(tau_i) Theta(r_ex - tau_i),
    in tau1..tau4 order.
    """
    memo = s._step_coefficients
    if r_ex not in memo:
        tau1, tau2, tau3, tau4 = taus = s.taus
        sc = s.scale(r_ex)
        # Theta(tau_i) and Theta(r_ex - tau_i) are every step needed:
        # Theta(-x) = 1 - Theta(x) holds exactly, band included
        up = [heaviside(tau, sc) for tau in taus]
        down = [heaviside(r_ex - tau, sc) for tau in taus]
        (u1, u2, u3, u4), (w1, w2, w3, w4) = up, down
        d0 = (1.0 - u4) * u2 * (_lesser(s.dt1, tau2) - _greater(tau3, 0.0))
        dr = w4 * (1.0 - w2) * (_lesser(s.dt1, tau2 - r_ex) - _greater(tau3 - r_ex, 0.0))
        dp = (1.0 - w2) * w1 - (1.0 - w3) * w4
        const_pair = u2 * (1.0 - u1) - u3 * (1.0 - u4)
        open_gates = tuple(sign * u for sign, u in zip(_TAU_SIGNS, up))
        radius_gates = tuple(gate * w for gate, w in zip(open_gates, down))
        memo[r_ex] = StepCoefficients(d0, dr, dp, const_pair, open_gates, radius_gates)
    return memo[r_ex]


def _checked(kind: AvgKind, q) -> np.ndarray:
    """q as an array of floats, once kind is an AvgKind and every entry of q
    lies in (0, inf); a nan fails both tests."""
    if not isinstance(kind, AvgKind):
        raise ValidationError(f"kind must be an AvgKind, got {kind!r}")
    qa = np.asarray(q, dtype=float)
    if qa.size and not (qa.min() > 0.0 and qa.max() < np.inf):
        raise ValidationError("q must be positive and finite for Sin/Cos averages")
    return qa


def open_lags(s: Schedule, gates: tuple, ndim: int) -> tuple:
    """The gates that are not exactly 0 and their corner lags, in tau1..tau4
    order, as columns that broadcast against q of `ndim` dimensions.

    A closed corner's term g trig(q tau) is +-0, and adding +-0 never
    changes a sum started at +0 whose rows are added in order; its q tau may
    overflow, where 0 trig(inf) would be a nan.
    """
    kept = [(g, tau) for g, tau in zip(gates, s.taus) if g != 0.0]
    cols = np.reshape(np.array(kept, dtype=float).T, (2, -1) + (1,) * ndim)
    return cols[0], cols[1]


def _average(kind: AvgKind, qa, st: StepCoefficients, lags: tuple, norm: float, rex_trig=None):
    """Double average of trig(q t) Theta(t) under the signed corner gates of
    `lags` (from `open_lags`), the one body of `finite_avg`, `infinite_avg`
    and the series blocks; q is checked already and norm is dt1*dt2.

    With rex_trig = (sin(q r_ex), cos(q r_ex)) the gates carry the radius
    gate Theta(r_ex - t) and the boundary terms dp and dr of `st` at
    t = r_ex enter; without it, none do.  Broadcasts over q.
    """
    gates, taus = lags
    trig = np.sin if kind is AvgKind.SIN else np.cos
    # Python's sum adds the rows in tau1..tau4 order, starting from +0
    val = sum(gates * trig(taus * qa))
    if rex_trig is None:
        val = val / qa + st.d0 if kind is AvgKind.SIN else (val + st.const_pair) / qa
    else:
        sin_rex, cos_rex = rex_trig
        if kind is AvgKind.SIN:
            val = (val - sin_rex * st.dp) / qa - cos_rex * st.dr + st.d0
        else:
            val = (val - cos_rex * st.dp + st.const_pair) / qa + sin_rex * st.dr
    return val / (qa * norm)


def finite_avg(kind: AvgKind, q, r_ex: float, s: Schedule):
    """Analytic double average of trig(q t) Theta(t) Theta(r_ex - t);
    broadcasts over q, the step-gated blocks being q-independent."""
    if not 0.0 < r_ex < np.inf:
        raise ValidationError(f"finite averages need a finite r_ex > 0, got {r_ex}")
    qa = _checked(kind, q)
    st = step_coefficients(s, r_ex)
    x = qa * r_ex
    lags = open_lags(s, st.radius_gates, qa.ndim)
    val = _average(kind, qa, st, lags, s.dt1 * s.dt2, (np.sin(x), np.cos(x)))
    return float(val) if np.ndim(q) == 0 else val


def infinite_avg(kind: AvgKind, q, s: Schedule):
    """Analytic double average of trig(q t) Theta(t), the radius gate
    removed (r_ex -> infinity)."""
    qa = _checked(kind, q)
    st = step_coefficients(s, 0.0)
    val = _average(kind, qa, st, open_lags(s, st.open_gates, qa.ndim), s.dt1 * s.dt2)
    return float(val) if np.ndim(q) == 0 else val


def _panel_sums(f, lo, hi, *per_panel) -> np.ndarray:
    """16-point Gauss-Legendre sums over the panels (lo_i, hi_i) from one call
    of f, which returns one or more rows of values at the nodes; one row of
    sums per row of f.  f takes the nodes and each array of `per_panel` at
    its panel's nodes.

    einsum reduces each panel on its own, so a panel's sum keeps its bits
    however many panels share the call; a matrix product would not.
    """
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    grid = (lo + half)[:, None] + half[:, None] * nodes
    vals = f(grid.ravel(), *(np.repeat(x, nodes.size) for x in per_panel))
    vals = np.reshape(vals, (-1,) + grid.shape)
    return half * np.einsum("...k,k->...", vals, weights)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """Each row's distinct finite values in ascending order, padded with inf
    to the width of the longest: `np.unique` of every row at once."""
    rows = np.sort(rows, axis=1)
    rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = np.inf
    rows = np.sort(rows, axis=1)
    return rows[:, :np.isfinite(rows).sum(axis=1).max()]


def numeric_time_average_batch(f, schedules, breakpoints, tol: float = 1e-10) -> list:
    """`numeric_time_average` of integral j = f(., j) over schedules[j], cut
    at breakpoints[j], for every j in one quadrature pass.

    f(lags, which) takes an array of lags and, per lag, the index of its
    integral.  Each integral keeps its own budget and doubling choices, so
    its value has the bits of its scalar call; raises what the first failing
    call of a loop of scalar calls raises.
    """
    if not schedules:
        return []
    if len(breakpoints) != len(schedules):
        raise ValueError("one list of breakpoints per schedule")
    dt1, dt2 = np.array([(s.dt1, s.dt2) for s in schedules], dtype=float).T
    width = max(len(b) for b in breakpoints)
    # pieces: the lag window (tau4, tau2) cut at the inner corner lags tau1
    # and tau3 and at the breakpoints inside it
    cuts = np.array([[*s.taus, *b] + [np.inf] * (width - len(b))
                     for s, b in zip(schedules, breakpoints)], dtype=float)
    tau2, tau4 = cuts[:, 1].copy(), cuts[:, 3].copy()  # the lag window
    cuts[(cuts < tau4[:, None]) | (cuts > tau2[:, None])] = np.inf
    cuts = _sorted_rows(cuts)
    pieces = np.isfinite(cuts[:, 1:])
    lo, hi, which = cuts[:, :-1][pieces], cuts[:, 1:][pieces], np.nonzero(pieces)[0]
    # the lag density is min(t - tau4, tau2 - t, dt1, dt2).  Nodes sit at a
    # distance d from their piece's lower edge, and t - tau4 and tau2 - t are
    # that edge's values plus or minus d: the min/max form of the density
    # would cancel, and the validate --seed 0 margin reads 2.2e-16 with it
    rise, fall = lo - tau4[which], tau2[which] - lo
    flat, length = np.minimum(dt1, dt2)[which], hi - lo

    def weighted(d, piece):
        density = np.minimum(np.minimum(rise[piece] + d, fall[piece] - d), flat[piece])
        return f(lo[piece] + d, which[piece]) * density

    # each piece's panel count doubles from 16 until two levels agree within
    # its share of tol, or until its integral's budget would be overspent
    share = tol * (dt1 * dt2 / (tau2 - tau4))[which] * length
    value, error = np.full(lo.size, np.inf), np.full(lo.size, np.inf)
    spent, live, n = np.zeros(len(schedules)), np.arange(lo.size), 16
    while live.size:
        left = np.arange(n) / n  # panel edges as exact fractions of a piece
        edges = (np.outer(length[live], x).ravel() for x in (left, left + 1 / n))
        sums = _panel_sums(weighted, *edges, np.repeat(live, n))[0].reshape(live.size, n)
        total = np.array([math.fsum(row) for row in sums.tolist()])  # rounded once
        error[live], value[live] = abs(total - value[live]), total
        spent += 16 * n * np.bincount(which[live], minlength=len(schedules))
        more = error[live] > share[live]
        dear = spent + 32 * n * np.bincount(which[live], more, len(schedules)) > _EVAL_BUDGET
        live, n = live[more & ~dear[which[live]]], 2 * n
    values, bounds = [], np.cumsum(pieces.sum(axis=1))[:-1]
    for part, errs, norm in zip(np.split(value, bounds), np.split(error, bounds),
                                (dt1 * dt2).tolist()):
        mean, err = math.fsum(part.tolist()) / norm, math.fsum(errs.tolist()) / norm
        if err > tol:
            raise QuadratureError(
                f"lag-density average error estimate {err:.3e} exceeds tol {tol:.3e}", mean)
        values.append(mean)
    return values


def numeric_time_average(f, s: Schedule, tol: float = 1e-10, breakpoints=(0.0,)) -> float:
    """(1/dt1 dt2) * double integral of f(t2 - t1), as a 1-D integral of f
    against the lag density.

    f takes a numpy array of lags.  `breakpoints` lists lag values where f
    has kinks or jumps (pass (0.0, r_ex) for radius-gated integrands); the
    lag window is cut there and at the corner lags.  Each piece's panels
    double from 16 until two levels agree within its share of tol, their
    difference being the error, and a budget of 2**21 evaluations of f per
    call bounds time and memory: QuadratureError, with the best value
    attached, if the error exceeds tol.  A batch of one.

    A jump of f missing from `breakpoints` can go unseen, and the error is
    no bound.  For a unit jump at 1000 seeded lags in (0.05, 0.95) of
    Schedule(1, 1, 0) at tol = 1e-13, 35 were accepted, up to 8.7e-5 off:
    near a panel's edge or midpoint, every node of the panel and of its
    halves lies on one side, and the levels agree.  The other 965 raised,
    their estimates within 1.3e-6, and 171 reported less than their true
    error.
    """
    return numeric_time_average_batch(lambda t, _: f(t), [s], [breakpoints], tol)[0]

"""Exact geometric factors from closed-form moment integrals of four
spherical Bessel functions.

ji4(n; l1,l2,l3,l4; alpha,beta,gamma,delta) denotes the improper integral
over x in (0, inf) of x^(-n) j_l1(alpha x) j_l2(beta x) j_l3(gamma x)
j_l4(delta x).  For the signatures needed here it reduces to finite sums
over sign permutations of the arguments; each factor kind then becomes a
weighted sum of at most ten such integrals with step-gated coefficients
built from the corner lags of the sampling schedule.

Which sum applies depends only on the signature and on which of gamma and
delta vanish: one table, `_ROUTES`, holds a kernel, an exact zero or a
refusal for each case.  The sign permutations are a leading axis of 2, 4 or
8 terms, a factor stacks the gates of all its (l, i) lanes into one grid per
call, and each signature runs once over the open lanes that take it.  A
single factor or integral is a batch of one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    FIELDS,
    FactorKind,
    FactorResult,
    Ji4Args,
    Method,
    RegionPair,
    ValidationError,
    reverse,
)
from .special_functions import angular_weight
from .time_averages import BOUNDARY_RTOL, Schedule, heaviside, step_coefficients

#: a sign sum whose total is below this fraction of its largest term is
#: reported as cancellation-limited
CANCELLATION_RTOL = 1e-8


class UnsupportedSignatureError(ValueError):
    """Requested (n; l1..l4) moment integral has no closed form here."""


class CancellationWarning(RuntimeWarning):
    """A permutation sum lost more than ~8 digits to cancellation."""


def _in_band(x, scale):
    # the zero band of `heaviside`, as a mask
    return abs(x) <= BOUNDARY_RTOL * scale


# sign patterns for the permutation sums, one row per term: the second
# argument alternates every term, the third every two terms, the fourth
# every four terms; four-term sums flip their last argument every two terms.
# Each pattern is kept as one (terms, 1) column per argument.
_SIGNS8 = np.array(
    [(1.0, (-1.0) ** n, (-1.0) ** (n // 2), (-1.0) ** (n // 4)) for n in range(8)]
)
_SIGNS8, _SIGNS4, _SIGNS2 = (
    tuple(_SIGNS8[:k, j : j + 1] for j in range(m)) for k, m in ((8, 4), (4, 3), (2, 2))
)

# Python's float ** int rounds through the C library's pow; np.float_power
# does too, so the terms below round exactly as scalar code would
_pow = np.float_power


def _two_sum(a, b) -> tuple:
    # Knuth's TwoSum: s = fl(a + b) and its exact rounding error
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_sum_total(x: np.ndarray) -> np.ndarray:
    """Sum over the first axis, whose length is a power of two.

    Pairwise TwoSum: every addition's exact rounding error is kept and the
    errors are added back at the end, which matches math.fsum unless the
    sum cancels by some 1e15.
    """
    x, err = _two_sum(x[0::2], x[1::2])
    while len(x) > 1:
        x, e = _two_sum(x[0::2], x[1::2])
        err = err[0::2] + err[1::2] + e
    return x[0] + err[0]


def _sign_sum(signs: tuple, args: tuple, term) -> tuple:
    """(total, cancelled) of term(*signed args) summed over the sign rows."""
    terms = term(*(col * x for col, x in zip(signs, args)))
    total = _two_sum_total(terms)
    # an all-zero sum (peak 0) is exact and fails the strict test
    return total, abs(total) < CANCELLATION_RTOL * abs(terms).max(axis=0)


# Each kernel maps the argument arrays (a, b, c, d) to (values, cancelled).


def _ji4_1100_pair(a, b, c, d):
    # both remaining arguments zero: two-term sum, equals (pi/6) R_< / R_>^2
    def term(an, bn):
        return abs(an + bn) / (an * bn) * (an * an - an * bn + bn * bn)

    total, cancelled = _sign_sum(_SIGNS2, (a, b), term)
    return math.pi / (12.0 * a * b) * total, cancelled


def _ji4_1100_three(a, b, c, d):
    # delta zero: four-term sum with a signed-square kernel
    def term(an, bn, cn):
        s = an + bn + cn
        return (
            s
            * abs(s)
            / (an * bn * cn)
            * (3.0 * _pow(an - bn, 2) + 2.0 * (an + bn) * cn - cn * cn)
        )

    total, cancelled = _sign_sum(_SIGNS4, (a, b, c), term)
    return math.pi / (192.0 * a * b) * total, cancelled


def _ji4_1100_three_swapped(a, b, c, d):
    # gamma zero: j0 is symmetric in its two slots, so swap delta into gamma
    return _ji4_1100_three(a, b, d, c)


def _ji4_1100_full(a, b, c, d):
    def term(an, bn, cn, dn):
        s = an + bn + cn + dn
        return (
            _pow(abs(s), 3)
            / (an * bn * cn * dn)
            * (4.0 * an * an + (4.0 * bn - cn - dn) * (-3.0 * an + bn + cn + dn))
        )

    total, cancelled = _sign_sum(_SIGNS8, (a, b, c, d), term)
    return math.pi / (1920.0 * a * b) * total, cancelled


def _ji4_1102_quad(a, b, c, d):
    # gamma zero; delta flips sign every two terms here
    def term(an, bn, dn):
        s = an + bn + dn
        return (
            s
            * abs(s)
            / (an * bn * dn)
            * _pow(an + bn - dn, 2)
            * (an * an - 4.0 * an * bn + bn * bn - dn * dn)
        )

    total, cancelled = _sign_sum(_SIGNS4, (a, b, d), term)
    return -math.pi / (384.0 * a * b * d * d) * total, cancelled


def _ji4_1102_full(a, b, c, d):
    def term(an, bn, cn, dn):
        s = an + bn + cn + dn
        abc = an + bn + cn
        poly = (
            abc
            * (abc - 3.0 * dn)
            * (6.0 * an * an + (6.0 * bn - cn) * (-5.0 * an + bn + cn))
            + (
                8.0 * (an * an - 12.0 * an * bn + bn * bn)
                + 9.0 * (an + bn) * cn
                + cn * cn
            )
            * _pow(dn, 2)
            + (24.0 * (an + bn) - 11.0 * cn) * _pow(dn, 3)
            - 8.0 * _pow(dn, 4)
        )
        return _pow(abs(s), 3) / (an * bn * cn * dn) * poly

    total, cancelled = _sign_sum(_SIGNS8, (a, b, c, d), term)
    return -math.pi / (26880.0 * a * b * d * d) * total, cancelled


def _ji4_11m11_full(a, b, c, d):
    # the third (cosine-kernel) argument drops out of the denominators
    def term(an, bn, cn, dn):
        s = an + bn + cn + dn
        poly = (
            5.0 * _pow(an, 3)
            - 3.0 * an * an * (5.0 * bn - 3.0 * cn + 5.0 * dn)
            + (-3.0 * an + bn + cn + dn)
            * (5.0 * bn * bn + (cn - 5.0 * dn) * (4.0 * bn - cn - dn))
        )
        return _pow(abs(s), 3) / (an * bn * dn) * poly

    total, cancelled = _sign_sum(_SIGNS8, (a, b, c, d), term)
    return -math.pi / (11520.0 * a * b * c * d) * total, cancelled


def _ji4_n1_1101_quad(a, b, c, d):
    def term(an, bn, dn):
        s = an + bn + dn
        poly = (
            _pow(an, 3)
            - 3.0 * an * (bn * bn - 4.0 * bn * dn + dn * dn)
            + (bn + dn) * (-3.0 * an * an + bn * bn - 4.0 * bn * dn + dn * dn)
        )
        return _pow(abs(s), 3) / (an * bn * dn) * poly

    total, cancelled = _sign_sum(_SIGNS4, (a, b, d), term)
    return -math.pi / (1152.0 * a * b * d) * total, cancelled


_GAMMA_POSITIVE = (
    "ji4(0;1,1,-1,1) needs gamma > 0; the gamma = 0 case uses signature (1;1,1,0,1) instead"
)
_GAMMA_ZERO = "ji4(1;1,1,0,1) is only available with gamma = 0"

#: The formula of each supported signature (n, l1, l2, l3, l4) by zero-band
#: code (0 neither of gamma and delta zero, 1 gamma zero, 2 delta zero, 3
#: both): a kernel, None for an exact zero, or a refusal's message.  Row l
#: serves multipole l's lanes, row 3 dipole lanes whose lag is in the band.
_ROUTES = {
    (0, 1, 1, 0, 0): (_ji4_1100_full, _ji4_1100_three_swapped, _ji4_1100_three, _ji4_1100_pair),
    (0, 1, 1, -1, 1): (_ji4_11m11_full, _GAMMA_POSITIVE, None, None),
    (0, 1, 1, 0, 2): (_ji4_1102_full, _ji4_1102_quad, None, None),
    (1, 1, 1, 0, 1): (_GAMMA_ZERO, _ji4_n1_1101_quad, _GAMMA_ZERO, None),
}


def _ji4_batch(sig: tuple, a, b, c, d) -> tuple:
    """(values, cancelled) of one signature's ji4 over equal-length arrays.

    Zero detection of gamma and delta uses the band of `heaviside` with
    scale = max(alpha, beta, |gamma|, |delta|, 1).  Each entry takes the
    `_ROUTES` cell of its zero-band code, so boundary parameter sets (corner
    lags landing on zero, from either side) evaluate without indeterminate
    forms.  Each formula runs only on the entries that select it.
    """
    if sig not in _ROUTES:
        raise UnsupportedSignatureError(f"no closed form for signature {sig}")
    scale = np.maximum(np.maximum(a, b), np.maximum(np.maximum(abs(c), abs(d)), 1.0))
    code = _in_band(c, scale) + 2 * _in_band(d, scale)
    counts = np.bincount(code, minlength=4).tolist()
    value = np.zeros_like(a)
    cancelled = np.zeros(a.shape, dtype=bool)
    for k, route in enumerate(_ROUTES[sig]):
        if not counts[k] or route is None:  # j_l(0) = 0 for a trailing l > 0
            continue
        if isinstance(route, str):
            raise UnsupportedSignatureError(route)
        if counts[k] == len(a):  # every entry takes this formula
            return route(a, b, c, d)
        mask = code == k
        value[mask], cancelled[mask] = route(a[mask], b[mask], c[mask], d[mask])
    return value, cancelled


def ji4(args: Ji4Args) -> float:
    """Closed-form moment integral for the supported signatures.

    A batch of one of the array evaluation.  Arguments must be finite and
    nonnegative, except that gamma and delta inside the zero band count as
    zero whatever their sign; alpha and beta must be positive.
    """
    a, b, c, d = args.alpha, args.beta, args.gamma, args.delta
    scale = max(a, b, abs(c), abs(d), 1.0)
    for name, v in (("alpha", a), ("beta", b), ("gamma", c), ("delta", d)):
        if not math.isfinite(v) or (v < 0.0 and not _in_band(v, scale)):
            raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
    if a == 0.0 or b == 0.0:
        raise ValidationError("alpha and beta must be positive")
    sig = (args.n, args.l1, args.l2, args.l3, args.l4)
    value, cancelled = _ji4_batch(sig, *(np.array([v]) for v in (a, b, c, d)))
    if not np.isfinite(value[0]):
        raise ValidationError(f"ji4{sig} at {args} lies beyond the float range")
    if cancelled[0]:
        warnings.warn(
            f"ji4{sig}: permutation sum lost more than 8 digits to cancellation",
            CancellationWarning,
            stacklevel=2,
        )
    return float(value[0])


def _g_coefficients(s: Schedule, l: int, zeros: np.ndarray) -> tuple:
    """Step-gated coefficients (g_0^(l), ..., g_4^(l)) of the closed-form sum.

    g_0 is a step coefficient at lag 0: -<delta(t)>/2 for l = 0, the
    endpoint-crossing count <delta'(t)> for l = 1, and the lag-0 overlap
    <delta(t)> for l = 2.  For i >= 1 the coefficient is (-1)^(i+1)
    Theta(tau_i) tau_i, augmented for l = 1 by 1 where `zeros[i]` puts tau_i
    in the zero band.
    """
    norm = s.dt1 * s.dt2
    st = step_coefficients(s, 0.0)
    lags = [tau + z for tau, z in zip(s.taus, zeros[1:])] if l == 1 else s.taus
    g0 = (-0.5 * st.d0, st.dp, st.d0)[l] / norm
    return (g0,) + tuple(gate * lag / norm for gate, lag in zip(st.open_gates, lags))


@dataclass(frozen=True)
class ClosedBatch:
    """Closed-form factors of a batch of points, one array entry per point.

    `cancelled` marks the points where a ji4 permutation sum lost more than
    8 digits; their values are converged by contract but may be inexact.
    """

    value: np.ndarray
    terms_used: np.ndarray
    cancelled: np.ndarray


def factor_closed_batch(kind: FactorKind, p: RegionPair) -> ClosedBatch:
    """Geometric factors of many points of one kind in one vectorised pass.

    The fields of `p` are equal-length arrays (floats broadcast).  The
    gates of all (l, i) lanes form one grid; each open lane picks its ji4
    signature there, each signature runs once over the lanes that picked
    it, and one CancellationWarning names how many points lost digits.
    """
    p.validate()
    r1, r2, r, theta, phi, dt1, dt2, t = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(getattr(p, name), dtype=float)) for name in FIELDS)
    )
    n = len(r1)
    s = Schedule(dt1, dt2, t)
    taus = np.array((np.zeros(n),) + s.taus)
    # A lag is zero where it lies in the band of the times, where its gate
    # reads Theta(0) = 1/2, or in the band of the radii, where ji4 cannot
    # tell gamma from zero.  That one decision routes ji4 and augments the
    # l = 1 lags, so a lag gated as zero is never summed as a tiny gamma.
    scale = np.maximum(s.scale(0.0), np.maximum(np.maximum(r1, r2), r))
    zeros = _in_band(taus, scale)
    gammas = np.where(zeros, 0.0, taus)
    weights = sorted(angular_weight(kind, theta, phi).items())
    ls = np.array([l for l, _ in weights])[:, None, None]
    # gates[k, i] is lane (l, i) of the k-th multipole l, coeff[k, i] its
    # weighted gate
    gates = np.array([_g_coefficients(s, l, zeros) for l, _ in weights])
    coeff = np.array([np.broadcast_to(w, n) for _, w in weights])[:, None] * gates
    # each open lane's row of `_ROUTES`: l, or 3 for a dipole lag in the band
    routes = np.where(gates != 0.0, ls + 2 * ((ls == 1) & zeros), -1)
    # pieces[k, i] holds lane (l, i); eight rows per multipole keep the
    # summation tree free of padding
    pieces = np.zeros((len(weights), 8, n))
    flagged = np.zeros(gates.shape, dtype=bool)
    for j, sig in enumerate(_ROUTES):
        sel = routes == j
        if sel.any():
            args = (np.broadcast_to(x, gates.shape)[sel] for x in (r1, r2, gammas, r))
            value, flagged[sel] = _ji4_batch(sig, *args)
            pieces[:, :5][sel] = coeff[sel] * value
    total = 9.0 / (2.0 * math.pi**2 * r1 * r2) * _two_sum_total(pieces.reshape(-1, n))
    if not np.isfinite(total).all():
        raise ValidationError(f"{kind.value}: a factor of the batch lies beyond the float range")
    cancelled = flagged.any(axis=(0, 1))
    count = int(cancelled.sum())
    if count:
        warnings.warn(
            f"{kind.value}: a ji4 permutation sum lost more than 8 digits to "
            f"cancellation at {count} of {n} points",
            CancellationWarning,
            stacklevel=2,
        )
    return ClosedBatch(total, np.count_nonzero(gates, axis=(0, 1)), cancelled)


def factor_closed(kind: FactorKind, p: RegionPair) -> FactorResult:
    """Geometric factor by the exact route: a finite sum of ji4 integrals."""
    batch = factor_closed_batch(kind, p)
    return FactorResult(
        value=float(batch.value[0]),
        terms_used=int(batch.terms_used[0]),
        tail_estimate=0.0,
        method=Method.CLOSED_FORM,
        converged=True,
    )


def coincident_axx(R0: float, dt0: float) -> float:
    """A_xx for two identical concentric regions with identical intervals.

    With kappa = dt0/R0 the value is
    -(1/(8 R0^4 kappa)) (4+kappa)(2-kappa)^2 Theta(2-kappa) - 1/(R0^4 kappa),
    reducing to -1/(R0^4 kappa) once kappa >= 2.
    """
    if not (0.0 < R0 < math.inf and 0.0 < dt0 < math.inf):
        raise ValidationError("R0 and dt0 must be finite and positive")
    kappa = dt0 / R0
    gate = heaviside(2.0 - kappa, max(kappa, 1.0))
    try:
        r4 = R0**4
        value = -1.0 / (r4 * kappa)
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"A_xx at R0={R0!r}, dt0={dt0!r} lies beyond the float range")
    if gate:
        value = -(1.0 / (8.0 * r4 * kappa)) * (4.0 + kappa) * (2.0 - kappa) ** 2 * gate + value
    return value


def commutator_difference(kind: FactorKind, p: RegionPair) -> float:
    """Difference of the factor and its order-swapped partner.

    This is the geometric bracket of the two sampling orders; multiply by
    i*hbar (not done here) to get a physical commutator of averaged fields.
    """
    return factor_closed(kind, p).value - factor_closed(kind, reverse(p)).value

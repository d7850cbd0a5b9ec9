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
call, and each kernel runs once over the open lanes that take it.  A single
factor or integral is a batch of one.
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
    _two_sum,
    reverse,
    scale_back,
    unit_scale,
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


def _signed(signs: tuple, *args) -> tuple:
    """The arguments with one sign pattern applied, one row per term."""
    return (col * x for col, x in zip(signs, args))


def _sign_total(terms: np.ndarray) -> tuple:
    """(total, cancelled) of the terms summed over their sign rows."""
    total = _two_sum_total(terms)
    # an all-zero sum (peak 0) is exact and fails the strict test
    return total, abs(total) < CANCELLATION_RTOL * abs(terms).max(axis=0)


# Each kernel maps the argument arrays (a, b, c, d) to (terms, prefactor):
# one row of terms per sign pattern, and the factor of their sum.


def _ji4_1100_pair(a, b, c, d):
    # both remaining arguments zero: two-term sum, equals (pi/6) R_< / R_>^2
    an, bn = _signed(_SIGNS2, a, b)
    ab = an * bn
    return abs(an + bn) / ab * (an * an - ab + bn * bn), math.pi / (12.0 * a * b)


def _ji4_1100_three(a, b, c, d):
    # delta zero: four-term sum with a signed-square kernel
    an, bn, cn = _signed(_SIGNS4, a, b, c)
    s = an + bn + cn
    poly = 3.0 * _pow(an - bn, 2) + 2.0 * (an + bn) * cn - cn * cn
    return s * abs(s) / (an * bn * cn) * poly, math.pi / (192.0 * a * b)


def _ji4_1100_three_swapped(a, b, c, d):
    # gamma zero: j0 is symmetric in its two slots, so swap delta into gamma
    return _ji4_1100_three(a, b, d, c)


def _ji4_1100_full(a, b, c, d):
    an, bn, cn, dn = _signed(_SIGNS8, a, b, c, d)
    s = an + bn + cn + dn
    poly = 4.0 * an * an + (4.0 * bn - cn - dn) * (-3.0 * an + bn + cn + dn)
    return _pow(abs(s), 3) / (an * bn * cn * dn) * poly, math.pi / (1920.0 * a * b)


def _ji4_1102_quad(a, b, c, d):
    # gamma zero; delta flips sign every two terms here
    an, bn, dn = _signed(_SIGNS4, a, b, d)
    ab = an + bn
    s = ab + dn
    poly = an * an - 4.0 * an * bn + bn * bn - dn * dn
    terms = s * abs(s) / (an * bn * dn) * _pow(ab - dn, 2) * poly
    return terms, -math.pi / (384.0 * a * b * d * d)


def _ji4_1102_full(a, b, c, d):
    an, bn, cn, dn = _signed(_SIGNS8, a, b, c, d)
    ab = an + bn
    abc = ab + cn
    s = abc + dn
    poly = (
        abc * (abc - 3.0 * dn) * (6.0 * an * an + (6.0 * bn - cn) * (-5.0 * an + bn + cn))
        + (8.0 * (an * an - 12.0 * an * bn + bn * bn) + 9.0 * ab * cn + cn * cn) * _pow(dn, 2)
        + (24.0 * ab - 11.0 * cn) * _pow(dn, 3)
        - 8.0 * _pow(dn, 4)
    )
    terms = _pow(abs(s), 3) / (an * bn * cn * dn) * poly
    return terms, -math.pi / (26880.0 * a * b * d * d)


def _ji4_11m11_full(a, b, c, d):
    # the third (cosine-kernel) argument drops out of the denominators
    an, bn, cn, dn = _signed(_SIGNS8, a, b, c, d)
    s = an + bn + cn + dn
    d5 = 5.0 * dn
    poly = (
        5.0 * _pow(an, 3)
        - 3.0 * an * an * (5.0 * bn - 3.0 * cn + d5)
        + (-3.0 * an + bn + cn + dn) * (5.0 * bn * bn + (cn - d5) * (4.0 * bn - cn - dn))
    )
    return _pow(abs(s), 3) / (an * bn * dn) * poly, -math.pi / (11520.0 * a * b * c * d)


def _ji4_n1_1101_quad(a, b, c, d):
    an, bn, dn = _signed(_SIGNS4, a, b, d)
    s = an + bn + dn
    bb, bd, dd = bn * bn, 4.0 * bn * dn, dn * dn
    poly = _pow(an, 3) - 3.0 * an * (bb - bd + dd) + (bn + dn) * (-3.0 * an * an + bb - bd + dd)
    return _pow(abs(s), 3) / (an * bn * dn) * poly, -math.pi / (1152.0 * a * b * d)


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

# the cells of `_ROUTES` in one run: cell 4 * row + zero-band code
_CELLS = tuple(cell for row in _ROUTES.values() for cell in row)
_ROW = {sig: row for row, sig in enumerate(_ROUTES)}


def _cells(row, a, b, c, d):
    """The `_ROUTES` cell, 4 * row + zero-band code, of each ji4 lane.

    Zero detection of gamma and delta uses the band of `heaviside` with
    scale = max(alpha, beta, |gamma|, |delta|, 1), so boundary parameter
    sets (corner lags landing on zero, from either side) evaluate without
    indeterminate forms.  A factor's lanes come from its point at unit scale
    (`unit_scale`), where the floor 1 stands in for the point's own scale;
    a lane of `_ji4_batch` is at unit scale itself, where the floor is inert.
    """
    scale = np.maximum(np.maximum(a, b), np.maximum(np.maximum(abs(c), abs(d)), 1.0))
    return 4 * row + _in_band(c, scale) + 2 * _in_band(d, scale)


def _evaluate(cells, a, b, c, d) -> tuple:
    """(values, cancelled) of ji4 lanes, lane j taking `_ROUTES` cell
    cells[j]; each kernel runs once over its lanes."""
    counts = np.bincount(np.ravel(cells), minlength=len(_CELLS)).tolist()
    for count, cell in zip(counts, _CELLS):
        if count and isinstance(cell, str):
            raise UnsupportedSignatureError(cell)
    size = np.size(a)
    if size and size in counts and _CELLS[counts.index(size)] is not None:  # one kernel takes all
        terms, prefactor = _CELLS[counts.index(size)](a, b, c, d)
        total, cancelled = _sign_total(terms)
        return prefactor * total, cancelled
    # sorted by cell, the lanes of each kernel are one run of `order`
    order = np.argsort(np.ravel(cells).astype(np.uint8), kind="stable")  # a radix sort
    value, cancelled = np.zeros(size), np.zeros(size, dtype=bool)
    stop = 0
    for count, cell in zip(counts, _CELLS):
        start, stop = stop, stop + count
        if count and cell is not None:  # j_l(0) = 0 for a trailing l > 0
            run = order[start:stop]
            terms, prefactor = cell(*(np.ravel(x)[run] for x in (a, b, c, d)))
            total, cancelled[run] = _sign_total(terms)
            value[run] = prefactor * total
    return value, cancelled


def _ji4_batch(sig: tuple, a, b, c, d) -> tuple:
    """(values, cancelled) of one signature's ji4 over equal-length arrays,
    or over floats as one lane whose value is a float.

    Each lane runs at unit scale: its arguments are divided by the 2**k that
    puts the largest in [1, 2), and its value, homogeneous of degree n - 1,
    is scaled back by 2**((n - 1) k).  It takes the `_ROUTES` cell of its
    zero-band code (`_cells`); each formula runs only on the lanes it serves.
    """
    if sig not in _ROUTES:
        raise UnsupportedSignatureError(f"no closed form for signature {sig}")
    lanes = isinstance(a, np.ndarray)
    if lanes:
        args = np.array((a, b, c, d))
        k = np.frexp(abs(args).max(axis=0))[1] - 1
        a, b, c, d = np.ldexp(args, -k)
    else:  # a lane of floats scales in floats, where numpy costs more than the lane
        k = math.frexp(max(a, b, abs(c), abs(d)))[1] - 1
        a, b, c, d = (np.float64(math.ldexp(v, -k)) for v in (a, b, c, d))
    value, cancelled = _evaluate(_cells(_ROW[sig], a, b, c, d), a, b, c, d)
    (value,) = scale_back(f"ji4{sig}: the value", (sig[0] - 1) * k, value if lanes else value[0])
    return value, cancelled


def ji4(args: Ji4Args) -> float:
    """Closed-form moment integral for the supported signatures.

    A batch of one of the array evaluation.  Arguments must be finite and
    nonnegative, except that gamma and delta inside the zero band count as
    zero whatever their sign; alpha and beta must be positive.  The band is
    relative to the largest argument, as it is at unit scale (`_ji4_batch`).
    """
    a, b, c, d = args.alpha, args.beta, args.gamma, args.delta
    scale = max(a, b, abs(c), abs(d))
    for name, v in (("alpha", a), ("beta", b), ("gamma", c), ("delta", d)):
        if not math.isfinite(v) or (v < 0.0 and not _in_band(v, scale)):
            raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
    if a == 0.0 or b == 0.0:
        raise ValidationError("alpha and beta must be positive")
    sig = (args.n, args.l1, args.l2, args.l3, args.l4)
    value, cancelled = _ji4_batch(sig, a, b, c, d)
    if cancelled[0]:
        warnings.warn(
            f"ji4{sig}: permutation sum lost more than 8 digits to cancellation",
            CancellationWarning,
            stacklevel=2,
        )
    return value


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
    gates of all (l, i) lanes form one grid; each open lane picks its
    `_ROUTES` cell there, each kernel runs once over the lanes that picked
    it, and one CancellationWarning names how many points lost digits.
    """
    p.validate()
    fields = [getattr(p, name) for name in FIELDS]
    batch = any(isinstance(v, np.ndarray) for v in fields)
    if batch:
        fields = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=float)) for v in fields))
        p = RegionPair(*fields)
    # each point is evaluated at unit scale, with its own power of two; a
    # single point stays in floats, so that step_coefficients steps scalars,
    # and its lanes form one column
    shift, unit = unit_scale(p)
    r1, r2, r, theta, phi, dt1, dt2, t = (getattr(unit, name) for name in FIELDS)
    n = len(r1) if batch else 1
    s = Schedule(dt1, dt2, t)
    st = step_coefficients(s, 0.0)
    # lane i of a point has lag 0 for i = 0 and lag tau_i after it
    lags = np.zeros((5, n))
    lags[1:] = np.array(s.taus).reshape(4, -1)
    # A lag is zero where it lies in the band of the times, where its gate
    # reads Theta(0) = 1/2, or in the band of the radii, where ji4 cannot
    # tell gamma from zero.  That one decision routes ji4 and augments the
    # l = 1 lags, so a lag gated as zero is never summed as a tiny gamma.
    point = np.array((r1, r2, r)).reshape(3, -1)
    zeros = _in_band(lags, np.maximum(s.scale(0.0), point.max(axis=0)))
    gammas = np.where(zeros, 0.0, lags)
    weights = sorted(angular_weight(kind, theta, phi).items())
    ls = np.array([l for l, _ in weights])[:, None, None]
    # gates[k, i] is lane (l, i) of the k-th multipole l, coeff[k, i] its
    # weighted gate.  Lane 0 holds the lag-0 step coefficient g_0^(l): -D0/2
    # for l = 0, the endpoint-crossing count for l = 1 and the overlap D0
    # for l = 2.  Lane i >= 1 holds (-1)^(i+1) Theta(tau_i) tau_i, its lag
    # augmented for l = 1 by 1 where the lag is zero.
    gates = np.empty((len(weights), 5, n))
    open_gates = np.array(st.open_gates).reshape(4, -1)
    for k, (l, _) in enumerate(weights):
        gates[k, 0] = (-0.5 * st.d0, st.dp, st.d0)[l]
        gates[k, 1:] = open_gates * (lags[1:] + zeros[1:] if l == 1 else lags[1:])
    gates /= dt1 * dt2
    coeff = np.array([w * g for (_, w), g in zip(weights, gates)])
    # each lane's `_ROUTES` row is its l, or 3 for a dipole lag in the band
    rows = ls + 2 * ((ls == 1) & zeros)
    opened = gates != 0.0
    # open lanes: flat indices into the grid and into one multipole's (i, point)
    live = np.flatnonzero(opened)
    lane = live % (5 * n)
    a, b, d = np.take(point, lane % n, axis=1)
    c = gammas.ravel()[lane]
    values, flags = np.zeros(gates.size), np.zeros(gates.size, dtype=bool)
    values[live], flags[live] = _evaluate(_cells(rows.ravel()[live], a, b, c, d), a, b, c, d)
    # pieces[k, i] holds lane (l, i); eight rows per multipole keep the
    # summation tree free of padding
    pieces = np.zeros((len(weights), 8, n))
    pieces[:, :5] = coeff * values.reshape(gates.shape)
    total = 9.0 / (2.0 * math.pi**2 * r1 * r2) * _two_sum_total(pieces.reshape(-1, n))
    (total,) = scale_back(
        f"{kind.value}: a factor of the batch", -4 * shift, total if batch else float(total[0]))
    cancelled = flags.reshape(-1, n).any(axis=0)
    count = np.count_nonzero(cancelled)
    if count:
        warnings.warn(
            f"{kind.value}: a ji4 permutation sum lost more than 8 digits to "
            f"cancellation at {count} of {n} points",
            CancellationWarning,
            stacklevel=2,
        )
    return ClosedBatch(np.atleast_1d(total), opened.reshape(-1, n).sum(axis=0), cancelled)


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
    # kappa = inf lies far past the gate's edge, where the band would be inf
    gate = heaviside(2.0 - kappa, max(kappa, 1.0)) if kappa < math.inf else 0.0
    gated = 0.125 * (4.0 + kappa) * (2.0 - kappa) ** 2 * gate if gate else 0.0
    # both terms scale as 1/(R0**4 kappa) = 1/(R0**3 dt0), taken apart into
    # mantissas and powers of two so that only the value is rounded into the
    # float range, under the routes' rule
    (m_r, e_r), (m_t, e_t) = math.frexp(R0), math.frexp(dt0)
    what = f"A_xx at R0={R0!r}, dt0={dt0!r}"
    return scale_back(what, -3 * e_r - e_t, -(1.0 + gated) / (m_r**3 * m_t))[0]


def commutator_difference(kind: FactorKind, p: RegionPair) -> float:
    """Difference of the factor and its order-swapped partner.

    This is the geometric bracket of the two sampling orders; multiply by
    i*hbar (not done here) to get a physical commutator of averaged fields.
    """
    return factor_closed(kind, p).value - factor_closed(kind, reverse(p)).value

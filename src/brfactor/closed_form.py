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
refusal for each case.  The sign permutations are broadcast axes, one per
argument whose sign they flip; a factor stacks the gates of all its (l, i)
lanes into one grid per call, and each kernel runs over the open lanes that
take it, at most LANES at a time.  A single factor or integral is a batch of
one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (
    BOUNDARY_RTOL,
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
from .time_averages import Schedule, heaviside, step_coefficients

#: a sign sum whose total is below this fraction of its largest term is
#: reported as cancellation-limited
CANCELLATION_RTOL = 1e-8

#: a kernel runs over at most LANES lanes at a time, so that the temporaries
#: of its permutation sums, 8 x LANES floats each, stay in cache
LANES = 2048

#: a run of fewer lanes than SHORT costs about what numpy's calls cost, and a
#: call whose operands differ in shape costs more than one whose shapes
#: agree: such a run spreads its lanes over its sign axes first, so that
#: every operation of its kernel sees one shape.  On a 2-vCPU host the
#: eight-term kernels run 5-20% faster spread up to 16 lanes and slower from
#: 64, and a scalar factor_closed, whose runs are a few lanes, 5-7% faster.
SHORT = 32


class UnsupportedSignatureError(ValueError):
    """Requested (n; l1..l4) moment integral has no closed form here."""


class CancellationWarning(RuntimeWarning):
    """A permutation sum lost more than ~8 digits to cancellation."""


def _in_band(x, scale):
    # the zero band of `heaviside`, as a mask
    return abs(x) <= BOUNDARY_RTOL * scale


# The sign patterns of the permutation sums are broadcast axes.  Term
# n = 4 i + 2 j + k of an eight-term sum gives the second argument the sign
# (-1)^k, the third (-1)^j and the fourth (-1)^i; a four-term sum's last
# argument takes (-1)^j.  _SIGNm flips along the m-th axis before the lanes,
# and the second argument's sign leads: the terms summed first, n and n + 1,
# are then the two contiguous halves of the terms, and each subexpression
# has the shape of the signs it depends on.
_SIGN1, _SIGN2, _SIGN3 = (np.array([1.0, -1.0]).reshape((2,) + (1,) * m) for m in (1, 2, 3))

# Python's float ** int rounds through the C library's pow; np.float_power
# does too, so the terms below round exactly as scalar code would.  That pow
# is odd or even in its base for an integer power, so pow(-x, k) is taken as
# +-pow(x, k), once per lane.
_pow = np.float_power


def _two_sum_total(x: np.ndarray) -> np.ndarray:
    """Sum over the first axis, whose length is a power of two.

    Pairwise TwoSum: every addition's exact rounding error is kept and the
    errors are added back at the end, which matches math.fsum unless the
    sum cancels by some 1e15.  Each level adds the second half of the rows
    to the first, row by row, so the rows pair in the bit-reversed order of
    their index.
    """
    half = len(x) // 2
    x, err = _two_sum(x[:half], x[half:])
    while half > 1:
        half //= 2
        x, e = _two_sum(x[:half], x[half:])
        err = err[:half] + err[half:] + e
    return x[0] + err[0]


def _sign_total(terms: np.ndarray) -> tuple:
    """(total, cancelled) of the terms summed over their sign axes."""
    terms = terms.reshape(-1, terms.shape[-1])
    total = _two_sum_total(terms)
    # an all-zero sum (peak 0) is exact and fails the strict test
    return total, abs(total) < CANCELLATION_RTOL * abs(terms).max(axis=0)


# Each kernel maps the argument arrays (a, b, c, d) to (terms, prefactor):
# the terms over the sign axes of its pattern, and the factor of their sum.


def _ji4_1100_pair(a, b, c, d):
    # both remaining arguments zero: two-term sum, equals (pi/6) R_< / R_>^2
    bn = _SIGN1 * b
    ab = a * bn
    return abs(a + bn) / ab * (a * a - ab + b * b), math.pi / (12.0 * a * b)


def _ji4_1100_three(a, b, c, d):
    # delta zero: four-term sum with a signed-square kernel
    bn, cn = _SIGN2 * b, _SIGN1 * c
    s = a + bn + cn
    poly = 3.0 * _pow(a - bn, 2) + 2.0 * (a + bn) * cn - c * c
    return s * abs(s) / (a * bn * cn) * poly, math.pi / (192.0 * a * b)


def _ji4_1100_three_swapped(a, b, c, d):
    # gamma zero: j0 is symmetric in its two slots, so swap delta into gamma
    return _ji4_1100_three(a, b, d, c)


def _ji4_1100_full(a, b, c, d):
    bn, cn, dn = _SIGN3 * b, _SIGN2 * c, _SIGN1 * d
    s = a + bn + cn + dn
    poly = 4.0 * a * a + (4.0 * bn - cn - dn) * (-3.0 * a + bn + cn + dn)
    return _pow(abs(s), 3) / (a * bn * cn * dn) * poly, math.pi / (1920.0 * a * b)


def _ji4_1102_quad(a, b, c, d):
    # gamma zero; delta flips sign every two terms here
    bn, dn = _SIGN2 * b, _SIGN1 * d
    ab = a + bn
    s = ab + dn
    poly = a * a - 4.0 * a * bn + b * b - d * d
    terms = s * abs(s) / (a * bn * dn) * _pow(ab - dn, 2) * poly
    return terms, -math.pi / (384.0 * a * b * d * d)


def _ji4_1102_full(a, b, c, d):
    bn, cn, dn = _SIGN3 * b, _SIGN2 * c, _SIGN1 * d
    ab = a + bn
    abc = ab + cn
    s = abc + dn
    poly = (
        abc * (abc - 3.0 * dn) * (6.0 * a * a + (6.0 * bn - cn) * (-5.0 * a + bn + cn))
        + (8.0 * (a * a - 12.0 * a * bn + b * b) + 9.0 * ab * cn + c * c) * _pow(d, 2)
        + (24.0 * ab - 11.0 * cn) * (_SIGN1 * _pow(d, 3))
        - 8.0 * _pow(d, 4)
    )
    terms = _pow(abs(s), 3) / (a * bn * cn * dn) * poly
    return terms, -math.pi / (26880.0 * a * b * d * d)


def _ji4_11m11_full(a, b, c, d):
    # the third (cosine-kernel) argument drops out of the denominators
    bn, cn, dn = _SIGN3 * b, _SIGN2 * c, _SIGN1 * d
    s = a + bn + cn + dn
    d5 = 5.0 * dn
    poly = (
        5.0 * _pow(a, 3)
        - 3.0 * a * a * (5.0 * bn - 3.0 * cn + d5)
        + (-3.0 * a + bn + cn + dn) * (5.0 * b * b + (cn - d5) * (4.0 * bn - cn - dn))
    )
    return _pow(abs(s), 3) / (a * bn * dn) * poly, -math.pi / (11520.0 * a * b * c * d)


def _ji4_n1_1101_quad(a, b, c, d):
    bn, dn = _SIGN2 * b, _SIGN1 * d
    s = a + bn + dn
    bb, bd, dd = b * b, 4.0 * bn * dn, d * d
    poly = _pow(a, 3) - 3.0 * a * (bb - bd + dd) + (bn + dn) * (-3.0 * a * a + bb - bd + dd)
    return _pow(abs(s), 3) / (a * bn * dn) * poly, -math.pi / (1152.0 * a * b * d)


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

# ones in the sign shape of each zero-band code: an argument in the band
# drops out of the permutation sum, and its sign axis with it
_SPREAD = tuple(np.ones((2,) * (3 - bin(code).count("1")) + (1,)) for code in range(4))


def _cells(row, lanes):
    """The `_ROUTES` cell, 4 * row + zero-band code, of each ji4 lane, the
    lanes being the rows (alpha, beta, gamma, delta).

    Zero detection of gamma and delta uses the band of `heaviside` with
    scale = max(alpha, beta, |gamma|, |delta|, 1), so boundary parameter
    sets (corner lags landing on zero, from either side) evaluate without
    indeterminate forms.  A factor's lanes come from its point at unit scale
    (`unit_scale`), where the floor 1 stands in for the point's own scale;
    the lane of `ji4` is at unit scale itself, where the floor is inert.
    """
    zeros = _in_band(lanes[2:], np.maximum(abs(lanes).max(axis=0), 1.0))
    return 4 * row + zeros[0] + 2 * zeros[1]


def _kernel(index, lanes) -> tuple:
    """(values, cancelled) of the kernel in `_CELLS[index]` over `lanes`,
    one row per argument."""
    kernel, size = _CELLS[index], lanes.shape[1]
    if size < SHORT:
        ones = _SPREAD[index % 4]
        terms, prefactor = kernel(*(ones * lanes.reshape(4, *(1,) * (ones.ndim - 1), size)))
        # a spread prefactor repeats its lanes along the sign axes
        prefactor = prefactor.reshape(-1, size)[0]
    else:
        terms, prefactor = kernel(*lanes)
    total, cancelled = _sign_total(terms)
    return prefactor * total, cancelled


def _evaluate(cells, lanes) -> tuple:
    """(values, cancelled) of ji4 lanes, the rows (alpha, beta, gamma,
    delta), lane j taking `_ROUTES` cell cells[j]; each kernel runs over its
    lanes, LANES at a time."""
    counts = np.bincount(cells, minlength=len(_CELLS)).tolist()
    for count, cell in zip(counts, _CELLS):
        if count and isinstance(cell, str):
            raise UnsupportedSignatureError(cell)
    size = lanes.shape[1]
    if 0 < size <= LANES and size in counts and _CELLS[counts.index(size)] is not None:
        return _kernel(counts.index(size), lanes)  # one kernel takes all
    # sorted by cell, the lanes of each kernel are one run of `order`
    order = np.argsort(cells.astype(np.uint8), kind="stable")  # a radix sort
    value, cancelled = np.zeros(size), np.zeros(size, dtype=bool)
    stop = 0
    for index, (count, cell) in enumerate(zip(counts, _CELLS)):
        start, stop = stop, stop + count
        if count and cell is not None:  # j_l(0) = 0 for a trailing l > 0
            for first in range(start, stop, LANES):
                block = order[first : min(first + LANES, stop)]
                # take, unlike lanes[:, block], gives the block's rows contiguous
                value[block], cancelled[block] = _kernel(index, lanes.take(block, axis=1))
    return value, cancelled


def ji4(args: Ji4Args) -> float:
    """Closed-form moment integral for the supported signatures.

    Arguments must be finite and nonnegative, except that gamma and delta
    inside the zero band count as zero whatever their sign; alpha and beta
    must be positive.  The integral is one lane at unit scale, its arguments
    divided by the 2**k that puts the largest in [1, 2), where the band is
    relative to that largest argument; `_cells` picks its `_ROUTES` cell, and
    its value, homogeneous of degree n - 1, is scaled back by 2**((n - 1) k).
    """
    a, b, c, d = args.alpha, args.beta, args.gamma, args.delta
    scale = max(a, b, abs(c), abs(d))
    for name, v in (("alpha", a), ("beta", b), ("gamma", c), ("delta", d)):
        if not math.isfinite(v) or (v < 0.0 and not _in_band(v, scale)):
            raise ValidationError(f"{name} must be finite and >= 0, got {v!r}")
    if a == 0.0 or b == 0.0:
        raise ValidationError("alpha and beta must be positive")
    sig = (args.n, args.l1, args.l2, args.l3, args.l4)
    if sig not in _ROUTES:
        raise UnsupportedSignatureError(f"no closed form for signature {sig}")
    # the lane scales in floats, where numpy costs more than the lane
    k = math.frexp(scale)[1] - 1
    lanes = np.array([math.ldexp(v, -k) for v in (a, b, c, d)])[:, None]
    value, cancelled = _evaluate(_cells(_ROW[sig], lanes), lanes)
    (value,) = scale_back(f"ji4{sig}: the value", (sig[0] - 1) * k, value[0])
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


# lanes 0..4 of a multipole, each with its three bits reversed
_REVERSED = np.array([0, 4, 2, 6, 1])


def _piece_total(pieces: np.ndarray) -> np.ndarray:
    """Sum of pieces[k, i, j], lane i of the k-th of one or two multipoles
    at point j, over k and i, by the tree of the rows 8 k + i.

    Row r * len(pieces) + k holds lane i of multipole k, r being i with its
    three bits reversed: eight rows per multipole keep the tree free of
    padding, and `_two_sum_total` pairs them in reversed bit order.
    """
    rows = np.zeros((8,) + pieces.shape[::2])
    rows[_REVERSED] = np.swapaxes(pieces, 0, 1)
    return _two_sum_total(rows.reshape(-1, pieces.shape[-1]))


def factor_closed_batch(kind: FactorKind, p: RegionPair) -> ClosedBatch:
    """Geometric factors of many points of one kind, vectorised.

    The fields of `p` are equal-length 1-D arrays (floats broadcast); no
    points give an empty batch.  The gates of all (l, i) lanes form one
    grid; each open lane picks its `_ROUTES` cell there, each kernel runs
    over the lanes that picked it in blocks of LANES, and one
    CancellationWarning names how many points lost digits.  On a 2-vCPU
    host a point of a large batch costs about 2 microseconds, and a batch
    of one about 0.2 ms.
    """
    p.validate()
    fields = [getattr(p, name) for name in FIELDS]
    batch = any(isinstance(v, np.ndarray) for v in fields)
    if batch:
        fields = [np.atleast_1d(np.asarray(v, dtype=float)) for v in fields]
        if len({v.shape for v in fields} - {(1,)}) > 1 or max(v.ndim for v in fields) > 1:
            raise ValidationError("the fields of a batch must be equal-length 1-D arrays or floats")
        p = RegionPair(*np.broadcast_arrays(*fields))
        if not len(p.r1):
            return ClosedBatch(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=bool))
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
    lanes = np.empty((4, len(live)))
    lanes[[0, 1, 3]] = np.take(point, lane % n, axis=1)
    lanes[2] = gammas.ravel()[lane]
    values, flags = np.zeros(gates.size), np.zeros(gates.size, dtype=bool)
    values[live], flags[live] = _evaluate(_cells(rows.ravel()[live], lanes), lanes)
    pieces = coeff * values.reshape(gates.shape)
    total = 9.0 / (2.0 * math.pi**2 * r1 * r2) * _piece_total(pieces)
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

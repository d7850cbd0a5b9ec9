"""Command line front end: single factors, the built-in table, sweeps, validation.

Four subcommands share one evaluation core.  `factor` prints a single JSON
record, `table1` re-computes the sixteen built-in reference rows and checks
them against their printed four-digit values, `sweep` walks a parameter grid
into CSV, and `validate` runs the seeded cross-method comparison suites.
Exit codes: 0 success, 1 reference/validation mismatch, 2 usage error,
3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import math
import re
import sys
import warnings
from typing import Optional, Sequence

import numpy as np

from .closed_form import (
    CancellationWarning,
    UnsupportedSignatureError,
    factor_closed,
    factor_closed_batch,
    ji4,
)
from .fourier_bessel import factor_series, factor_series_general
from .model import (
    BOUNDARY_RTOL,
    FIELDS,
    FactorKind,
    FactorResult,
    Ji4Args,
    Method,
    RegionPair,
    SeriesConfig,
    ValidationError,
    check_field,
    round4,
    table1_rows,
)
from .oracle import (
    QuadConfig, factor_fourier_numeric, factor_fourier_numeric_batch, ji4_numeric_batch,
)
from .time_averages import (
    AvgKind,
    QuadratureError,
    Schedule,
    finite_avg,
    heaviside,
    infinite_avg,
    numeric_time_average_batch,
)

__all__ = [
    "build_parser",
    "main",
    "parse_angle",
]


def parse_angle(text: str) -> float:
    """Angle in radians, or a rational multiple of pi: `1/6pi`, `pi/6`, `0.5pi`."""
    t = text.strip().lower().replace(" ", "")
    if "pi" not in t:
        try:
            return float(t)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None
    sign = 1.0
    if t and t[0] in "+-":
        sign = -1.0 if t[0] == "-" else 1.0
        t = t[1:]
    try:
        if t == "pi":
            return sign * math.pi
        if t.startswith("pi/"):
            return sign * math.pi / float(t[3:])
        if t.endswith("pi"):
            num, slash, den = t[:-2].partition("/")
            factor = float(num) / float(den) if slash else float(num)
            return sign * factor * math.pi
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")


# ---------------------------------------------------------------------------
# shared evaluation core


# (config, field, help) of each route flag; the flag's dest is the field name
_ROUTE_FLAGS = (
    (SeriesConfig, "n_max", "series truncation depth (default %(default)s)"),
    (SeriesConfig, "tail_tol", "relative tail tolerance for series convergence"),
    (SeriesConfig, "rex_slack", "extra expansion radius beyond the causal minimum"),
    (QuadConfig, "abs_tol", "absolute error budget for the numeric method"),
    (QuadConfig, "rel_tol", "relative error budget for the numeric method"),
    (QuadConfig, "tail_periods", "oscillatory tail chunks for the numeric method"),
)


def _router(args: argparse.Namespace):
    """`evaluate(kind, p)` by the route and tuning that the flags in `args`
    choose; the one place where a route's output becomes a FactorResult.

    A quadrature that misses its error budget gives its best estimate,
    flagged `converged=False` with an infinite tail estimate.
    """
    method = Method(args.method)
    tuning = {SeriesConfig: {}, QuadConfig: {}}
    for owner, name, _ in _ROUTE_FLAGS:
        tuning[owner][name] = getattr(args, name)
    series_cfg, quad_cfg = (owner(**fields) for owner, fields in tuning.items())

    def evaluate(kind: FactorKind, p: RegionPair) -> FactorResult:
        try:
            if method is Method.CLOSED_FORM:
                return factor_closed(kind, p)
            if method is Method.SERIES_SIMPLE:
                return factor_series(kind, p, series_cfg)
            if method is Method.SERIES_GENERAL:
                return factor_series_general(kind, p, series_cfg)
            quad = factor_fourier_numeric(kind, p, quad_cfg)
        except QuadratureError as exc:
            return FactorResult(exc.estimate, 0, math.inf, method, converged=False)
        return FactorResult(quad.value, 0, quad.error, method, converged=True)

    return evaluate


def _record(kind: FactorKind, p: RegionPair, result: FactorResult) -> dict:
    tail = result.tail_estimate
    return {
        "inputs": p.to_dict(),
        "kind": kind.value,
        "method": result.method.value,
        "value": result.value,
        "terms_used": result.terms_used,
        # JSON has no inf: an error past its budget is written as null
        "tail_estimate": tail if math.isfinite(tail) else None,
        "converged": result.converged,
    }


_CSV_COLUMNS = ("kind", *FIELDS, "method", "value", "terms_used", "converged")


def _result_fields(method: str, value: float, terms_used: int, converged: bool) -> list:
    return [method, f"{value:.16e}", str(terms_used), "true" if converged else "false"]


def _csv_row(kind: FactorKind, p: RegionPair, result: FactorResult) -> list:
    return (
        [kind.value]
        + [f"{getattr(p, name):.17g}" for name in FIELDS]
        + _result_fields(result.method.value, result.value, result.terms_used, result.converged)
    )


def _write_csv(path: Optional[str], header: Sequence[str], rows) -> None:
    """Write a header line and the rows as CSV to `path`, or to stdout."""
    out = open(path, "w", newline="") if path is not None else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# subcommands


def cmd_factor(args: argparse.Namespace) -> int:
    """Evaluate one factor and print a JSON record."""
    kind = FactorKind(args.kind)
    p = RegionPair(**{name: getattr(args, name) for name in FIELDS})
    result = _router(args)(kind, p)
    print(json.dumps(_record(kind, p, result)))
    return 0 if result.converged else 3


_TABLE_HEADER = (
    f"{'row':>3}  {'kind':<4}  {'method':<14}  {'computed':>23}  "
    f"{'4-digit':>10}  {'expected':>10}  {'terms':>6}  result"
)


def cmd_table1(args: argparse.Namespace) -> int:
    """Recompute the sixteen reference rows and report pass/fail per row.

    A row passes when its result converged and rounds to the printed value.
    Exit 3 if any row did not converge, else 1 if any row failed.
    """
    evaluate = _router(args)
    rows = table1_rows()
    passed = 0
    all_converged = True
    csv_rows = []
    print(_TABLE_HEADER)
    for index, row in enumerate(rows, start=1):
        result = evaluate(row.kind, row.params)
        rounded = round4(result.value)
        ok = result.converged and rounded == row.expected
        passed += ok
        all_converged = all_converged and result.converged
        print(
            f"{index:>3}  {row.kind.value:<4}  {result.method.value:<14}  "
            f"{result.value:>23.16e}  {rounded:>10}  {row.expected:>10}  "
            f"{result.terms_used:>6}  {'pass' if ok else 'FAIL'}"
        )
        csv_rows.append(
            _csv_row(row.kind, row.params, result) + [row.expected, "true" if ok else "false"]
        )
    print(f"{passed}/{len(rows)} rows pass at 4 significant digits")

    if args.csv is not None:
        _write_csv(args.csv, _CSV_COLUMNS + ("expected", "passed"), csv_rows)
    if not all_converged:
        return 3
    return 0 if passed == len(rows) else 1


def _parse_axis(text: str):
    """A grid axis: `VALUE` or `START:STOP:COUNT` (a linspace).

    Values are numbers or rational multiples of pi, as `parse_angle` reads
    them, on every axis.
    """
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (parse_angle(parts[0]),)
        if len(parts) == 3 and int(parts[2]) >= 1:
            start, stop = parse_angle(parts[0]), parse_angle(parts[1])
            return tuple(np.linspace(start, stop, int(parts[2])).tolist())
    except (ValueError, argparse.ArgumentTypeError):
        pass
    raise argparse.ArgumentTypeError(f"expected VALUE or START:STOP:COUNT, got {text!r}")


def _parse_kinds(text: str):
    kinds = []
    for name in text.split(","):
        try:
            kinds.append(FactorKind(name.strip().lower()))
        except ValueError:
            raise argparse.ArgumentTypeError(f"unknown kind {name!r}") from None
    return tuple(kinds)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Write one CSV row per grid point; exit 3 if any row did not converge."""
    method = Method(args.method)
    evaluate = _router(args)
    axes = tuple(getattr(args, name) for name in FIELDS)
    total = len(args.kind) * math.prod(len(a) for a in axes)
    if total > args.max_points:
        print(
            f"error: grid has {total} points, exceeding --max-points={args.max_points}",
            file=sys.stderr,
        )
        return 2
    # the constraints are per field, so checking every axis value once
    # checks every grid point
    for name, values in zip(FIELDS, axes):
        check_field(name, np.array(values))

    rows = []
    all_converged = True
    if method is Method.CLOSED_FORM:
        # each kind's whole grid is one batch, in itertools.product order;
        # no FactorResult per point, which would cost more than the batch
        labels = list(itertools.product(*([f"{v:.17g}" for v in values] for values in axes)))
        grid = RegionPair(*(g.ravel() for g in np.meshgrid(*axes, indexing="ij")))
        # an enum's value is a property lookup; read it once, not per row
        route = method.value
        for kind in args.kind:
            batch = factor_closed_batch(kind, grid)
            name = kind.value
            rows.extend(
                [name, *label, *_result_fields(route, value, terms, True)]
                for label, value, terms in zip(
                    labels, batch.value.tolist(), batch.terms_used.tolist()
                )
            )
    else:
        for kind, point in itertools.product(args.kind, itertools.product(*axes)):
            p = RegionPair(*point)
            result = evaluate(kind, p)
            all_converged = all_converged and result.converged
            rows.append(_csv_row(kind, p, result))
    _write_csv(args.out, _CSV_COLUMNS, rows)
    return 0 if all_converged else 3


# validation suite bounds: series routes vs closed form, the quadrature
# oracle vs closed form (relative, floored at 1e-6), analytic time averages
# vs 2-D quadrature (absolute), and closed ji4 brackets vs 1-D quadrature
_BOUND_SERIES = 5e-5
_BOUND_NUMERIC = 1e-3
_BOUND_AVG = 1e-8
_BOUND_JI4 = 1e-7


def _draw_pair(rng: np.random.Generator, index: int) -> tuple:
    """One random factor configuration with a non-negligible closed value."""
    kind = (FactorKind.AXX, FactorKind.AXY, FactorKind.BXY)[index % 3]
    while True:
        r1, r2 = rng.uniform(0.3, 3.0, size=2)
        r = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 3.0)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        dt1, dt2 = rng.uniform(0.2, 3.0, size=2)
        t = rng.uniform(-4.0, 4.0)
        p = RegionPair(r1, r2, r, theta, phi, dt1, dt2, t)
        # keep draws away from structural zeros, where relative deviations
        # compare rounding noise against rounding noise; outside the
        # light-cone support the factor is exactly 0
        if not p.in_support():
            continue
        closed = factor_closed(kind, p).value
        if abs(closed) >= 1e-4:
            return kind, p, closed


_JI4_SIGS = ((0, 1, 1, 0, 0), (0, 1, 1, 0, 2), (0, 1, 1, -1, 1), (1, 1, 1, 0, 1))


def _draw_ji4(rng: np.random.Generator, index: int) -> tuple:
    """(args, closed value) of one supported ji4 signature with compact
    support and a stable value."""
    n, l1, l2, l3, l4 = _JI4_SIGS[index % 4]
    while True:
        a, b = rng.uniform(0.3, 3.0, size=2)
        g = 0.0 if (n, l1, l2, l3, l4) == (1, 1, 1, 0, 1) else rng.uniform(0.2, 3.0)
        d = rng.uniform(0.2, 3.0)
        if (n, l1, l2, l3, l4) == (0, 1, 1, 0, 0):
            if rng.random() < 0.2:
                g = 0.0
            if rng.random() < 0.2:
                d = 0.0
        vals = [v for v in (a, b, g, d) if v > 0.0]
        if max(vals) > sum(vals) - max(vals) - 0.1:
            continue  # too close to the support edge
        args = Ji4Args(n, l1, l2, l3, l4, a, b, g, d)
        closed = ji4(args)
        if abs(closed) >= 1e-3:
            return args, closed


def _time_average_integrand(wavenumbers, scales, cosines, gates):
    """f(t, which) of `numeric_time_average_batch` over a stack of averages:
    trig(q t) Theta(t) Theta(gate - t), with the q, heaviside scale, trig
    (cos where `cosines` holds) and gate (inf for none) of lag t's integral.

    One band test per node decides its gates: a closed node is +0.0 with no
    trig call, and only nodes in the band take `heaviside`, so every nonzero
    value keeps the bits of trig * heaviside * heaviside.
    """
    bands = BOUNDARY_RTOL * scales  # heaviside's band, per integral

    def integrand(t, which):
        edge = np.minimum(t, gates[which] - t)  # > 0 inside both steps
        band = bands[which]
        x, cos = wavenumbers[which] * t, cosines[which]
        out = np.zeros_like(t)
        live = edge > band
        np.cos(x, where=live & cos, out=out)
        np.sin(x, where=live & ~cos, out=out)
        near = np.flatnonzero(abs(edge) <= band)
        if near.size:
            t, which, x, cos = t[near], which[near], x[near], cos[near]
            sc = scales[which]
            trig = np.where(cos, np.cos(x), np.sin(x))
            out[near] = trig * heaviside(t, sc) * heaviside(gates[which] - t, sc)
        return out

    return integrand


def cmd_validate(args: argparse.Namespace) -> int:
    """Cross-check every route against every other on seeded random inputs."""
    n = args.samples
    rng = np.random.default_rng(args.seed)
    series_cfg = SeriesConfig()
    # value comparison is the check here; keep the oracle's internal stall
    # guard out of the way (its error estimates are deliberately conservative)
    oracle_cfg = QuadConfig(abs_tol=1.0, rel_tol=1.0)
    dev_simple = dev_general = dev_numeric = 0.0
    with warnings.catch_warnings():
        # rejected structural-zero probes cancel by construction
        warnings.simplefilter("ignore", CancellationWarning)
        # every draw first (evaluation draws nothing), then one oracle batch
        draws = [_draw_pair(rng, i) for i in range(n)]
        numerics = factor_fourier_numeric_batch([draw[:2] for draw in draws], oracle_cfg)
        for (kind, p, closed), quad in zip(draws, numerics):
            floor = max(abs(closed), 1e-6)
            simple = factor_series(kind, p, series_cfg).value
            general = factor_series_general(kind, p, series_cfg).value
            dev_simple = max(dev_simple, abs(simple - closed) / abs(closed))
            dev_general = max(dev_general, abs(general - closed) / abs(closed))
            dev_numeric = max(dev_numeric, abs(quad.value - closed) / floor)

    # every draw first, then one quadrature batch: per sample and trig, the
    # radius-gated average, then the open one, whose gate Theta(inf - t) is 1
    samples = [(rng.uniform(0.1, 15.0), rng.uniform(0.2, 6.0),
                Schedule(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(-4.0, 4.0)))
               for _ in range(n)]
    stack = [(q, r_ex, s, kind, gate) for q, r_ex, s in samples
             for kind in AvgKind for gate in (r_ex, math.inf)]
    integrand = _time_average_integrand(
        np.array([q for q, _, _, _, _ in stack]),
        np.array([s.scale(r_ex) for _, r_ex, s, _, _ in stack]),
        np.array([kind is AvgKind.COS for _, _, _, kind, _ in stack]),
        np.array([gate for _, _, _, _, gate in stack]))
    numerics = numeric_time_average_batch(
        integrand, [s for _, _, s, _, _ in stack],
        [(0.0, g) if g < math.inf else (0.0,) for _, _, _, _, g in stack])
    dev_avg = 0.0
    for (q, r_ex, s, kind, gate), numeric in zip(stack, numerics):
        exact = finite_avg(kind, q, r_ex, s) if gate < math.inf else infinite_avg(kind, q, s)
        dev_avg = max(dev_avg, abs(exact - numeric))

    ji4_cfg = QuadConfig(abs_tol=1.0, rel_tol=1.0, tail_periods=800)
    dev_ji4 = 0.0
    ji4_draws = [_draw_ji4(rng, i) for i in range(n)]
    quads = ji4_numeric_batch([ji4_args for ji4_args, _ in ji4_draws], ji4_cfg)
    for (_, closed), quad in zip(ji4_draws, quads):
        dev_ji4 = max(dev_ji4, abs(quad.value - closed) / abs(closed))

    checks = (
        ("closed vs series", dev_simple, _BOUND_SERIES),
        ("closed vs series-general", dev_general, _BOUND_SERIES),
        ("closed vs numeric", dev_numeric, _BOUND_NUMERIC),
        ("time averages vs quadrature", dev_avg, _BOUND_AVG),
        ("ji4 closed vs quadrature", dev_ji4, _BOUND_JI4),
    )
    print(f"validation report  seed={args.seed}  samples={n}")
    ok = True
    for label, dev, bound in checks:
        passed = dev <= bound
        ok = ok and passed
        print(f"{label:<28} max dev {dev:.3e}  bound {bound:.1e}  "
              f"{'pass' if passed else 'FAIL'}")
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def _add_route_flags(sp: argparse.ArgumentParser) -> None:
    for owner, name, text in _ROUTE_FLAGS:
        default = getattr(owner, name)
        sp.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                        help=text)


_FIELD_HELP = {
    "r1": "radius of region 1",
    "r2": "radius of region 2",
    "r": "centre separation",
    "theta": "polar angle of the displacement (radians or e.g. 1/6pi)",
    "phi": "azimuthal angle of the displacement",
    "dt1": "length of interval 1",
    "dt2": "length of interval 2",
    "t_offset": "start of interval 2 minus start of interval 1",
}


def _add_geometry_flags(sp: argparse.ArgumentParser, axes: bool) -> None:
    """One flag per RegionPair field, `--t` for t_offset, with the field's
    default; a field without a default is a required flag.

    With `axes` every flag takes a grid axis, and a default is an axis of
    one value.
    """
    for field in dataclasses.fields(RegionPair):
        name = field.name
        required = field.default is dataclasses.MISSING
        if axes:
            parse, default = _parse_axis, None if required else (field.default,)
        else:
            parse = parse_angle if name in ("theta", "phi") else float
            default = None if required else field.default
        sp.add_argument("--t" if name == "t_offset" else "--" + name, dest=name,
                        type=parse, required=required, default=default,
                        help=_FIELD_HELP[name])


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return int(text)


_METHODS = tuple(m.value for m in Method)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brfactor",
        description="Geometric factors for averaged field commutators over "
        "pairs of spherical space-time regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("factor", help="evaluate one factor, print JSON")
    sp.add_argument("--kind", required=True, choices=[k.value for k in FactorKind])
    _add_geometry_flags(sp, axes=False)
    sp.add_argument("--method", default="closed", choices=_METHODS)
    _add_route_flags(sp)
    sp.set_defaults(handler=cmd_factor)

    sp = sub.add_parser("table1", help="recompute the built-in reference table")
    sp.add_argument("--method", default="closed", choices=_METHODS)
    sp.add_argument("--csv", default=None, help="also write the rows to this CSV file")
    _add_route_flags(sp)
    sp.set_defaults(handler=cmd_table1)

    sp = sub.add_parser("sweep", help="evaluate a parameter grid, write CSV")
    sp.add_argument("--kind", type=_parse_kinds, default=(FactorKind.AXX,),
                    help="comma-separated list: axx,axy,bxy")
    _add_geometry_flags(sp, axes=True)
    sp.add_argument("--method", default="closed", choices=_METHODS)
    sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
    sp.add_argument("--max-points", type=int, default=20000,
                    help="refuse grids larger than this")
    _add_route_flags(sp)
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("validate", help="seeded cross-method comparison report")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=_count, default=25,
                    help="draws per suite (0 gives a vacuous pass)")
    sp.set_defaults(handler=cmd_validate)

    return parser


# a value that starts with '-' but is no plain negative number, such as
# `-1:1:3` or `-pi/3`; no option of this parser looks like that
_NEGATIVE_VALUE = re.compile(r"-(\d|\.|pi)")


def _attach_negative_values(argv: Sequence[str]) -> list:
    """Join `--flag -1:1:3` into `--flag=-1:1:3`.

    argparse reads a token that starts with '-' as an option unless it is a
    plain negative number, so a negative range or angle would otherwise be
    refused as a missing argument.
    """
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process; parsing leaves it as
    it was, since every parse fills a namespace of its own."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (ValidationError, UnsupportedSignatureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

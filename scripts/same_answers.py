#!/usr/bin/env python3
"""Fingerprint what a brfactor source tree computes, one sha256 per item.

    python3 scripts/same_answers.py SRC > answers.txt

SRC is the `src` directory of the tree to fingerprint.  Each output line is
`item sha256`; two trees compute the same bytes on this set exactly when
`diff` finds their outputs equal.  The items are the stdout of `table1` on
every route and of `validate` at seeds 0 and 7, the CSV of a 19200-point
sweep at two offsets, the results of the benchmark's `series-random` calls
at seeds 300 and 301, `sph_bessel` and both analytic time averages on arrays
and scalars, `sph_bessel` of every order on arrays that hold no |x| < 1,
200 small `validate` reports at the benchmark's seeds, and scalar
`factor_closed` and `ji4` calls that reach every cell of the closed form's
route table, every term both series routes log at fixed points and at 40
points outside the light-cone support, each route's outcome and each closed
`ji4` signature's at seeded points scaled by the powers of two of SCALE_K,
the help text of the parser and of each subcommand at 100 columns, the
quadrature oracle's value and error at `validate`'s factor and `ji4` draws,
and at the `ji4` draws again with a 1600-period tail,
the 1-D time-average quadrature at `validate`'s time-average draws, and
`factor_closed_batch` of each kind on the sweep's grid at both offsets.

The `closed.batch.<kind>` items hold a batch's `value`, `terms_used` and
`cancelled` mask and the text of its CancellationWarning, which the sweep
CSV does not carry.

Each `series-random` seed gives two items: `.stops` holds where every call
stopped (`terms_used` and `converged`, or the exception it raised) and
`.values` its `value` and `tail_estimate`.  A change that only rounds the
sums differently leaves the `.stops` items byte-identical.  The
`series.terms.<route>` items hold each call's result and its whole
`term_log`, so byte identity covers every term, not only totals and stops;
their `.budgets` items do so under budgets that end a block early, so the
block cut short by the budget is fingerprinted too.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import math
import os
import pickle
import random
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
SWEEP = ["sweep", "--kind", "axx,axy,bxy", "--r1", "0.5:2:40", "--r", "0:2:10",
         "--phi", "0:6.28:16", "--r2", "1.1", "--theta", "1.0"]
#: series budgets that end at, just before or just after a block's end
BUDGETS = (20, 127, 128, 129, 384, 385)
#: the `scale.<route>` items evaluate 2**k times each point for these k: the
#: factors scale as 2**(-4k), so past about |k| = 256 every nonzero one is
#: refused; `scale.ji4` scales each lane's arguments by them
SCALE_K = (-300, -256, -250, -50, -38, -9, 0, 1, 7, 60, 150, 180, 250, 256, 300)


def _workloads():
    """perfbench/workloads.py, loaded by path; it imports no brfactor."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout(main, argv) -> bytes:
    """The exit code and the stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}".encode()


def _outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # a refusal is an answer too
        return f"{type(exc).__name__}: {exc}"


def _bessel_items():
    from brfactor.special_functions import sph_bessel, sph_bessels

    x = np.concatenate((np.linspace(-30.0, 30.0, 4001), [0.0, 1.0, 1.0 - 1e-16]))
    scalars = np.random.default_rng(11).uniform(-12.0, 12.0, 300).tolist() + [0.0, 1.0, -1.0]
    for l in (0, 1, 2):
        yield f"sph_bessel.{l}.array", sph_bessel(l, x).tobytes()
        yield f"sph_bessel.{l}.scalar", pickle.dumps([sph_bessel(l, v) for v in scalars])
    # no |x| < 1 and no zero: the arrays that skip the small-argument masks
    side = np.concatenate((np.geomspace(1.0, 1e4, 2001), np.linspace(1.0, 60.0, 3001)))
    large = np.concatenate((side, -side, [np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0)]))
    every = sph_bessels((-1, 0, 1, 2), large)
    for i, l in enumerate((-1, 0, 1, 2)):
        yield f"sph_bessel.{l}.large", sph_bessel(l, large).tobytes() + every[i].tobytes()


def _schedules(count: int):
    """Random schedules with radii; most offsets put a corner lag on zero."""
    from brfactor.time_averages import Schedule

    rng = random.Random(17)
    for _ in range(count):
        dt1, dt2 = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
        t = rng.choice((rng.uniform(-4.0, 4.0), 0.0, dt1, -dt2, dt1 - dt2))
        yield Schedule(dt1, dt2, t), rng.choice((rng.uniform(0.1, 8.0), 30.0, dt1 + dt2))


def _average_items():
    from brfactor.time_averages import AvgKind, finite_avg, infinite_avg

    q = np.geomspace(1e-3, 200.0, 64)
    for kind in AvgKind:
        arrays, scalars = [], []
        for s, r_ex in _schedules(300):
            arrays.append(_outcome(lambda: (
                finite_avg(kind, q, r_ex, s).tobytes(), infinite_avg(kind, q, s).tobytes())))
            scalars.append(_outcome(lambda: [
                (finite_avg(kind, v, r_ex, s), infinite_avg(kind, v, s))
                for v in q[::7].tolist()]))
        yield f"averages.{kind.value}.array", pickle.dumps(arrays)
        yield f"averages.{kind.value}.scalar", pickle.dumps(scalars)


def _closed_points(count: int):
    """Seeded points whose corner lags land on every zero band: in the band
    of the times or of the radii, at +-1e-13, with r = 0 or a dead window."""
    rng = random.Random(29)
    for _ in range(count):
        r1, r2, dt1, dt2 = (rng.uniform(0.3, 3.0) for _ in range(4))
        t = rng.choice((rng.uniform(-4.0, 4.0), 0.0, dt1, -dt2, dt1 - dt2, 1e-10, dt1 + 5e-10,
                        1e-13, -1e-13, dt1 - dt2 + 1e-13, -dt2 - rng.uniform(0.1, 2.0)))
        r = rng.choice((rng.uniform(0.0, 3.0), 0.0, 1e-13, abs(t)))
        yield r1, r2, r, rng.uniform(0.0, 3.2), rng.uniform(0.0, 6.3), dt1, dt2, t


def _scalar_closed_items():
    from brfactor import FactorKind, Ji4Args, RegionPair, factor_closed, ji4

    def call(f, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = _outcome(lambda: f(*args))
        return out, [str(w.message) for w in caught]

    points = list(_closed_points(400))
    for kind in FactorKind:
        yield f"closed.scalar.{kind.value}", pickle.dumps(
            [call(factor_closed, kind, RegionPair(*fields)) for fields in points])
    rng = random.Random(31)
    for sig in ((0, 1, 1, 0, 0), (0, 1, 1, 0, 2), (0, 1, 1, -1, 1), (1, 1, 1, 0, 1)):
        results = []
        for _ in range(100):
            a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            # gamma and delta: positive, zero, or 1e-13 either side of zero
            for gamma in (rng.uniform(0.0, 5.0), 0.0, 1e-13, -1e-13, a + b):
                for delta in (rng.uniform(0.0, 5.0), 0.0, 1e-13, abs(a - b)):
                    results.append(call(ji4, Ji4Args(*sig, a, b, gamma, delta)))
        yield "ji4.scalar." + "_".join(map(str, sig)), pickle.dumps(results)


def _batch_closed_items():
    """`closed.batch.<kind>`: `factor_closed_batch` on the grid of SWEEP at
    t = 0.5 and 0.3, the grid built as `sweep` builds it."""
    from brfactor import FactorKind, RegionPair, factor_closed_batch
    from brfactor.cli import build_parser
    from brfactor.model import FIELDS

    grids = []
    for t in ("0.5", "0.3"):
        args = build_parser().parse_args(SWEEP + ["--t", t])
        axes = [getattr(args, name) for name in FIELDS]
        grids.append(RegionPair(*(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))))
    for kind in FactorKind:
        data = []
        for grid in grids:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                batch = factor_closed_batch(kind, grid)
            data += [batch.value.tobytes(), batch.terms_used.tobytes(), batch.cancelled.tobytes(),
                     "\n".join(str(w.message) for w in caught).encode()]
        yield f"closed.batch.{kind.value}", b"\0".join(data)


def _term_logs(route, kinds_points, cfg):
    """Every term and partial sum of `route` under `cfg` at each (kind,
    point), or the refusal, as plain tuples."""
    from brfactor import FactorKind, RegionPair

    logs = []
    for kind, params in kinds_points:
        log = []
        outcome = _outcome(
            lambda: route(FactorKind(kind), RegionPair(**params), cfg, term_log=log))
        if not isinstance(outcome, str):
            outcome = (outcome.value, outcome.terms_used, outcome.tail_estimate, outcome.converged)
        logs.append((outcome, [(t.n, t.q_n, t.term_value, t.partial_sum) for t in log]))
    return pickle.dumps(logs)


def _series_term_items(workloads, scratch):
    """The term logs of both series routes at the first 60 `series-random`
    inputs of seed 300 and one r = 0 point, every kind at the second; at a
    dead window whose lags overflow when multiplied by q; and, as the
    `.budgets` items, at the same 63 points under each n_max of BUDGETS."""
    import brfactor
    from brfactor import SeriesConfig

    w = workloads.SeriesRandom(300, scratch)
    points = [w.inputs(i)[::2] for i in range(60)]
    kinds = ("axx", "axy", "bxy")
    at_zero = dict(r1=1.3, r2=0.7, r=0.0, theta=0.4, phi=1.1, dt1=0.6, dt2=0.9, t_offset=0.2)
    points += [(kind, at_zero) for kind in kinds]
    dead = dict(r1=1e-100, r2=1e-100, dt1=1.0, dt2=1.0, t_offset=-1e250)
    for name in ("factor_series", "factor_series_general"):
        route = getattr(brfactor, name)
        yield f"series.terms.{name}", _term_logs(route, points, SeriesConfig())
        yield f"series.terms.{name}.dead_window", _term_logs(
            route, [(k, dead) for k in kinds], SeriesConfig())
        yield f"series.terms.{name}.budgets", b"".join(
            _term_logs(route, points, SeriesConfig(n_max=k)) for k in BUDGETS)


def _support_items():
    """`series.support`: the outcome and term log of both series routes at
    40 seeded points just outside the light-cone support, past either edge
    by gaps of 1e-9 to 1, r = 0 at some."""
    from brfactor import SeriesConfig, factor_series, factor_series_general

    rng = random.Random(47)
    points = []
    for i in range(40):
        r1, r2, dt1, dt2 = (rng.uniform(0.3, 3.0) for _ in range(4))
        r = rng.choice((0.0, rng.uniform(0.0, 6.0)))
        gap = 10.0 ** rng.uniform(-9.0, 0.0)
        t = rng.choice((max(r - r1 - r2, 0.0) - dt2 - gap, r + r1 + r2 + dt1 + gap))
        points.append((("axx", "axy", "bxy")[i % 3], dict(
            r1=r1, r2=r2, r=r, theta=rng.uniform(0.0, 3.2), phi=rng.uniform(0.0, 6.3),
            dt1=dt1, dt2=dt2, t_offset=t)))
    yield "series.support", b"".join(
        _term_logs(route, points, SeriesConfig()) for route in (factor_series, factor_series_general))


def _scale_items():
    """`scale.<route>`: the outcome of each route at 2**k times 40 seeded
    points (4 for the quadrature) whose window is open, for every k of
    SCALE_K; `scale.ji4`: the outcome of the closed `ji4` of each signature
    at 2**k times 20 seeded lanes, gamma and delta zero in some."""
    from brfactor import (
        FactorKind, Ji4Args, RegionPair, factor_closed, factor_fourier_numeric, factor_series,
        factor_series_general, ji4,
    )

    def outcome(route, kind, fields, k):
        # r1, r2, r, dt1, dt2 and t_offset carry length or time
        scaled = [v if i in (3, 4) else math.ldexp(v, k) for i, v in enumerate(fields)]
        out = _outcome(lambda: route(kind, RegionPair(*scaled)))
        return out if isinstance(out, (str, tuple)) else (
            out.value, out.terms_used, out.tail_estimate, out.converged)

    rng = random.Random(37)
    points = []
    for _ in range(40):
        r1, r2, dt1, dt2 = (rng.uniform(0.3, 3.0) for _ in range(4))
        points.append((r1, r2, rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.2),
                       rng.uniform(0.0, 6.3), dt1, dt2, rng.uniform(-dt2, 4.0)))
    kinds = list(FactorKind)
    routes = (("closed", factor_closed, 40), ("series", factor_series, 40),
              ("series-general", factor_series_general, 40), ("numeric", factor_fourier_numeric, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, route, count in routes:
            yield f"scale.{name}", pickle.dumps([
                outcome(route, kinds[i % 3], fields, k)
                for i, fields in enumerate(points[:count]) for k in SCALE_K])
        rng = random.Random(43)
        lanes = []
        for sig in ((0, 1, 1, 0, 0), (0, 1, 1, 0, 2), (0, 1, 1, -1, 1), (1, 1, 1, 0, 1)):
            for _ in range(20):
                a, b = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
                gamma = 0.0 if sig[0] == 1 else rng.choice((rng.uniform(0.0, 5.0), 0.0))
                lanes.append((sig, a, b, gamma, rng.choice((rng.uniform(0.0, 5.0), 0.0))))
        yield "scale.ji4", pickle.dumps([
            _outcome(lambda: ji4(Ji4Args(*sig, *(math.ldexp(v, k) for v in args))))
            for sig, *args in lanes for k in SCALE_K])


def _oracle_items():
    """`oracle.factor` and `oracle.ji4`: the value and error bound, at full
    precision, of the quadrature oracle at 60 factor draws and 60 `ji4`
    draws of `validate`'s samplers, under the configs `validate` gives it;
    `oracle.ji4.deep`: the `ji4` draws in one `ji4_numeric_batch` with 1600
    tail periods, where the tail limit rescales every column on the way."""
    from brfactor import (
        Ji4Args, QuadConfig, factor_fourier_numeric, ji4_numeric, ji4_numeric_batch,
    )
    from brfactor.cli import _draw_ji4, _draw_pair

    def outcome(call):
        out = _outcome(call)
        return out if isinstance(out, str) else tuple(out)

    rng = np.random.default_rng(41)
    loose = QuadConfig(abs_tol=1.0, rel_tol=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pairs = [_draw_pair(rng, i)[:2] for i in range(60)]
        yield "oracle.factor", pickle.dumps([
            outcome(lambda: factor_fourier_numeric(kind, p, loose)) for kind, p in pairs])
        # `_draw_ji4` returns (args, closed value); older trees return the args
        draws = [_draw_ji4(rng, i) for i in range(60)]
        draws = [d if isinstance(d, Ji4Args) else d[0] for d in draws]
        deep = QuadConfig(abs_tol=1.0, rel_tol=1.0, tail_periods=800)
        yield "oracle.ji4", pickle.dumps([outcome(lambda: ji4_numeric(a, deep)) for a in draws])
        deeper = QuadConfig(abs_tol=1.0, rel_tol=1.0, tail_periods=1600)
        yield "oracle.ji4.deep", pickle.dumps(
            _outcome(lambda: [tuple(r) for r in ji4_numeric_batch(draws, deeper)]))


def _time_average_items(w):
    """`time_averages.numeric`: the value at full precision, or the
    QuadratureError and its estimate, of scalar `numeric_time_average` calls
    at `validate`'s time-average draws for the calls of the benchmark's
    `validate` workload `w`, in `validate`'s order."""
    from brfactor.cli import _draw_pair
    from brfactor.time_averages import QuadratureError, Schedule, heaviside, numeric_time_average

    def outcome(f, s, bps):
        try:
            return numeric_time_average(f, s, breakpoints=bps)
        except QuadratureError as exc:
            return f"QuadratureError: {exc}", exc.estimate

    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i in range(200):
            argv = w.inputs(i)
            seed, samples = int(argv[argv.index("--seed") + 1]), int(argv[argv.index("--samples") + 1])
            rng = np.random.default_rng(seed)
            for j in range(samples):  # the factor draws come first
                _draw_pair(rng, j)
            for _ in range(samples):
                q, r_ex = rng.uniform(0.1, 15.0), rng.uniform(0.2, 6.0)
                s = Schedule(rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0), rng.uniform(-4.0, 4.0))
                sc = s.scale(r_ex)
                for trig in (np.sin, np.cos):
                    gated = lambda t: trig(q * t) * heaviside(t, sc) * heaviside(r_ex - t, sc)
                    results.append(outcome(gated, s, (0.0, r_ex)))
                    open_ended = lambda t: trig(q * t) * heaviside(t, sc)
                    results.append(outcome(open_ended, s, (0.0,)))
    yield "time_averages.numeric", pickle.dumps(results)


def _help_items():
    """`cli.help.<command>`: the `--help` text of the parser (`brfactor`) and
    of each subcommand, formatted at COLUMNS=100."""
    from brfactor.cli import build_parser

    for command in ("brfactor", "factor", "table1", "sweep", "validate"):
        argv = ["--help"] if command == "brfactor" else [command, "--help"]
        out = io.StringIO()
        with (
            mock.patch.dict(os.environ, COLUMNS="100"),
            contextlib.redirect_stdout(out),
            contextlib.suppress(SystemExit),
        ):
            build_parser().parse_args(argv)
        yield f"cli.help.{command}", out.getvalue().encode()


def items(workloads):
    """(name, bytes) of every item, in print order."""
    from brfactor.cli import main

    for route in ("closed", "series", "series-general", "numeric"):
        yield f"table1.{route}", _stdout(main, ["table1", "--method", route])
    for seed in ("0", "7"):
        yield f"validate.seed{seed}", _stdout(main, ["validate", "--seed", seed])
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "sweep.csv")
        for t in ("0.5", "0.3"):
            code = main(SWEEP + ["--t", t, "--out", out])
            with open(out, "rb") as fh:
                yield f"sweep.t{t}", f"exit {code}\n".encode() + fh.read()
        for seed in (300, 301):
            w = workloads.SeriesRandom(seed, scratch)
            w.load()
            stops, values = [], []
            for i in range(w.check_calls):
                r = w.run(i)[1]
                if isinstance(r, Exception):
                    stops.append(f"{type(r).__name__}: {r}")
                    values.append(None)
                else:
                    stops.append((r.terms_used, r.converged))
                    values.append((r.value, r.tail_estimate))
            yield f"series-random.seed{seed}.stops", pickle.dumps(stops)
            yield f"series-random.seed{seed}.values", pickle.dumps(values)
        w = workloads.Validate(0, scratch)
        yield "validate.perfbench", b"".join(_stdout(main, w.inputs(i)) for i in range(200))
        yield from _time_average_items(w)
        yield from _series_term_items(workloads, scratch)
    yield from _support_items()
    yield from _bessel_items()
    yield from _average_items()
    yield from _scalar_closed_items()
    yield from _batch_closed_items()
    yield from _help_items()
    yield from _scale_items()
    yield from _oracle_items()


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="the src directory of the tree to fingerprint")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    workloads = _workloads()
    for name, data in items(workloads):
        print(name, _digest(data), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())

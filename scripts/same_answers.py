#!/usr/bin/env python3
"""Fingerprint what a brfactor source tree computes, one sha256 per item.

    python3 scripts/same_answers.py SRC > answers.txt

SRC is the `src` directory of the tree to fingerprint.  Each output line is
`item sha256`; two trees compute the same bytes on this set exactly when
`diff` finds their outputs equal.  The items are the stdout of `table1` on
every route and of `validate` at seeds 0 and 7, the CSV of a 19200-point
sweep at two offsets, the results of the benchmark's `series-random` calls
at seeds 300 and 301, `sph_bessel` and both analytic time averages on arrays
and scalars, 200 small `validate` reports at the benchmark's seeds, and
scalar `factor_closed` and `ji4` calls that reach every cell of the closed
form's route table, every term both series routes log at fixed points, and
the help text of the parser and of each subcommand at 100 columns.

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
    from brfactor.special_functions import sph_bessel

    x = np.concatenate((np.linspace(-30.0, 30.0, 4001), [0.0, 1.0, 1.0 - 1e-16]))
    scalars = np.random.default_rng(11).uniform(-12.0, 12.0, 300).tolist() + [0.0, 1.0, -1.0]
    for l in (0, 1, 2):
        yield f"sph_bessel.{l}.array", sph_bessel(l, x).tobytes()
        yield f"sph_bessel.{l}.scalar", pickle.dumps([sph_bessel(l, v) for v in scalars])


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
        yield from _series_term_items(workloads, scratch)
    yield from _bessel_items()
    yield from _average_items()
    yield from _scalar_closed_items()
    yield from _help_items()


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

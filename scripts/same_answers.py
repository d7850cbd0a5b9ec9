#!/usr/bin/env python3
"""Fingerprint what a brfactor source tree computes, one sha256 per item.

    python3 scripts/same_answers.py SRC > answers.txt

SRC is the `src` directory of the tree to fingerprint.  Each output line is
`item sha256`; two trees compute the same bytes on this set exactly when
`diff` finds their outputs equal.  The items are the stdout of `table1` on
every route and of `validate` at seeds 0 and 7, the CSV of a 19200-point
sweep at two offsets, the results of the benchmark's `series-random` calls
at seeds 300 and 301, `sph_bessel` and both analytic time averages on arrays
and scalars, and 200 small `validate` reports at the benchmark's seeds.

Each `series-random` seed gives two items: `.stops` holds where every call
stopped (`terms_used` and `converged`, or the exception it raised) and
`.values` its `value` and `tail_estimate`.  A change that only rounds the
sums differently leaves the `.stops` items byte-identical.
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

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
SWEEP = ["sweep", "--kind", "axx,axy,bxy", "--r1", "0.5:2:40", "--r", "0:2:10",
         "--phi", "0:6.28:16", "--r2", "1.1", "--theta", "1.0"]


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
    yield from _bessel_items()
    yield from _average_items()


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

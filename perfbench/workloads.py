"""The three benchmark workloads.

Each workload is a closed loop with one client and no think time: the next
call starts when the previous one returns.  Inputs come only from the seed
and the call index, so call ``i`` of a seed is the same whatever ran before
it.  A workload drives brfactor through its public entry points alone
(``brfactor.cli.main`` and the package-level factor functions) and checks
every output after the timed region.

Nothing here imports brfactor at module level: ``load`` does, so that the
harness can time the import.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import math
import os
import random
import re
import time
from dataclasses import dataclass

KINDS = ("axx", "axy", "bxy")
ROUTES = ("closed", "series", "series-general", "numeric")

#: the series routes' contract, as ``validate`` applies it: relative
#: deviation over max(|reference|, FLOOR) must stay within SERIES_BOUND
SERIES_BOUND = 5e-5
FLOOR = 1e-6

#: sweep grid of ROADMAP item 1; the seed varies only the single-valued axes
SWEEP_AXES = (("--r1", "0.5:2:40"), ("--r", "0:2:10"), ("--phi", "0:6.28:16"))
SWEEP_POINTS = 3 * 40 * 10 * 16
CSV_HEADER = ["kind", "r1", "r2", "r", "theta", "phi", "dt1", "dt2", "t_offset",
              "method", "value", "terms_used", "converged"]


@dataclass
class Outcome:
    """Check result for one call.

    ``failed`` counts ops that gave no usable result: the call raised or
    exited with an error, or its output is missing, malformed or not finite.
    ``violations`` counts ops whose result came back well formed but outside
    its route's contract, ``converged: false`` included.  These are accuracy
    defects of the program: every run reports them, apart from failed ops.
    ``margins`` holds deviation/bound for every other checked op.
    """

    ops: int
    failed: int
    violations: int
    margins: list


def margin(value: float, reference: float) -> float:
    """Deviation from the reference as a share of the series contract."""
    return abs(value - reference) / max(abs(reference), FLOOR) / SERIES_BOUND


class Workload:
    """Common interface; subclasses define the calls and their checks."""

    name = ""
    #: ops (grid points, factor points or validate samples) per call
    ops_per_call = 1
    #: the first ``check_calls`` calls form the fixed, seed-determined set
    #: over which error_rate, worst_margin and traced counts are taken
    check_calls = 1
    #: consecutive calls per throughput batch
    batch_calls = 1
    #: whether call times are scaled by the calibration kernel (calibrate.py)
    calibrated = True

    def __init__(self, seed: int, scratch: str):
        self.seed = seed
        self.scratch = scratch

    def load(self) -> None:
        """Import the program; the first import of brfactor in the process."""
        import brfactor
        import brfactor.cli

        self.bf = brfactor
        self.cli = brfactor.cli

    def inputs(self, i: int):
        """Inputs of call ``i``, built without importing brfactor."""
        raise NotImplementedError

    def run(self, i: int):
        """Make call ``i``; return (seconds spent in the call, raw output)."""
        raise NotImplementedError

    def probe(self) -> None:
        """Reach the first result of every route the workload uses."""
        raise NotImplementedError

    def check(self, i: int, raw) -> Outcome:
        raise NotImplementedError


class SweepClosed(Workload):
    """``brfactor sweep`` over the 19200-point grid by the closed route."""

    name = "sweep-closed"
    ops_per_call = SWEEP_POINTS
    check_calls = 1
    batch_calls = 1
    #: sweep's pool runs on every processor; see calibrate.py
    calibrated = False
    #: grid points per call checked against the series route
    subsample = 240

    def inputs(self, i: int) -> dict:
        rng = random.Random(f"sweep-closed:{self.seed}:{i}")
        return {
            "--r2": repr(rng.uniform(0.8, 1.2)),
            "--theta": repr(rng.uniform(0.9, 1.2)),
            "--t": repr(rng.uniform(0.3, 0.7)),
        }

    def _argv(self, single: dict, out: str, axes=SWEEP_AXES, kinds="axx,axy,bxy") -> list:
        argv = ["sweep", "--kind", kinds]
        for flag, value in tuple(axes) + tuple(single.items()):
            argv += [flag, value]
        return argv + ["--out", out]

    def _sweep(self, argv: list, out: str):
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception:  # a sweep that raises fails all its points
            rc = None
        elapsed = time.perf_counter() - t0
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        except FileNotFoundError:
            data = b""
        return elapsed, rc, data

    def run(self, i: int):
        out = os.path.join(self.scratch, f"sweep-{os.getpid()}-{i}.csv")
        # start each sweep without the last one's garbage, as a fresh
        # command-line process would
        gc.collect()
        elapsed, rc, data = self._sweep(self._argv(self.inputs(i), out), out)
        picks = set(random.Random(f"sweep-closed-check:{self.seed}:{i}").sample(
            range(SWEEP_POINTS), self.subsample))
        raw = {"rc": rc, "bytes": len(data), "rows": 0, "bad_rows": 0, "picks": []}
        reader = csv.reader(io.StringIO(data.decode()))
        if next(reader, None) != CSV_HEADER:
            raw["rc"] = "bad header"
        for k, row in enumerate(reader):
            raw["rows"] += 1
            raw["bad_rows"] += not _good_row(row)
            if k in picks:
                raw["picks"].append(row)
        return elapsed, raw

    def probe(self) -> None:
        out = os.path.join(self.scratch, f"probe-{os.getpid()}.csv")
        first = tuple((flag, spec.split(":")[0]) for flag, spec in SWEEP_AXES)
        self._sweep(self._argv(self.inputs(0), out, first, "axx"), out)

    def check(self, i: int, raw) -> Outcome:
        if raw["rc"] != 0 or raw["rows"] != SWEEP_POINTS:
            return Outcome(SWEEP_POINTS, SWEEP_POINTS, 0, [])
        failed = raw["bad_rows"]
        violations = 0
        margins = []
        bf = self.bf
        for row in raw["picks"]:
            if not _good_row(row):
                continue  # already counted in bad_rows
            kind = bf.FactorKind(row[0])
            p = bf.RegionPair(*(float(x) for x in row[1:9]))
            reference = bf.factor_series(kind, p).value
            m = margin(float(row[10]), reference)
            if m > 1.0:
                violations += 1
            else:
                margins.append(m)
        return Outcome(SWEEP_POINTS, failed, violations, margins)


def _good_row(row: list) -> bool:
    """A CSV row of 13 fields, closed route, converged, finite value."""
    if len(row) != 13 or row[9] != "closed" or row[12] != "true":
        return False
    try:
        return math.isfinite(float(row[10]))
    except ValueError:
        return False


class SeriesRandom(Workload):
    """Per-point series calls on random geometries, both series routes."""

    name = "series-random"
    check_calls = 1200
    batch_calls = 300

    def inputs(self, i: int) -> tuple:
        rng = random.Random(f"series-random:{self.seed}:{i}")
        lo, hi = math.log(0.01), math.log(3.0)
        params = dict(
            r1=rng.uniform(0.3, 3.0),
            r2=rng.uniform(0.3, 3.0),
            r=0.0 if rng.random() < 0.1 else rng.uniform(0.0, 3.0),
            theta=rng.uniform(0.0, math.pi),
            phi=rng.uniform(0.0, 2.0 * math.pi),
            dt1=math.exp(rng.uniform(lo, hi)),
            dt2=math.exp(rng.uniform(lo, hi)),
            t_offset=rng.uniform(-4.0, 4.0),
        )
        route = ("factor_series", "factor_series_general")[i % 2]
        return KINDS[i % 3], route, params

    def run(self, i: int):
        kind_name, route, params = self.inputs(i)
        kind = self.bf.FactorKind(kind_name)
        p = self.bf.RegionPair(**params)
        fn = getattr(self.bf, route)
        t0 = time.perf_counter()
        try:
            result = fn(kind, p)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        return time.perf_counter() - t0, result

    def probe(self) -> None:
        # six calls cover the three kinds on both routes, so every root
        # table the workload uses is built
        for i in range(-6, 0):
            self.run(i)

    def check(self, i: int, raw) -> Outcome:
        if isinstance(raw, Exception) or not math.isfinite(raw.value):
            return Outcome(1, 1, 0, [])
        if not raw.converged:
            return Outcome(1, 0, 1, [])
        kind_name, _, params = self.inputs(i)
        reference = self.bf.factor_closed(
            self.bf.FactorKind(kind_name), self.bf.RegionPair(**params)
        ).value
        m = margin(raw.value, reference)
        return Outcome(1, 0, 1, []) if m > 1.0 else Outcome(1, 0, 0, [m])


_MARGIN_LINE = re.compile(r"^\S.*?\s+max dev (?P<dev>\S+)\s+bound (?P<bound>\S+)\s+(pass|FAIL)$")


class Validate(Workload):
    """``brfactor validate`` with a seed that advances per call."""

    name = "validate"
    #: four draws per suite cover the three kinds and all four ji4 signatures
    samples = 4
    ops_per_call = samples
    check_calls = 8
    batch_calls = 4

    def inputs(self, i: int) -> list:
        # validate takes a non-negative seed; derive one per call
        call_seed = random.Random(f"validate:{self.seed}:{i}").getrandbits(32)
        return ["validate", "--seed", str(call_seed), "--samples", str(self.samples)]

    def run(self, i: int):
        out = io.StringIO()
        argv = self.inputs(i)
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:  # a call that raises fails all its samples
                rc = None
            elapsed = time.perf_counter() - t0
        return elapsed, (rc, out.getvalue())

    def probe(self) -> None:
        self.run(-1)

    def check(self, i: int, raw) -> Outcome:
        """A report whose checks all pass is a pass; one that names a
        failing check, with the exit code 1 that goes with it, is a contract
        violation by the samples of that call; anything else failed."""
        rc, text = raw
        lines = text.splitlines()
        margins = []
        for line in lines:
            match = _MARGIN_LINE.match(line)
            if match:
                margins.append(float(match["dev"]) / float(match["bound"]))
        if len(margins) == 5:
            if rc == 0 and max(margins) <= 1.0 and lines[-1:] == ["overall: pass"]:
                return Outcome(self.samples, 0, 0, margins)
            if rc == 1 and max(margins) > 1.0 and lines[-1:] == ["overall: FAIL"]:
                return Outcome(self.samples, 0, self.samples, [])
        return Outcome(self.samples, self.samples, 0, [])


WORKLOADS = {w.name: w for w in (SweepClosed, SeriesRandom, Validate)}


def table1_gate(cli) -> dict:
    """Run ``table1`` once per route; True where all sixteen rows pass."""
    verdicts = {}
    for route in ROUTES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["table1", "--method", route])
        verdicts[route] = rc == 0 and "16/16 rows pass" in out.getvalue()
    return verdicts

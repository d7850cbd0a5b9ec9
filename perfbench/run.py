"""brfactor benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-closed --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics instead, from the spans ``spans.py``
records.  The last line of standard output is the result object; the lines
before it, each starting with ``#``, report the environment and every metric
by name with its unit.
Full results (and, traced, the spans) go to ``.bench_out/``.

An end-to-end run:

1. times ``SETUP_PROBES`` fresh interpreters, each running ``probe.py``
   up to the first result of the workload's routes (import and cold root
   tables included), scales each time by the kernel time the probe
   measures right after its first result (``calibrate.py``), and reports
   the median as ``setup_s``;
2. imports brfactor, makes the probe's calls once to warm the caches, then
   runs the workload's closed loop until ``--seconds`` of calls are timed
   and at least the fixed check set is done; on single-threaded workloads
   the call times are scaled to a reference processor speed measured
   between calls (``calibrate.py``), and the times as measured are
   printed beside them;
3. records peak resident memory, then checks every output and runs
   ``table1`` by all four routes as a gate.

``failed`` counts ops that gave no usable result.  Ops whose result lies
outside its route's contract are accuracy defects of the program; they are
counted and printed as ``contract_violations`` on every run.

A traced run times the import, runs the check set once traced from cold
(counts, cold root tables, spans), then alternates untraced and traced
passes over the same set until ``--seconds`` have passed; the difference of
their medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from calibrate import REFERENCE_S, Calibration  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, table1_gate  # noqa: E402

#: fresh interpreters timed per end-to-end run for setup_s
SETUP_PROBES = 3

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

_SIGS = ("0_1_1_0_0", "0_1_1_0_2", "0_1_1_m1_1", "1_1_1_0_1")

#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("import.cli_s", "s"),
    ("special_functions.bessel_roots.cold_s", "s"),
    ("special_functions.bessel_roots.calls", "count"),
    ("special_functions.sph_bessel.calls", "count"),
    ("special_functions.sph_bessel.elems", "count"),
    ("special_functions.sph_bessel.self_s", "s"),
    ("special_functions.angular_weight.calls", "count"),
    ("time_averages.heaviside.calls", "count"),
    ("time_averages.heaviside.self_s", "s"),
    ("time_averages.finite_avg.calls", "count"),
    ("time_averages.finite_avg.self_s", "s"),
    ("time_averages.infinite_avg.calls", "count"),
    ("time_averages.infinite_avg.self_s", "s"),
    ("time_averages.numeric_time_average.calls", "count"),
    ("time_averages.numeric_time_average.self_s", "s"),
    ("closed_form.factor_closed.calls", "count"),
    ("closed_form.factor_closed.self_s", "s"),
    ("closed_form.ji4.calls", "count"),
    ("closed_form.ji4.self_s", "s"),
) + tuple((f"closed_form.ji4.calls.{sig}", "count") for sig in _SIGS) + (
    ("closed_form.cancellation_warnings", "count"),
    ("fourier_bessel.factor_series.calls", "count"),
    ("fourier_bessel.factor_series.self_s", "s"),
    ("fourier_bessel.factor_series.terms", "count"),
    ("fourier_bessel.factor_series.nonconverged", "count"),
    ("fourier_bessel.factor_series_general.calls", "count"),
    ("fourier_bessel.factor_series_general.self_s", "s"),
    ("fourier_bessel.factor_series_general.terms", "count"),
    ("fourier_bessel.factor_series_general.nonconverged", "count"),
    ("oracle.factor_fourier_numeric.calls", "count"),
    ("oracle.factor_fourier_numeric.self_s", "s"),
    ("oracle.factor_fourier_numeric.quad_errors", "count"),
    ("oracle.ji4_numeric.calls", "count"),
    ("oracle.ji4_numeric.self_s", "s"),
    ("model.validate.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.sweep.csv_bytes", "bytes"),
    ("check.error_rate", "ratio"),
    ("check.worst_margin", "ratio"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_s", "s"),
)


# ---------------------------------------------------------------------------
# environment


def environment(seed: int, brf_threads) -> dict:
    """Versions, processor counts and commit recorded with every result."""
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        **versions,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "brf_threads": brf_threads,
        "commit": commit,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values: list) -> tuple:
    """(value, percentile, samples) at the highest percentile up to 99 that
    leaves at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies, and the median is
    returned: the maximum of a handful of calls says more about the machine
    than about the program.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0, n
    idx = min(math.ceil(0.99 * n) - 1, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def batch_rates(latencies: list, batch_calls: int, ops_per_call: int) -> list:
    """Ops per second of each complete batch of consecutive calls."""
    rates = []
    for lo in range(0, len(latencies) - batch_calls + 1, batch_calls):
        spent = sum(latencies[lo:lo + batch_calls])
        rates.append(batch_calls * ops_per_call / spent)
    return rates


def summarize(outcomes: list) -> tuple:
    """(ops, failed, contract violations, worst margin) over check outcomes."""
    ops = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    violations = sum(o.violations for o in outcomes)
    margins = [m for o in outcomes for m in o.margins]
    return ops, failed, violations, max(margins, default=0.0)


# ---------------------------------------------------------------------------
# running


@contextlib.contextmanager
def pinned_sinks():
    """Send the program's stdout and stderr to memory; yield the stderr sink."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield err


def cancellation_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if "CancellationWarning" in line)


def setup_probe(workload: str, seed: int) -> tuple:
    """(wall seconds from starting a fresh interpreter to its first result,
    the kernel seconds that interpreter measured right after)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(OUT)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        kernel_line = proc.stdout.readline()
        proc.stdout.close()
        rc = proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {rc})")
    return elapsed, float(kernel_line)


def run_calls(w, calls, seconds: float = 0.0, cal: Calibration = None) -> tuple:
    """Make calls in order, at least ``calls`` of them and until ``seconds``
    of call time are spent; return (latencies, raw outputs).

    With ``cal``, kernel bursts are timed between calls, outside the call
    times, and ``cal`` marks each call with the burst before it.
    """
    latencies, raws = [], []
    spent = 0.0
    while len(latencies) < calls or spent < seconds:
        if cal is not None:
            cal.mark()
        elapsed, raw = w.run(len(latencies))
        latencies.append(elapsed)
        raws.append(raw)
        spent += elapsed
    if cal is not None:
        cal.burst()
    return latencies, raws


def check_all(w, raws: list) -> tuple:
    """Check every output, then run the table1 gate; both untimed.

    The references these checks compute warn about cancellation like any
    caller; those warnings are not the program's output under test.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", w.bf.CancellationWarning)
        outcomes = [w.check(i, raw) for i, raw in enumerate(raws)]
        gate = table1_gate(w.cli)
    return outcomes, gate


def end_to_end(w, seconds: float) -> tuple:
    setup = [setup_probe(w.name, w.seed) for _ in range(SETUP_PROBES)]
    w.load()
    cal = Calibration() if w.calibrated else None
    with pinned_sinks() as err:
        w.probe()
        measured, raws = run_calls(w, w.check_calls, seconds, cal)
    latencies = measured if cal is None else cal.apply(measured)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes, gate = check_all(w, raws)

    per_op_ms = [1e3 * s / w.ops_per_call for s in latencies]
    p99, p99_rank, p99_n = tail_percentile(per_op_ms)
    attempted, failed, violations, _ = summarize(outcomes)
    check_ops, check_failed, check_violations, worst = summarize(outcomes[:w.check_calls])
    metrics = {
        "setup_s": statistics.median(s * REFERENCE_S / k for s, k in setup),
        "ops_per_s": statistics.median(batch_rates(latencies, w.batch_calls, w.ops_per_call)),
        "op_p50_ms": statistics.median(per_op_ms),
        "op_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_probes_s": [s for s, _ in setup],
        "setup_probes_kernel_s": [k for _, k in setup],
        "calibration": cal.summary() if cal else "none: times as measured (see calibrate.py)",
        "op_p99_rank": f"p{p99_rank:.2f} of {p99_n} calls",
        "calls": len(latencies),
        "timed_s": sum(measured),
        "measured_ops_per_s": statistics.median(
            batch_rates(measured, w.batch_calls, w.ops_per_call)),
        "measured_op_p50_ms": statistics.median(1e3 * s / w.ops_per_call for s in measured),
        "contract_violations": f"{violations} of {attempted} ops (all timed calls)",
        "error_rate": f"{(check_failed + check_violations) / check_ops:.6g} ratio "
                      f"({check_failed} failed and {check_violations} out of contract "
                      f"of {check_ops} ops in the first {w.check_calls} calls)",
        "worst_margin": f"{worst:.6g} ratio (deviation/bound, same ops)",
        "cancellation_warning_lines": cancellation_lines(err.getvalue()),
        "table1": gate,
    }
    return all(gate.values()), attempted, failed, metrics, notes


def traced(w, seconds: float, spans_path: Path) -> tuple:
    t0 = time.perf_counter()
    w.load()
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    with pinned_sinks() as err, warnings.catch_warnings():
        # entering catch_warnings clears the once-per-text registry, so the
        # warning lines counted here are those of this pass alone
        latencies, raws = run_calls(w, w.check_calls)
    tracer.remove()
    counts, _ = tracer.aggregate()
    tracer.dump(str(spans_path))
    tracer.reset()

    untraced_s, traced_s, self_times = [], [], []
    while True:
        with pinned_sinks():
            untraced_s.append(sum(run_calls(w, w.check_calls)[0]))
        tracer.install()
        with pinned_sinks():
            traced_s.append(sum(run_calls(w, w.check_calls)[0]))
        tracer.remove()
        self_times.append(tracer.aggregate()[1])
        tracer.reset()
        if time.perf_counter() - start >= seconds:
            break

    outcomes, gate = check_all(w, raws)
    attempted, failed, violations, worst = summarize(outcomes)

    metrics = {}
    for name, unit in PER_LAYER:
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            metrics[name] = statistics.median(t.get(span, 0.0) for t in self_times)
        else:
            metrics[name] = counts.get(name, 0)
    metrics.update({
        "import.cli_s": import_s,
        "closed_form.cancellation_warnings": cancellation_lines(err.getvalue()),
        "cli.sweep.csv_bytes": sum(r["bytes"] for r in raws) if w.name == "sweep-closed" else 0,
        "check.error_rate": (failed + violations) / attempted,
        "check.worst_margin": worst,
        "trace.untraced_pass_s": statistics.median(untraced_s),
        "trace.traced_pass_s": statistics.median(traced_s),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(untraced_s),
    })
    notes = {
        "contract_violations": f"{violations} of {attempted} ops (first {w.check_calls} calls)",
        "cold_pass_s": sum(latencies),
        "pairs": len(untraced_s),
        "spans": str(spans_path.relative_to(ROOT)),
        "table1": gate,
    }
    return all(gate.values()), attempted, failed, metrics, notes


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "brfactor" / "__init__.py").is_file():
        print(f"error: no brfactor sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # sweep's pool size must be the default users get
    brf_threads = os.environ.pop("BRF_THREADS", None)
    OUT.mkdir(exist_ok=True)
    env = environment(args.seed, brf_threads)

    w = WORKLOADS[args.workload](args.seed, str(OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        correct, attempted, failed, values, notes = traced(
            w, args.seconds, OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
        units = dict(PER_LAYER)
    else:
        correct, attempted, failed, values, notes = end_to_end(w, args.seconds)
        units = dict(END_TO_END)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump({"environment": env, "notes": notes, **result}, fh, indent=1)

    print(f"# brfactor benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}")
    print("# environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"# {name:<52} {m['value']:.6g} {m['unit']}")
    for name, note in notes.items():
        print(f"# {name:<52} {note}")
    print(f"# correct={correct}  attempted={attempted}  failed={failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

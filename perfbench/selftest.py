"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Kept out of the repository's test suite on purpose: one test runs the
benchmark end to end, which takes about ten seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from calibrate import PERIOD_S, REFERENCE_S, Calibration  # noqa: E402
from workloads import SWEEP_POINTS, WORKLOADS, SeriesRandom, SweepClosed, Validate  # noqa: E402

SCRATCH = str(ROOT / ".bench_out")
Path(SCRATCH).mkdir(exist_ok=True)


def sweep_row(bf, kind: str, p, value: float) -> list:
    fields = [getattr(p, f) for f in ("r1", "r2", "r", "theta", "phi", "dt1", "dt2", "t_offset")]
    return [kind] + [f"{x:.17g}" for x in fields] + ["closed", f"{value:.16e}", "10", "true"]


class PerturbedValuesCount(unittest.TestCase):
    """A value moved beyond its contract counts as a contract violation; a
    missing or malformed result counts as a failed op."""

    def test_series_random(self):
        w = SeriesRandom(0, SCRATCH)
        w.load()
        i = next(i for i in range(60) if w.check(i, w.run(i)[1]).margins)
        _, result = w.run(i)
        self.assertEqual(run.summarize([w.check(i, result)])[1:3], (0, 0))
        bad = dataclasses.replace(result, value=result.value * (1 + 2e-4) + 1e-9)
        stalled = dataclasses.replace(result, converged=False)
        broken = dataclasses.replace(result, value=float("nan"))
        outcomes = [w.check(i, r) for r in (result, bad, stalled, broken)]
        self.assertEqual(run.summarize(outcomes)[:3], (4, 1, 2))
        self.assertEqual(run.summarize([w.check(i, RuntimeError())])[:3], (1, 1, 0))

    def test_sweep_closed(self):
        w = SweepClosed(0, SCRATCH)
        w.load()
        bf = w.bf
        p = bf.RegionPair(1.0, 1.0, 0.5, 1.0, 0.3, 1.0, 1.0, 0.5)
        value = bf.factor_closed(bf.FactorKind.AXX, p).value
        raw = {"rc": 0, "rows": SWEEP_POINTS, "bad_rows": 0, "bytes": 1,
               "picks": [sweep_row(bf, "axx", p, value)]}
        self.assertEqual((w.check(0, raw).failed, w.check(0, raw).violations), (0, 0))
        raw["picks"].append(sweep_row(bf, "axx", p, value * (1 + 1e-3)))
        self.assertEqual((w.check(0, raw).failed, w.check(0, raw).violations), (0, 1))
        raw["rows"] -= 1
        self.assertEqual(w.check(0, raw).failed, SWEEP_POINTS)

    def test_validate(self):
        w = Validate(0, SCRATCH)
        w.load()
        rc, text = w.run(0)[1]
        self.assertEqual(rc, 0)
        self.assertEqual(w.check(0, (rc, text)).failed, 0)
        first = next(line for line in text.splitlines() if "max dev" in line)
        worse = first.replace(first.split("max dev ")[1].split()[0], "9.000e-01")
        reported = text.replace(first, worse[: -len("pass")] + "FAIL")
        reported = reported.replace("overall: pass", "overall: FAIL")
        self.assertEqual(w.check(0, (1, reported)).violations, w.samples)
        # a deviation the report does not flag is malformed output
        self.assertEqual(w.check(0, (rc, text.replace(first, worse))).failed, w.samples)
        self.assertEqual(w.check(0, (None, "")).failed, w.samples)


class SeedsChangeInputsNotCounts(unittest.TestCase):
    def test_every_workload(self):
        for cls in WORKLOADS.values():
            a, b = cls(1, SCRATCH), cls(2, SCRATCH)
            ia = [a.inputs(i) for i in range(a.check_calls)]
            ib = [b.inputs(i) for i in range(b.check_calls)]
            self.assertEqual(len(ia), len(ib))
            self.assertNotEqual(ia, ib, cls.name)
            self.assertEqual(ia, [cls(1, SCRATCH).inputs(i) for i in range(a.check_calls)])

    def test_sweep_grid_size(self):
        for seed in (1, 2):
            w = SweepClosed(seed, SCRATCH)
            argv = w._argv(w.inputs(0), "out.csv")
            count = len(argv[argv.index("--kind") + 1].split(","))
            for flag in ("--r1", "--r2", "--r", "--theta", "--phi", "--t"):
                spec = argv[argv.index(flag) + 1].split(":")
                count *= int(spec[2]) if len(spec) == 3 else 1
            self.assertEqual(count, SWEEP_POINTS)


class NamesMatchBenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_declared_names(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in self.spec["per_layer"]],
                         list(run.PER_LAYER))

    def test_printed_names(self):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "7",
             "--seconds", "0.1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in self.spec["end_to_end"]})
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))


class CalibrationScales(unittest.TestCase):
    def test_apply(self):
        cal = Calibration()
        cal.kernel_s = [REFERENCE_S, REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
        cal.marks = [0, 1, 2]
        self.assertEqual(cal.apply([1.0, 3.0, 1.0]), [1.0, 2.0, 0.5])

    def test_bursts_bracket_every_call(self):
        class Sleeper:
            def run(self, i):
                time.sleep(PERIOD_S)
                return PERIOD_S, i

        cal = Calibration()
        latencies, raws = run.run_calls(Sleeper(), 3, cal=cal)
        self.assertEqual(raws, [0, 1, 2])
        self.assertEqual(cal.marks, [0, 1, 2])
        self.assertEqual(len(cal.kernel_s), 4)
        self.assertEqual(len(cal.apply(latencies)), 3)
        self.assertTrue(all(k > 0 for k in cal.kernel_s))


class Harness(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail_percentile(list(range(1000)))[:2], (989, 99.0))
        self.assertEqual(run.tail_percentile(list(range(20)))[:2], (9, 50.0))
        self.assertEqual(run.tail_percentile([3.0, 1.0, 2.0])[:2], (2.0, 50.0))

    def test_refuses_without_sources(self):
        bare = Path(SCRATCH) / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "validate", "--seed", "0",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

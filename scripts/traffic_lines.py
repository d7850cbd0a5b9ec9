#!/usr/bin/env python3
"""List the statements of brfactor that the benchmark and the CLI never run.

    python3 scripts/traffic_lines.py [--calls N] [SRC]

Under sys.settrace, restricted to SRC/brfactor (SRC defaults to `src`), it
runs the first N calls (`run(i)`) of each perfbench/workloads.py workload,
`table1`, `factor` and a small `sweep` on every route, numeric `factor` at
1100 and 3000 tail periods (deep tails rescale on the way) and `validate
--seed 0`, then prints `file:line: source` for each statement start that no
run reached.  Other flags keep their defaults: a line only another setting
reaches is listed too.  perfbench is only read.
"""

import argparse
import contextlib
import io
import os
import pathlib
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
POINT = ["--kind", "axx", "--r1", "1.0", "--r2", "2.0", "--r", "1.0", "--theta", "0.5",
         "--phi", "1.0", "--dt1", "1.0", "--dt2", "2.0", "--t", "0.5"]
GRID = ["--kind", "axx,axy,bxy", "--r1", "0.5:2:3", "--r", "0:2:2", "--phi", "0:6.28:2",
        "--r2", "1.1", "--theta", "1.0", "--t", "0.5", "--out", os.devnull]


def _statements(code) -> set:
    """Lines that start a statement of `code` and of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _statements(const)
    return lines


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=os.path.join(ROOT, "src"))
    ap.add_argument("--calls", type=int, default=3, help="calls per workload")
    args = ap.parse_args(argv)
    package = os.path.join(os.path.abspath(args.src), "brfactor")
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    import workloads
    reached = defaultdict(set)

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(package + os.sep):
            reached[frame.f_code.co_filename].add(frame.f_lineno)
            return trace

    with tempfile.TemporaryDirectory() as scratch, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(trace)
        for cls in workloads.WORKLOADS.values():
            w = cls(0, scratch)
            w.load()
            for i in range(args.calls):
                w.run(i)
        for route in workloads.ROUTES:
            for command in (["table1"], ["factor"] + POINT, ["sweep"] + GRID):
                w.cli.main(command + ["--method", route])
        for periods in ("1100", "3000"):
            w.cli.main(["factor", "--method", "numeric", "--tail-periods", periods] + POINT)
        w.cli.main(["validate", "--seed", "0"])
        sys.settrace(None)
    for path in sorted(pathlib.Path(package).glob("*.py")):
        source = path.read_text()
        for line in sorted(_statements(compile(source, path, "exec")) - reached[str(path)]):
            print(f"{path.name}:{line}: {source.splitlines()[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

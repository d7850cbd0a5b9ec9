"""Setup probe: a fresh interpreter up to the first result of a workload.

    python3 perfbench/probe.py WORKLOAD SEED SCRATCH_DIR

Imports brfactor from the checkout's ``src``, makes the workload's probe
calls with the program's output sent to memory, then prints ``ready``.
The parent times from starting this process to reading that line.  Then
the probe times ``PROBE_PASSES`` passes of the calibration kernel and
prints their mean seconds, which the parent uses to scale that time to the
reference speed.
"""

import contextlib
import io
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from calibrate import PROBE_PASSES, Calibration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
w = WORKLOADS[name](seed, scratch)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    w.load()
    w.probe()
print("ready", flush=True)
cal = Calibration()
print(repr(statistics.mean(cal.kernel() for _ in range(PROBE_PASSES))), flush=True)

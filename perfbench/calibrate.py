"""Processor-speed calibration for the single-threaded workloads.

On a host shared with other tenants a processor runs the same code faster
or slower in phases that last from seconds to minutes, by up to 40%; a run
of half a minute cannot average them out, so the medians of runs made a
few minutes apart disagree by as much.  The speed the calls get is measured
instead: between calls, a fixed kernel of Python float arithmetic and small
numpy array operations (the mix the program's calls are made of) is timed
in short bursts, in the calling thread.  Each call's time is then scaled to
the reference speed, at which one kernel pass takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / (kernel time around the call)

where the kernel time around a call is the mean of the bursts just before
and just after it.  The kernel does not touch brfactor, so a change to the
program moves the scaled times exactly as it moves the measured ones.
Both are reported.

Calls that run a thread pool (``sweep``) are not calibrated: their speed
depends on how the pool's threads share the interpreter lock across
processors, and neither this kernel in one thread, nor pinned to each
processor in turn, nor run on a pool of the same size tracked it from one
run to the next.  Such workloads report their times as measured.
"""

from __future__ import annotations

import math
import statistics
import time

#: seconds between bursts
PERIOD_S = 0.5
#: kernel passes per burst; the burst reports their median
REPEATS = 3
#: kernel passes a setup probe times right after its first result; the
#: speed can switch within a second, and the mean of this many passes
#: follows the probe's mix of fast and slow spells better than one burst
PROBE_PASSES = 24
#: kernel seconds at the reference speed (about the median kernel time on
#: the hardware of baseline.json)
REFERENCE_S = 0.008


class Calibration:
    """Bursts of the kernel taken between calls, and the scale they give."""

    def __init__(self):
        import numpy  # here, not at module level: the harness times brfactor's import

        self._cos = numpy.cos
        self._grid = numpy.linspace(0.0, 1.0, 256)
        self.stamps = []  # perf_counter at each burst
        self.kernel_s = []  # median kernel seconds of each burst
        self.marks = []  # for each call, the index of the burst before it

    def kernel(self) -> float:
        """Seconds for one pass of the fixed kernel."""
        cos, grid = self._cos, self._grid
        t0 = time.perf_counter()
        s = 0.0
        for k in range(20000):
            s += math.sin(k * 1e-3) * math.exp(-k * 1e-5)
        for k in range(200):
            s += float((cos(grid * k) * grid).sum())
        return time.perf_counter() - t0

    def burst(self) -> None:
        self.stamps.append(time.perf_counter())
        self.kernel_s.append(statistics.median(self.kernel() for _ in range(REPEATS)))

    def mark(self) -> None:
        """Call just before a call: take a burst if one is due, and note
        which burst precedes the call."""
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= PERIOD_S:
            self.burst()
        self.marks.append(len(self.stamps) - 1)

    def apply(self, latencies: list) -> list:
        """Scale the marked calls' latencies to the reference speed.

        Take a final burst after the last call first.
        """
        kernel_s = self.kernel_s
        return [s * REFERENCE_S / (0.5 * (kernel_s[b] + kernel_s[b + 1]))
                for s, b in zip(latencies, self.marks)]

    def summary(self) -> str:
        k = self.kernel_s
        return (f"times scaled to {REFERENCE_S} s per kernel pass; {len(k)} bursts, "
                f"kernel median {statistics.median(k):.6g} s, range {min(k):.6g}-{max(k):.6g} s")

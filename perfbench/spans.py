"""Span recorder for the traced run.

Spans are recorded from outside the program: each traced public function is
replaced, at every name another brfactor module (or the package) imports it
under, by a wrapper that opens a span, calls through and closes it.  Two
functions are also wrapped in their own module, because the calls that
matter are made there: ``ji4`` (called by ``factor_closed``) and
``cli.main`` (called by the benchmark).  ``RegionPair.validate`` is a method
and is wrapped on its class.  A function's calls inside its own module are
otherwise not spans: ``time_averages`` calls ``heaviside`` about six times
for every call another module makes.

Each thread keeps its own span buffer, so recording takes no lock.  A span
opened on a thread with no open span (a ``sweep`` pool worker) takes the
innermost open span of the thread that installed the tracer as its parent.
Self time is a span's duration minus the part of it that its children
cover, children on other threads included.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from collections import Counter, defaultdict

MODULES = (
    "brfactor",
    "brfactor.cli",
    "brfactor.closed_form",
    "brfactor.fourier_bessel",
    "brfactor.model",
    "brfactor.oracle",
    "brfactor.special_functions",
    "brfactor.time_averages",
)

#: (defining module, function, also wrap the defining module's own binding)
TRACED = (
    ("special_functions", "sph_bessel", False),
    ("special_functions", "bessel_roots", False),
    ("special_functions", "angular_weight", False),
    ("time_averages", "heaviside", False),
    ("time_averages", "finite_avg", False),
    ("time_averages", "infinite_avg", False),
    ("time_averages", "numeric_time_average", False),
    ("closed_form", "factor_closed", False),
    ("closed_form", "ji4", True),
    ("fourier_bessel", "factor_series", False),
    ("fourier_bessel", "factor_series_general", False),
    ("oracle", "factor_fourier_numeric", False),
    ("oracle", "ji4_numeric", False),
    ("cli", "main", True),
)


class _Buffer:
    """Spans of one thread: parallel lists, one entry per span."""

    def __init__(self, index: int):
        self.index = index
        self.name = []
        self.start = []
        self.end = []
        self.parent = []  # (buffer index, span index) or None
        self.stack = []
        self.counts = Counter()


class Tracer:
    """Installs span-recording wrappers and aggregates one pass of spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._patches = []
        self._home = None
        self._seen_tables = set()

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            if buf.stack:
                parent = (buf.index, buf.stack[-1])
            else:
                home = tracer._home
                parent = (home.index, home.stack[-1]) if home is not buf and home.stack else None
            idx = len(buf.name)
            buf.name.append(name)
            buf.parent.append(parent)
            buf.end.append(0.0)
            buf.stack.append(idx)
            start = time.perf_counter()
            buf.start.append(start)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                buf.end[idx] = end
                buf.stack.pop()
                buf.counts[name + ".calls"] += 1
                if observe is not None:
                    observe(buf.counts, args, result, error, end - start)

        return traced

    # -- per-function counts ----------------------------------------------

    def _observers(self) -> dict:
        def sph_bessel(counts, args, result, error, dt):
            counts["special_functions.sph_bessel.elems"] += int(getattr(args[1], "size", 1))

        def bessel_roots(counts, args, result, error, dt):
            key = (args[0], args[1])
            if key not in self._seen_tables:
                self._seen_tables.add(key)
                counts["special_functions.bessel_roots.cold_s"] += dt

        def ji4(counts, args, result, error, dt):
            a = args[0]
            sig = "_".join(str(v).replace("-", "m") for v in (a.n, a.l1, a.l2, a.l3, a.l4))
            counts["closed_form.ji4.calls." + sig] += 1

        def series(name):
            def observe(counts, args, result, error, dt):
                if result is not None:
                    counts[name + ".terms"] += result.terms_used
                    counts[name + ".nonconverged"] += int(not result.converged)
            return observe

        def oracle(counts, args, result, error, dt):
            if error is not None and type(error).__name__ == "QuadratureError":
                counts["oracle.factor_fourier_numeric.quad_errors"] += 1

        return {
            "special_functions.sph_bessel": sph_bessel,
            "special_functions.bessel_roots": bessel_roots,
            "closed_form.ji4": ji4,
            "fourier_bessel.factor_series": series("fourier_bessel.factor_series"),
            "fourier_bessel.factor_series_general": series("fourier_bessel.factor_series_general"),
            "oracle.factor_fourier_numeric": oracle,
        }

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced binding; the calling thread becomes home."""
        self._home = self._buffer()
        modules = [sys.modules[m] for m in MODULES]
        observers = self._observers()
        for owner, fname, own in TRACED:
            defining = sys.modules["brfactor." + owner]
            fn = getattr(defining, fname)
            name = f"{owner}.{fname}"
            wrapper = self._wrap(name, fn, observers.get(name))
            for module in modules:
                if getattr(module, fname, None) is fn and (own or module is not defining):
                    self._patches.append((module, fname, fn))
                    setattr(module, fname, wrapper)
        region_pair = sys.modules["brfactor.model"].RegionPair
        validate = region_pair.validate
        self._patches.append((region_pair, "validate", validate))
        region_pair.validate = self._wrap("model.validate", validate, None)

    def remove(self) -> None:
        """Restore every original binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- one pass -----------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts; keep the set of built root tables."""
        for buf in self._buffers:
            buf.name.clear()
            buf.start.clear()
            buf.end.clear()
            buf.parent.clear()
            buf.counts.clear()

    def aggregate(self) -> tuple:
        """(counts, self seconds per span name) of the spans recorded so far."""
        counts = Counter()
        children = defaultdict(list)
        for buf in self._buffers:
            counts.update(buf.counts)
            for i, parent in enumerate(buf.parent):
                if parent is not None:
                    children[parent].append((buf.start[i], buf.end[i]))
        self_s = defaultdict(float)
        for buf in self._buffers:
            for i, name in enumerate(buf.name):
                start, end = buf.start[i], buf.end[i]
                kids = children.get((buf.index, i))
                self_s[name] += (end - start) - (_covered(kids, start, end) if kids else 0.0)
        return counts, self_s

    def dump(self, path: str) -> None:
        """Write the recorded spans, columnar, as gzip-compressed JSON."""
        names = sorted({n for buf in self._buffers for n in buf.name})
        ids = {n: k for k, n in enumerate(names)}
        spans = []
        for buf in self._buffers:
            for i, name in enumerate(buf.name):
                parent = buf.parent[i]
                spans.append([
                    ids[name], buf.index, round(buf.start[i], 9), round(buf.end[i], 9),
                    parent[0] if parent else -1, parent[1] if parent else -1,
                ])
        doc = {
            "fields": ["name", "thread", "start_s", "end_s", "parent_thread", "parent_span"],
            "names": names,
            "spans": spans,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _covered(intervals: list, start: float, end: float) -> float:
    """Length of the union of intervals, clipped to (start, end)."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total

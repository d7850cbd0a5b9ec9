"""The benchmark's traced run wraps brfactor functions by name.

`perfbench/spans.py` lists them in `TRACED`; a name deleted or moved in the
package would break the traced run, so the list is loaded from the file and
checked here, and one traced call is made through it.
"""

import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    for name in spans.MODULES:
        importlib.import_module(name)
    for owner, fname, _ in spans.TRACED:
        module = importlib.import_module("brfactor." + owner)
        assert callable(getattr(module, fname, None)), f"brfactor.{owner}.{fname}"


def test_traced_call_records_spans():
    spans = _load_spans()
    for name in spans.MODULES:
        importlib.import_module(name)
    cli = importlib.import_module("brfactor.cli")
    brfactor = importlib.import_module("brfactor")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([
                "factor", "--kind", "axx", "--r1", "1", "--r2", "1", "--r", "0.5",
                "--method", "series-general",
            ]) == 0
        series_counts, self_s = tracer.aggregate()
        # the series routes take no ji4; a direct call is counted by signature
        brfactor.ji4(brfactor.Ji4Args(0, 1, 1, 0, 0, 1.0, 1.0, 0.5, 0.0))
        counts, _ = tracer.aggregate()
    finally:
        tracer.remove()
    assert series_counts["cli.main.calls"] == 1
    assert series_counts["fourier_bessel.factor_series_general.calls"] == 1
    assert series_counts["closed_form.ji4.calls"] == 0
    assert self_s["cli.main"] > 0.0
    assert counts["closed_form.ji4.calls"] == 1
    assert counts["closed_form.ji4.calls.0_1_1_0_0"] == 1


def test_cancellation_warning_is_exported():
    # perfbench/run.py silences it by this name outside TRACED
    brfactor = importlib.import_module("brfactor")
    assert issubclass(brfactor.CancellationWarning, Warning)

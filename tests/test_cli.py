"""Command line surface: formatting, parsing, exit codes, stable outputs."""

import argparse
import csv
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import brfactor
from brfactor.cli import build_parser, main, parse_angle
from brfactor.closed_form import CancellationWarning, factor_closed, factor_closed_batch
from brfactor.fourier_bessel import factor_series, factor_series_general
from brfactor.model import FIELDS, FactorKind, RegionPair, SeriesConfig, round4, table1_rows
from brfactor.oracle import QuadConfig, factor_fourier_numeric

# coincident-region rows cancel structurally on some probes; benign here
pytestmark = pytest.mark.filterwarnings(
    "ignore::brfactor.closed_form.CancellationWarning"
)


@pytest.mark.parametrize(
    "x,expected",
    [
        (-1.6249999999999998, "-1.625e+0"),
        (-0.002850124999999999, "-2.850e-3"),
        (0.1953124999999998, "1.953e-1"),
        (0.0059012176780268094, "5.901e-3"),
        (1062.5, "1.062e+3"),  # ties round half to even
        (1063.5, "1.064e+3"),
        (-1062.5, "-1.062e+3"),
        (0.0, "0.000e+0"),
        (1.0, "1.000e+0"),
        (9.9996e4, "1.000e+5"),
        (1.23456e-7, "1.235e-7"),
        (math.inf, "Infinity"),
        (math.nan, "NaN"),
    ],
)
def test_round4(x, expected):
    assert round4(x) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("pi/6", math.pi / 6),
        ("1/6pi", math.pi / 6),
        ("0.5pi", math.pi / 2),
        ("pi", math.pi),
        ("-pi/3", -math.pi / 3),
        ("1.5707", 1.5707),
        ("0", 0.0),
        (" pi / 6 ", math.pi / 6),
    ],
)
def test_parse_angle(text, expected):
    assert parse_angle(text) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("text", ["abc", "pi/0", "1/2tau", ""])
def test_parse_angle_rejects_garbage(text):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_angle(text)


def test_table_rows_expand_reverse_pairs():
    rows = table1_rows()
    assert len(rows) == 16
    flags = [row.is_reverse_of_previous for row in rows]
    assert flags == [False, False, False, True] + [False, True] * 6
    # table1 compares round4(value) with the printed string itself
    for row in rows:
        assert round4(float(row.expected)) == row.expected


FACTOR_ARGS = [
    "factor", "--kind", "axx", "--r1", "1", "--r2", "1", "--r", "0",
    "--dt1", "1", "--dt2", "1", "--t", "0",
]


def test_factor_json_record(capsys):
    assert main(FACTOR_ARGS + ["--method", "closed"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["kind"] == "axx"
    assert record["method"] == "closed"
    assert record["value"] == pytest.approx(-1.625, rel=1e-12)
    assert record["converged"] is True
    assert record["inputs"]["r1"] == 1.0


def test_factor_methods_agree(capsys):
    values = {}
    for method in ("closed", "series", "series-general", "numeric"):
        assert main(FACTOR_ARGS + ["--method", method]) == 0
        values[method] = json.loads(capsys.readouterr().out)["value"]
    for method in ("series", "series-general", "numeric"):
        assert values[method] == pytest.approx(values["closed"], abs=5e-4)


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    # a new interpreter that imports this checkout's brfactor
    src = str(Path(brfactor.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


DISPLACED_ARGS = [
    "factor", "--kind", "axx", "--r1", "1", "--r2", "1.2", "--r", "0.5",
    "--theta", "0.3", "--phi", "0.2", "--dt1", "1", "--dt2", "1", "--t", "0.5",
]


def test_analytic_routes_load_no_scipy():
    script = f"""
import contextlib, io, sys
import brfactor, brfactor.cli
for method in ("closed", "series", "series-general"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert brfactor.cli.main({DISPLACED_ARGS!r} + ["--method", method]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]"]


def test_numeric_route_loads_scipy_on_demand():
    # the numeric route and validate run on numpy alone: scipy is never demanded
    script = f"""
import contextlib, io, sys
import brfactor.cli
assert "scipy" not in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert brfactor.cli.main({DISPLACED_ARGS!r} + ["--method", "numeric"]) == 0
    assert brfactor.cli.main(["validate", "--samples", "1"]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
print(out.getvalue().splitlines()[0])
"""
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["method"] == "numeric"
    assert math.isfinite(record["value"])


def test_convergence_study_logs_every_node(tmp_path):
    out = tmp_path / "convergence.csv"
    proc = _fresh_python(
        str(SCRIPTS / "convergence_study.py"), "--rows", "1", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    # summary lines: row, route, closed, n(4-digit), n(stop), converged
    stops = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 6 and fields[0] == "1":
            stops[fields[1]] = int(fields[4])
    assert set(stops) == {"series", "series-general"}
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for route, used in stops.items():
        runs = []
        for row in rows:
            if row["route"] != route:
                continue
            n = int(row["n"])
            if n == 1:
                runs.append([])
            runs[-1].append(n)
        # the general route logs each l channel as its own run from n = 1
        assert all(run == list(range(1, len(run) + 1)) for run in runs)
        assert max(len(run) for run in runs) == used
        if route == "series":
            assert len(runs) == 1


def test_factor_angle_expressions(capsys):
    args = [
        "factor", "--kind", "axy", "--r1", "1", "--r2", "1", "--r", "1",
        "--theta", "pi/6", "--phi", "pi/3", "--dt1", "1", "--dt2", "1",
        "--t", "0.5",
    ]
    assert main(args) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == pytest.approx(0.06636208110132678, rel=1e-12)


def test_factor_rejects_bad_geometry(capsys):
    args = [a if a != "1" else a for a in FACTOR_ARGS]
    args[args.index("--r1") + 1] = "-1"
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err != ""


def test_factor_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["factor", "--kind", "axx", "--r2", "1"])
    assert exc_info.value.code == 2


def test_factor_unknown_method_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(FACTOR_ARGS + ["--method", "exact"])
    assert exc_info.value.code == 2


def test_factor_impossible_budget_exits_3(capsys):
    args = FACTOR_ARGS + [
        "--method", "numeric", "--abs-tol", "1e-30", "--rel-tol", "1e-30",
    ]
    assert main(args) == 3
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["converged"] is False
    assert record["tail_estimate"] is None
    assert record["value"] == pytest.approx(-1.625, abs=1e-3)
    # the record is the whole report, as on the series routes
    assert captured.err == ""


def test_sweep_numeric_stall_is_a_flagged_row(capsys):
    args = [
        "sweep", "--kind", "axx", "--r1", "1", "--r2", "1", "--r", "0:1:2",
        "--method", "numeric", "--abs-tol", "1e-30", "--rel-tol", "1e-30",
    ]
    # every row is still written, and the exit code says one did not converge
    assert main(args) == 3
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(row["method"], row["terms_used"], row["converged"]) for row in rows] == [
        ("numeric", "0", "false")
    ] * 2
    assert float(rows[0]["value"]) == pytest.approx(-1.625, abs=1e-3)


def test_sweep_series_stall_exits_3(capsys):
    args = [
        "sweep", "--kind", "axx,bxy", "--r1", "1", "--r2", "1", "--r", "1",
        "--theta", "pi/6", "--phi", "pi/3", "--t", "0.5", "--method", "series",
        "--n-max", "25",
    ]
    assert main(args) == 3
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 2 and "false" in [row["converged"] for row in rows]


def test_series_depth_starves_and_exits_3(capsys):
    args = [
        "factor", "--kind", "bxy", "--r1", "1", "--r2", "1", "--r", "1",
        "--theta", "pi/6", "--phi", "pi/3", "--dt1", "1", "--dt2", "1",
        "--t", "0.5", "--method", "series", "--n-max", "25",
    ]
    assert main(args) == 3
    record = json.loads(capsys.readouterr().out)
    assert record["converged"] is False
    assert record["terms_used"] == 25


@pytest.mark.parametrize("method", ["closed", "series", "series-general", "numeric"])
def test_table1_passes(method, capsys):
    assert main(["table1", "--method", method]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    body = [line for line in lines if line.split()[0].isdigit()]
    assert len(body) == 16
    assert all("pass" in line for line in body)
    assert lines[-1].startswith("16/16 rows pass")


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "series", "--n-max", "60"],
        ["--method", "series-general", "--n-max", "100"],
        ["--method", "numeric", "--abs-tol", "1e-30", "--rel-tol", "1e-30"],
    ],
    ids=["series", "series-general", "numeric"],
)
def test_table1_fails_rows_that_did_not_converge(flags, tmp_path, capsys):
    # at these settings every converged row rounds to its printed value,
    # and every unconverged row fails
    path = tmp_path / "rows.csv"
    assert main(["table1", *flags, "--csv", str(path)]) == 3
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line.split()[-1] for line in lines if line.split()[0].isdigit()]
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(verdicts) == len(rows) == 16
    assert any(row["converged"] == "false" for row in rows)
    for verdict, row in zip(verdicts, rows):
        passed = row["converged"] == "true"
        assert verdict == ("pass" if passed else "FAIL")
        assert row["passed"] == ("true" if passed else "false")
    assert lines[-1].startswith(f"{verdicts.count('pass')}/16 rows pass")


def test_table1_csv_is_deterministic(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert main(["table1", "--method", "closed", "--csv", str(path_a)]) == 0
    assert main(["table1", "--method", "closed", "--csv", str(path_b)]) == 0
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()
    with open(path_a, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert all(row["passed"] == "true" for row in rows)
    got = float(rows[0]["value"])
    assert got == pytest.approx(-1.625, rel=1e-12)


def test_sweep_grid_order_and_stability(tmp_path, capsys):
    # the grid crosses r = 0, puts corner lags exactly on zero (t = -1, 0, 1
    # with unit durations) and has a dead window (t = -5); each kind is one
    # batch, which must equal its batches of one row by row
    out_a = tmp_path / "sweep_a.csv"
    out_b = tmp_path / "sweep_b.csv"
    args = [
        "sweep", "--kind", "axx,axy,bxy", "--r1", "1.0", "--r2", "1.0", "--r", "0:1:3",
        "--theta", "pi/2", "--phi", "0:6.2831853:8", "--dt1", "1.0",
        "--dt2", "1.0", "--t", "-5:1:13",
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a, newline="") as fh:
        rows = list(csv.DictReader(fh))
    phis = np.linspace(0.0, 6.2831853, 8).tolist()
    ts = np.linspace(-5.0, 1.0, 13).tolist()
    grid = itertools.product(("axx", "axy", "bxy"), (0.0, 0.5, 1.0), phis, ts)
    assert [
        (row["kind"], float(row["r"]), float(row["phi"]), float(row["t_offset"]))
        for row in rows
    ] == list(grid)

    flagged = []
    for row in rows:
        p = RegionPair(*(float(row[name]) for name in FIELDS))
        with warnings.catch_warnings(record=True) as one:
            warnings.simplefilter("always")
            single = factor_closed(FactorKind(row["kind"]), p)
        flagged.append(any(issubclass(w.category, CancellationWarning) for w in one))
        assert row["value"] == f"{single.value:.16e}"
        assert int(row["terms_used"]) == single.terms_used
        assert row["converged"] == "true"
        if p.t_offset == -5.0:
            assert single.value == 0.0 and single.terms_used == 0
    # the same points are flagged: one warning per kind names how many,
    # and the batch marks exactly the points whose batch of one warns
    counts = [
        int(re.search(r"at (\d+) of", str(w.message)).group(1))
        for w in caught
        if issubclass(w.category, CancellationWarning)
    ]
    assert sum(counts) == sum(flagged) > 0
    for kind in ("axx", "axy", "bxy"):
        picks = [k for k, row in enumerate(rows) if row["kind"] == kind]
        batch = RegionPair(*(np.array([float(rows[k][name]) for k in picks]) for name in FIELDS))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CancellationWarning)
            cancelled = factor_closed_batch(FactorKind(kind), batch).cancelled
        assert cancelled.tolist() == [flagged[k] for k in picks]

    # A_xy follows sin(2 phi): zero at multiples of pi/2, sign flips between
    values = {
        float(row["phi"]): float(row["value"])
        for row in rows
        if row["kind"] == "axy" and row["r"] == "1" and row["t_offset"] == "0.5"
    }
    assert list(values) == phis
    assert abs(values[0.0]) < 1e-12
    assert values[phis[1]] * values[phis[3]] < 0.0


def test_sweep_accepts_negative_leading_ranges(capsys):
    args = [
        "sweep", "--kind", "axx", "--r1", "1.0", "--r2", "1.0",
        "--phi", "-pi/2:pi/2:3", "--t", "-1:1:3",
    ]
    assert main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    # t varies fastest, as the last axis of the grid
    assert [float(row["t_offset"]) for row in rows[:3]] == [-1.0, 0.0, 1.0]
    assert [float(row["phi"]) for row in rows[::3]] == pytest.approx(
        [-math.pi / 2, 0.0, math.pi / 2]
    )


def test_sweep_corner_lag_just_below_zero(capsys):
    # t = 0.7 makes tau1 = 0.7 + 0.1 - 0.8 round to just below zero
    args = [
        "sweep", "--kind", "axx", "--r1", "1", "--r2", "1", "--dt1", "0.8",
        "--dt2", "0.1", "--t", "0.5:0.9:5",
    ]
    assert main(args) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert len(rows) == 5
    assert all(math.isfinite(float(row["value"])) for row in rows)


def test_sweep_writes_to_stdout_by_default(capsys):
    args = [
        "sweep", "--kind", "axx", "--r1", "1.0", "--r2", "1.0",
        "--dt1", "1.0", "--dt2", "1.0",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    assert rows[0]["kind"] == "axx"
    assert float(rows[0]["value"]) == pytest.approx(-1.625, rel=1e-12)


def test_sweep_refuses_oversized_grids(capsys):
    args = [
        "sweep", "--kind", "axx", "--r1", "0.5:2.0:30", "--r2", "0.5:2.0:30",
        "--dt1", "1.0", "--dt2", "1.0", "--max-points", "100",
    ]
    assert main(args) == 2
    assert "100" in capsys.readouterr().err


def test_sweep_validates_grid_upfront(capsys):
    args = [
        "sweep", "--kind", "axx", "--r1", "0.0:1.0:3", "--r2", "1.0",
        "--dt1", "1.0", "--dt2", "1.0",
    ]
    assert main(args) == 2
    capsys.readouterr()


def test_validate_report_is_reproducible(capsys):
    assert main(["validate", "--samples", "2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["validate", "--samples", "2", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.count("pass") >= 5
    assert "FAIL" not in first


def test_validate_zero_samples_is_a_vacuous_pass(capsys):
    assert main(["validate", "--samples", "0"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_validate_negative_samples_exits_2(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["validate", "--samples", "-1"])
    assert exc_info.value.code == 2
    assert "count >= 0" in capsys.readouterr().err


def test_back_to_back_main_calls_print_what_separate_calls_print(capsys):
    # main keeps one parser per process; no call may leave a flag or a
    # default behind for the next one
    from brfactor import cli

    argvs = [
        FACTOR_ARGS + ["--method", "series", "--n-max", "300", "--tail-tol", "1e-5"],
        ["factor", "--kind", "bxy", "--r1", "1.2", "--r2", "0.9", "--r", "0.4",
         "--theta", "pi/3", "--dt1", "0.5", "--dt2", "0.7", "--t", "-0.2"],
        FACTOR_ARGS + ["--method", "series-general"],
        ["validate", "--seed", "3", "--samples", "1"],
        FACTOR_ARGS,
        ["factor", "--kind", "axy", "--r1", "1"],
    ]

    def outputs(fresh: bool) -> list:
        out = []
        for argv in argvs:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse refuses a usage error
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    separate = outputs(fresh=True)
    assert outputs(fresh=False) == separate
    assert [code for code, _, _ in separate] == [0, 0, 0, 0, 0, 2]
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()


# each route flag and the config field that owns its default
ROUTE_FLAGS = {
    "n_max": SeriesConfig, "tail_tol": SeriesConfig, "rex_slack": SeriesConfig,
    "abs_tol": QuadConfig, "rel_tol": QuadConfig, "tail_periods": QuadConfig,
}


def test_route_flag_defaults_are_their_configs():
    parser = build_parser()
    for argv in (FACTOR_ARGS, ["table1"], ["sweep", "--r1", "1", "--r2", "1"]):
        args = parser.parse_args(argv)
        for name, owner in ROUTE_FLAGS.items():
            default = getattr(owner(), name)
            assert getattr(args, name) == default and type(getattr(args, name)) is type(default)


def test_factor_without_tuning_flags_is_the_route_at_its_default_config(capsys):
    routes = {
        "closed": lambda kind, p: factor_closed(kind, p),
        "series": lambda kind, p: factor_series(kind, p, SeriesConfig()),
        "series-general": lambda kind, p: factor_series_general(kind, p, SeriesConfig()),
        "numeric": lambda kind, p: factor_fourier_numeric(kind, p, QuadConfig()),
    }
    p = RegionPair(1.0, 1.2, 0.5, 0.3, 0.2, 1.0, 1.0, 0.5)
    for method, route in routes.items():
        for kind in FactorKind:
            argv = DISPLACED_ARGS + ["--method", method]
            argv[argv.index("--kind") + 1] = kind.value
            assert main(argv) == 0
            record = json.loads(capsys.readouterr().out)
            result = route(kind, p)
            assert record["value"] == result.value
            if method != "numeric":  # the oracle reports no terms or stop
                assert record["terms_used"] == result.terms_used
                assert record["converged"] is result.converged
            else:
                assert (record["terms_used"], record["converged"]) == (0, True)


def test_parser_program_metadata():
    parser = build_parser()
    assert parser.prog == "brfactor"
    with pytest.raises(SystemExit) as exc_info:
        parser.parse_args(["no-such-command"])
    assert exc_info.value.code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "method,length",
    [("closed", "1e-300"), ("series", "1e-200"), ("series-general", "1e-200"),
     ("numeric", "1e-200")],
)
def test_factor_beyond_the_float_range_exits_2(method, length, capsys):
    args = ["factor", "--kind", "axx", "--r1", length, "--r2", length, "--method", method]
    assert main(args) == 2
    assert "float range" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "method,length",
    [("series", "1e-150"), ("series-general", "1e-100"), ("series-general", "1e150"),
     ("numeric", "1e-150")],
)
def test_factor_value_beyond_the_float_range_exits_2(method, length, capsys):
    # a nan value is no JSON, and an overflow is no traceback
    args = ["factor", "--kind", "axx", "--r1", length, "--r2", length, "--method", method]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and "float range" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_factor_durations_beyond_the_float_range_exits_2(capsys):
    for method in ("closed", "series", "series-general", "numeric"):
        args = ["factor", "--kind", "axx", "--r1", "1", "--r2", "1", "--dt1", "1e-200",
                "--dt2", "1e-200", "--method", method]
        assert main(args) == 2
        assert "float range" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sweep_beyond_the_float_range_exits_2(capsys):
    assert main(["sweep", "--r1", "1e-300", "--r2", "1e-300"]) == 2
    assert "float range" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--kind", "foo"], ["--r1", "1:2"]])
def test_sweep_refuses_a_bad_kind_or_axis(flags, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["sweep", "--r1", "1.0", "--r2", "1.0"] + flags)
    assert exc_info.value.code == 2
    capsys.readouterr()

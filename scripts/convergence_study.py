#!/usr/bin/env python3
"""Partial-sum trajectories of the two series routes against the closed form.

For each selected row of the built-in table, both series are rerun with a
term log and every node's running error is written to CSV, plus a summary
of how deep each route had to go for 4-digit and for tail-rule agreement.
"""

import argparse
import csv
import sys
import warnings

from brfactor.closed_form import CancellationWarning, factor_closed
from brfactor.fourier_bessel import factor_series, factor_series_general
from brfactor.model import SeriesConfig, round4, table1_rows

ROUTES = (("series", factor_series), ("series-general", factor_series_general))


def combined_trajectory(log, final_value: float) -> list:
    """Running totals of the whole factor along the logged nodes.

    The general route logs each l channel as its own restarted series; the
    channels are concatenated, so a drop in n marks a boundary.  Whatever
    head term the route folded in before logging is the final value minus
    the channel totals, added up front.
    """
    segments = [[]]
    for entry in log:
        if segments[-1] and entry.n <= segments[-1][-1].n:
            segments.append([])
        segments[-1].append(entry)
    head = final_value - sum(seg[-1].partial_sum for seg in segments)
    out = []
    banked = head
    for seg in segments:
        for entry in seg:
            out.append((entry, banked + entry.partial_sum))
        banked += seg[-1].partial_sum
    return out


def first_settled_n(trajectory, target: str) -> int:
    """Deepest node after which the rounded running total never leaves target."""
    settled = None
    for entry, running in trajectory:
        if round4(running) == target:
            if settled is None:
                settled = entry.n
        else:
            settled = None
    return settled if settled is not None else -1


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rows", default="1,5,9,11",
                    help="comma-separated 1-based table row numbers")
    ap.add_argument("--n-max", type=int, default=SeriesConfig.n_max)
    ap.add_argument("--out", default="convergence.csv")
    args = ap.parse_args(argv)

    wanted = sorted({int(tok) for tok in args.rows.split(",")})
    rows = table1_rows()
    for idx in wanted:
        if not 1 <= idx <= len(rows):
            ap.error(f"row {idx} outside 1..{len(rows)}")

    cfg = SeriesConfig(n_max=args.n_max)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["row", "route", "n", "q_n", "term", "partial_sum", "abs_error"]
        )
        print(f"{'row':>3}  {'route':<15} {'closed':>13} {'n(4-digit)':>11} "
              f"{'n(stop)':>8}  converged")
        for idx in wanted:
            row = rows[idx - 1]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CancellationWarning)
                reference = factor_closed(row.kind, row.params).value
            for name, route in ROUTES:
                log = []
                res = route(row.kind, row.params, cfg, term_log=log)
                trajectory = combined_trajectory(log, res.value)
                for entry, running in trajectory:
                    writer.writerow(
                        [idx, name, entry.n, f"{entry.q_n:.12g}",
                         f"{entry.term_value:.16e}", f"{running:.16e}",
                         f"{abs(running - reference):.3e}"]
                    )
                settled = first_settled_n(trajectory, row.expected)
                print(f"{idx:>3}  {name:<15} {reference:>13.6e} {settled:>11} "
                      f"{res.terms_used:>8}  {str(res.converged).lower()}")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

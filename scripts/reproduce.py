#!/usr/bin/env python3
"""Regenerate every committed result: results/table1.csv, fig1's and
fig2's CSVs with their gnuplot scripts, and the lam = 500, W = 1 point with
its exit-density trace (results/single.csv, results/single_trace.csv).

Extra CLI flags go to all four runs.  The exit code is the first non-zero
one among them, or 0.
"""

import sys
from pathlib import Path

from tunneltime.cli import main

RUNS = (
    ("table1", []),
    ("fig1", ["--plot-script"]),
    ("fig2", ["--plot-script"]),
    ("single", ["--lambda", "500", "--w-ratio", "1", "--trace"]),
)

if __name__ == "__main__":
    Path("results").mkdir(exist_ok=True)
    codes = [main([name, "--out", f"results/{name}.csv", *extra, *sys.argv[1:]])
             for name, extra in RUNS]
    raise SystemExit(next((code for code in codes if code), 0))

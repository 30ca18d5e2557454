#!/usr/bin/env python3
"""Regenerate every committed result: results/table1.csv, and fig1's and
fig2's CSVs with their gnuplot scripts.

Extra CLI flags go to all three runs.  The exit code is the first non-zero
one among them, or 0.
"""

import sys
from pathlib import Path

from tunneltime.cli import main

if __name__ == "__main__":
    Path("results").mkdir(exist_ok=True)
    codes = [
        main([name, "--out", f"results/{name}.csv", *plot, *sys.argv[1:]])
        for name, plot in (("table1", []), ("fig1", ["--plot-script"]), ("fig2", ["--plot-script"]))
    ]
    raise SystemExit(next((code for code in codes if code), 0))

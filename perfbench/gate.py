"""Correctness gate for the CSV files one workload run writes.

Seed 0 runs the paper grids, so its rows are compared with the reference
copies in ``reference/`` (made by the seed commit's CLI): row count, the
grid columns, the notes and ``tau_new`` must match exactly, ``tau_num``
within TAU_NUM_RTOL relative plus TAU_NUM_ATOL absolute.  Every seed is
also held to invariants that need no reference: no ``failed:`` or
``window_hit`` note, the requested grid in grid order, tau_new = (2/9) lam
at W = 1 and a finite v_transit.

Tolerance for tau_num.  The peak time is found by golden-section search to
refine_tol = 1e-4 on an adaptive quadrature whose panel set changes with
tau.  At W = 1, lam = 500 the adaptive value moves by about 2e-4 between
rel_tol = 1e-8 and 1e-12 and sits up to 5.6e-4 above the fixed-node value
108.52612, i.e. up to 5.2e-6 relative.  A correct change to the quadrature
or the peak search may move tau_num by that much, so the gate allows
1e-4 relative (1.1e-2 at lam = 500, about 20 times the measured spread)
plus 2e-4 absolute (two refinement brackets, which matters for the small
tau_num near W = 2).  An error in the fourth significant digit still fails.

Tolerance for the exit-density trace.  Each sample is |Phi|^2 with Phi
integrated to rel_tol = 1e-8, so a sample is good to about 2e-8 of the
peak density; the gate allows 1e-6 of the reference maximum.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

HEADER = (
    "lambda[k_M*L]",
    "w[sqrt(V0/E_M)]",
    "tau_spm[hbar/E_M]",
    "tau_new[hbar/E_M]",
    "tau_num[hbar/E_M]",
    "v_transit[sqrt(V0/2m)]",
    "ratio_ana_num[%]",
    "panels_max[count]",
    "refine_iters[count]",
    "note",
)
LAM, W, TAU_NEW, TAU_NUM, V_TRANSIT, NOTE = 0, 1, 3, 4, 5, 9

FAIL_NOTES = ("failed:", "window_hit")
TAU_NUM_RTOL = 1e-4
TAU_NUM_ATOL = 2e-4
DENSITY_RTOL = 1e-6
GRID_RTOL = 1e-9
#: Samples in the exit-density trace: the CLI's default coarse_points.
TRACE_POINTS = 256


def _read(path: Path) -> tuple[tuple[str, ...], list[list[str]]] | None:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError:
        return None
    if not rows:
        return None
    return tuple(rows[0]), rows[1:]


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def _float(cell: str) -> float:
    return float(cell) if cell else math.nan


def reference_grid(name: str) -> list[tuple[float, float]]:
    """(lam, W) of every row of a workload's reference CSV, in order."""
    _, rows = _read(REFERENCE_DIR / f"{name}.csv")
    return [(float(r[LAM]), float(r[W])) for r in rows]


def _row_ok(row: list[str], lam: float, w: float, ref: list[str] | None) -> bool:
    if len(row) != len(HEADER) or row[NOTE].startswith(FAIL_NOTES):
        return False
    try:
        got_lam, got_w = float(row[LAM]), float(row[W])
        tau_new, tau_num = _float(row[TAU_NEW]), _float(row[TAU_NUM])
        v_transit = _float(row[V_TRANSIT])
    except ValueError:
        return False
    if not (_close(got_lam, lam, GRID_RTOL) and _close(got_w, w, GRID_RTOL)):
        return False
    if not (math.isfinite(v_transit) and math.isfinite(tau_num)):
        return False
    if w == 1.0 and not _close(tau_new, 2.0 / 9.0 * lam, GRID_RTOL):
        return False
    if ref is None:
        return True
    return (
        row[LAM] == ref[LAM]
        and row[W] == ref[W]
        and row[NOTE] == ref[NOTE]
        and row[TAU_NEW] == ref[TAU_NEW]
        and _close(tau_num, float(ref[TAU_NUM]), TAU_NUM_RTOL, TAU_NUM_ATOL)
    )


def _trace_ok(path: Path, tau_num: float, ref_path: Path | None) -> bool:
    got = _read(path)
    if got is None or len(got[1]) != TRACE_POINTS:
        return False
    try:
        taus = [float(r[0]) for r in got[1]]
        dens = [float(r[1]) for r in got[1]]
    except (ValueError, IndexError):
        return False
    if not all(math.isfinite(d) and d >= 0.0 for d in dens):
        return False
    if not all(b > a for a, b in zip(taus, taus[1:])):
        return False
    # the trace samples the peak search's coarse grid, whose refined peak
    # lies within one step of the grid argmax
    step = (taus[-1] - taus[0]) / (len(taus) - 1)
    peak = taus[max(range(len(dens)), key=dens.__getitem__)]
    if not abs(peak - tau_num) <= step * (1.0 + GRID_RTOL):
        return False
    if ref_path is None:
        return True
    ref_header, ref_rows = _read(ref_path)
    if got[0] != ref_header or [r[0] for r in got[1]] != [r[0] for r in ref_rows]:
        return False
    ref_dens = [float(r[1]) for r in ref_rows]
    tol = DENSITY_RTOL * max(ref_dens)
    return all(abs(d - r) <= tol for d, r in zip(dens, ref_dens))


def count_failed(
    name: str,
    grid: list[tuple[float, float]],
    out: Path,
    trace_out: Path | None,
    use_reference: bool,
) -> int:
    """Number of grid points of one run that fail the gate.

    `grid` is the requested (lam, W) list; `trace_out` is the exit-density
    trace written next to the CSV, when the workload asks for one.  Rows
    that cannot be matched to the grid fail as a whole.
    """
    got = _read(out)
    if got is None or got[0] != HEADER or len(got[1]) != len(grid):
        return len(grid)
    refs: list[list[str] | None] = [None] * len(grid)
    ref_trace = None
    if use_reference:
        _, refs = _read(REFERENCE_DIR / f"{name}.csv")
        if len(refs) != len(grid):
            return len(grid)
        ref_trace = REFERENCE_DIR / f"{name}_trace.csv"
    failed = 0
    for row, (lam, w), ref in zip(got[1], grid, refs):
        ok = _row_ok(row, lam, w, ref)
        if ok and trace_out is not None:
            ok = _trace_ok(trace_out, float(row[TAU_NUM]), ref_trace)
        failed += not ok
    return failed

"""Experiment pipelines: one (lambda, W) grid per experiment, one row per point.

Every experiment runs the same pipeline: the W-major product of its lambda
and w_ratio grids, one `compute_row` per point (the only function that
turns a point into its phase times), in one process unless `workers`
asks for a process pool (no larger than the grid or the CPU count);
`single` is the one-point grid and the only experiment that may also
return the exit-density trace of its row.  The experiments differ only in
their default grids (`_GRIDS`).  Configs are flat ``key = value`` text
files ('#' comments, comma-separated lists, each key set at most once);
`_KEYS` maps each key to the dataclass field it sets, and every key is
optional: an unset key keeps that field's default (the reference
configuration; the spectrum's sits on `Spectrum`) or, for the grids, the
experiment's `_GRIDS` entry.  CLI flags are the same keys, and each value,
from a file or a flag, is parsed once, by its `_KEYS` entry and
range-checked by the type that owns it; those types live in `units`, so a
config is built and checked without numpy, which loads with the first
grid point (`compute_row`).  Output is deterministic CSV laid out by
`_COLUMNS`: unit-annotated header, 10 significant digits, empty cells for
undefined entries (never 0), one note column for divergences and per-row
failures (`ResultRow.failed` reads it).  Assembly stays in grid order so
identical configs give byte-identical files.  `write_outputs` owns the
files a run leaves: the CSV, and the trace and gnuplot script the config
asks for.
"""

from __future__ import annotations

import csv
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

from .units import DimensionlessParams, PeakSearchConfig, QuadratureSettings, Spectrum

_FIG2_POINTS = 21
_FIG2_STEP = 1.0 / (_FIG2_POINTS - 1)

# Default (lambda, w_ratio) grids.  fig1's barrier/cutoff ratios V0/E_M are
# declared here (the source figure does not state them); grids hold
# W = sqrt(V0/E_M).
_GRIDS: dict[str, tuple[tuple[float, ...], tuple[float, ...]]] = {
    "table1": (tuple(float(v) for v in range(50, 501, 50)), (1.0,)),
    "fig1": (
        tuple(float(v) for v in range(20, 201, 20)),
        tuple(math.sqrt(r) for r in (1.0, 1.1, 1.3, 1.5)),
    ),
    "fig2": ((100.0,), tuple(1.0 + i * _FIG2_STEP for i in range(_FIG2_POINTS))),
    "single": ((100.0,), (1.0,)),
}

EXPERIMENTS = tuple(_GRIDS)


def _as_bool(raw) -> bool:
    if str(raw).lower() in ("1", "true", "yes", "on"):
        return True
    if str(raw).lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def _as_grid(raw) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(raw).split(",") if tok.strip())


def _as_opt_float(raw) -> float | None:
    return None if str(raw).strip() == "" else float(raw)


#: CSV column header -> (ResultRow field, cell parser); one table drives
#: CSV_HEADER, write_rows and read_rows.
_COLUMNS = (
    ("lambda[k_M*L]", "lam", float),
    ("w[sqrt(V0/E_M)]", "w", float),
    ("tau_spm[hbar/E_M]", "tau_spm", _as_opt_float),
    ("tau_new[hbar/E_M]", "tau_new", _as_opt_float),
    ("tau_num[hbar/E_M]", "tau_num", _as_opt_float),
    ("v_transit[sqrt(V0/2m)]", "v_transit", _as_opt_float),
    ("ratio_ana_num[%]", "ratio_ana_num", _as_opt_float),
    ("panels_max[count]", "panels_max", int),
    ("refine_iters[count]", "refine_iters", int),
    ("note", "note", str),
)

CSV_HEADER = tuple(header for header, _, _ in _COLUMNS)

TRACE_HEADER = ("tau[hbar/E_M]", "density[arb]")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    lambdas: tuple[float, ...]
    w_ratios: tuple[float, ...]
    spectrum: Spectrum = Spectrum()
    quadrature: QuadratureSettings = QuadratureSettings()
    peak: PeakSearchConfig = PeakSearchConfig()
    out: Path | None = None
    trace: bool = False
    plot_script: bool = False
    workers: int = 1  # process count; above 1 the grid runs in a process pool

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.lambdas or not self.w_ratios:
            raise ConfigError("lambda and w_ratio grids must be non-empty")
        try:  # every grid point must be a valid model
            for w in self.w_ratios:
                for lam in self.lambdas:
                    DimensionlessParams(W=w, lam=lam)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.experiment in ("fig2", "single") and len(self.lambdas) > 1:
            raise ConfigError(f"{self.experiment} takes one lambda value")
        if self.experiment == "single" and len(self.w_ratios) > 1:
            raise ConfigError("single takes one w_ratio value")
        if self.trace and self.experiment != "single":
            raise ConfigError("trace is written only by single")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ResultRow:
    """One sweep point; None fields serialize as empty CSV cells.

    `trace` is not a CSV column: it holds the exit-density series of the
    row's own peak search when `compute_row` was asked for it.
    """

    lam: float
    w: float
    tau_spm: float | None = None
    tau_new: float | None = None
    tau_num: float | None = None
    v_transit: float | None = None
    ratio_ana_num: float | None = None
    panels_max: int = 0
    refine_iters: int = 0
    note: str = ""
    trace: list[tuple[float, float]] | None = field(default=None, repr=False, compare=False)

    @property
    def failed(self) -> bool:
        """No result, or a tau_num that is not the peak to its printed digits."""
        return self.note.startswith(("failed:", "window_hit", "unrefined"))


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value config file; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not a key
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set")
        values[key] = value
    return values


#: Config key -> (dataclass, field, parser).  The defaults live on the
#: dataclass fields, except the grids, which come from `_GRIDS`.
_KEYS = {
    "lambda": (ExperimentConfig, "lambdas", _as_grid),
    "w_ratio": (ExperimentConfig, "w_ratios", _as_grid),
    "kappa0": (Spectrum, "kappa0", float),
    "delta": (Spectrum, "delta", float),
    "nodes_per_panel": (QuadratureSettings, "nodes_per_panel", int),
    "max_panels": (QuadratureSettings, "max_panels", int),
    "rel_tol": (QuadratureSettings, "rel_tol", float),
    "tau_min": (PeakSearchConfig, "tau_min", _as_opt_float),
    "tau_max": (PeakSearchConfig, "tau_max", _as_opt_float),
    "coarse_points": (PeakSearchConfig, "coarse_points", int),
    "out": (ExperimentConfig, "out", Path),
    "trace": (ExperimentConfig, "trace", _as_bool),
    "plot_script": (ExperimentConfig, "plot_script", _as_bool),
    "workers": (ExperimentConfig, "workers", int),
}


def build_config(
    experiment: str,
    file_values: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Merge defaults, config-file values and CLI overrides into a config.

    An override of None leaves the key unset.
    """
    values = dict(file_values or {})
    values.update((key, val) for key, val in (overrides or {}).items() if val is not None)
    if experiment not in _GRIDS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    lambdas, w_ratios = _GRIDS[experiment]
    fields: dict[type, dict[str, object]] = {
        ExperimentConfig: {"experiment": experiment, "lambdas": lambdas, "w_ratios": w_ratios},
        Spectrum: {},
        QuadratureSettings: {},
        PeakSearchConfig: {},
    }
    for key, (target, name, parse) in _KEYS.items():
        if key in values:
            raw = values.pop(key)
            try:
                fields[target][name] = parse(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    if values:
        raise ConfigError(f"unknown config keys: {sorted(values)}")
    try:
        return ExperimentConfig(
            spectrum=Spectrum(**fields[Spectrum]),
            quadrature=QuadratureSettings(**fields[QuadratureSettings]),
            peak=PeakSearchConfig(**fields[PeakSearchConfig]),
            **fields[ExperimentConfig],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def compute_row(
    lam: float,
    w: float,
    spec: Spectrum,
    peak_config: PeakSearchConfig,
    settings: QuadratureSettings,
    trace: bool = False,
) -> ResultRow:
    """The three phase times of one (lam, W) grid point, side by side.

    tau_spm (opaque stationary phase, 1/a) is None at a = 0, where it
    diverges; tau_new (moments) also fills the window: peak_arrival takes it
    for the unset bounds of the search for tau_num (simulated peak
    arrival).  Failures are captured in the note
    column so that sweeps can continue; window hits and unrefined peaks are
    reported the same way (the result is untrustworthy until the caller
    widens the window, or the peak is bracketed).
    With trace set, the row also carries the coarse scan of its peak search
    as (tau, density) pairs; a failed row carries none.
    """
    # the numeric stack loads with the first point, not with the config;
    # called through their modules, where perfbench/layers.py wraps them
    from . import peakfind, phasetime
    from .quadrature import QuadratureError

    try:
        params = DimensionlessParams(W=w, lam=lam)
        tau_new = phasetime.phase_time_moments(phasetime.moments_closed_form(params), params)
        tau_spm = None if params.a == 0.0 else phasetime.phase_time_spm(params)
        # the window comes from the tau_new above, so the moments run once
        peak = peakfind.peak_arrival(spec, params, peak_config, settings, tau_new)
        v_transit = phasetime.transit_velocity(peak.tau_peak, params)
        ratio_ana_num = 100.0 * phasetime.transit_velocity(tau_new, params) / v_transit
    except (QuadratureError, ValueError) as exc:
        return ResultRow(lam=lam, w=w, note=f"failed: {exc}")
    # the peak-search note goes first: ResultRow.failed reads the prefix
    notes = []
    if peak.window_hit:
        notes.append("window_hit: peak at search boundary, widen tau_min/tau_max")
    elif not peak.refined:
        notes.append("unrefined: density slope does not fall from + to - across the argmax")
    if tau_spm is None:
        notes.append("tau_spm diverges (E_M = V0)")
    return ResultRow(
        lam=lam,
        w=w,
        tau_spm=tau_spm,
        tau_new=tau_new,
        tau_num=peak.tau_peak,
        v_transit=v_transit,
        ratio_ana_num=ratio_ana_num,
        panels_max=peak.wave.panels,
        refine_iters=peak.refine_iters,
        note="; ".join(notes),
        trace=peak.trace() if trace else None,
    )


def density_trace(config: ExperimentConfig, lam: float, w: float) -> list[tuple[float, float]]:
    """The row's exit-density trace: its peak search's coarse scan, in tau order.

    Raises ValueError where the peak search does (a density 0 everywhere).
    """
    from . import peakfind

    params = DimensionlessParams(W=w, lam=lam)
    return peakfind.peak_arrival(config.spectrum, params, config.peak, config.quadrature).trace()


def _cell(value: float | int | str | None) -> str:
    if value is None:
        return ""
    return f"{value:.10g}" if isinstance(value, float) else str(value)


def _write_csv(path: str | Path, header: tuple[str, ...], records) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *records])


def write_rows(path: str | Path, rows: list[ResultRow]) -> None:
    _write_csv(path, CSV_HEADER, ([_cell(getattr(r, n)) for _, n, _ in _COLUMNS] for r in rows))


def read_rows(path: str | Path) -> list[ResultRow]:
    """Parse a results CSV back into rows (round-trip of write_rows)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header in {path}")
        return [
            ResultRow(**{name: parse(cell)
                         for (_, name, parse), cell in zip(_COLUMNS, cells, strict=True)})
            for cells in reader
        ]


def write_trace(path: str | Path, trace: list[tuple[float, float]]) -> None:
    _write_csv(path, TRACE_HEADER, ([_cell(tau), _cell(density)] for tau, density in trace))


def trace_path(out: Path) -> Path:
    return out.with_name(out.stem + "_trace" + out.suffix)


def write_plot_script(path: Path, csv_path: Path, experiment: str) -> None:
    """Companion gnuplot text for the emitted CSV (no plotting library linked)."""
    if experiment == "fig2":
        body = (
            f'set datafile separator ","\n'
            f'set xlabel "sqrt(V0/E_M)"\n'
            f'set ylabel "tau [hbar/E_M]"\n'
            f'plot "{csv_path.name}" using 2:3 with lines title "spm", \\\n'
            f'     "" using 2:4 with lines title "new", \\\n'
            f'     "" using 2:5 with points title "num"\n'
        )
    else:
        body = (
            f'set datafile separator ","\n'
            f'set xlabel "k_M L"\n'
            f'set ylabel "v_transit [sqrt(V0/2m)]"\n'
            f'plot "{csv_path.name}" using 1:6 with linespoints title "v_transit"\n'
        )
    path.write_text("# gnuplot script (skip the CSV header with every ::1)\n" + body)


def write_outputs(config: ExperimentConfig, rows: list[ResultRow]) -> Path:
    """Write a run's files; returns the CSV path.

    The CSV goes to config.out (default ``<experiment>.csv``).  With
    config.trace set, the row's trace goes beside it (`trace_path`), header
    only when the row failed and carries none, so no earlier run's trace
    is left in place; with config.plot_script, a gnuplot script goes to
    ``<csv>.gnuplot``.  An OSError raised here names a file: the CSV when
    the failing call named none (a write or close that runs out of space).
    """
    out = config.out or Path(f"{config.experiment}.csv")
    try:
        write_rows(out, rows)
        if config.trace:
            write_trace(trace_path(out), rows[0].trace or [])
        if config.plot_script:
            write_plot_script(out.with_suffix(out.suffix + ".gnuplot"), out, config.experiment)
    except OSError as exc:
        exc.filename = exc.filename or out
        raise
    return out


def run_experiment(config: ExperimentConfig):
    """Run the config's grid, W-major; returns (rows, trace_or_None).

    The trace is the exit-density series of the `single` row when
    config.trace is set (only `single` accepts it); otherwise None.
    """
    lams, ws = zip(*((lam, w) for w in config.w_ratios for lam in config.lambdas))
    args = (lams, ws, repeat(config.spectrum), repeat(config.peak),
            repeat(config.quadrature), repeat(config.trace))
    workers = min(config.workers, len(lams), os.cpu_count() or 1)
    if workers == 1:
        rows = list(map(compute_row, *args))
    else:
        # through the module: its __getattr__ imports the class on first use
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            rows = list(pool.map(compute_row, *args))
    return rows, rows[0].trace


def __getattr__(name: str):
    # PEP 562, as in concurrent.futures: only a run that builds a pool
    # imports the pool modules
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Experiment pipelines: one (lambda, W) grid per experiment, one row per point.

Every experiment runs the same pipeline: the W-major product of its lambda
and w_ratio grids, one `compute_row` per point, serially or in a process
pool; `single` is the one-point grid and may also return the exit-density
trace of its row.  The experiments differ only in their default grids
(`_GRIDS`).  Configs are flat ``key = value`` text files ('#' comments,
comma-separated lists); every key is optional and defaults to the
reference configuration (kappa0 = 0.5, delta = 10, and the default grids).
Output is deterministic CSV: unit-annotated header, 10 significant digits,
empty cells for undefined entries (never 0), one note column for
divergences and per-row failures.  Assembly stays in grid order so
identical configs give byte-identical files.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .peakfind import PeakSearchConfig, coarse_scan, full_report
from .quadrature import QuadratureError, QuadratureSettings
from .spectrum import Spectrum
from .units import DimensionlessParams

#: Environment variable overriding the worker-count default.
WORKERS_ENV = "TUNNELTIME_WORKERS"

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

CSV_HEADER = (
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

TRACE_HEADER = ("tau[hbar/E_M]", "density[arb]")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    lambdas: tuple[float, ...]
    w_ratios: tuple[float, ...]
    kappa0: float = 0.5
    delta: float = 10.0
    quadrature: QuadratureSettings = QuadratureSettings()
    peak: PeakSearchConfig = PeakSearchConfig()
    out: Path | None = None
    trace: bool = False
    plot_script: bool = False
    workers: int = 0  # 0 -> available parallelism

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.lambdas or not self.w_ratios:
            raise ConfigError("lambda and w_ratio grids must be non-empty")
        # `not (... < inf)` also rejects nan, which fails every comparison
        if not all(0.0 <= lam < math.inf for lam in self.lambdas):
            raise ConfigError("lambda values must be finite and >= 0")
        if not all(1.0 <= w < math.inf for w in self.w_ratios):
            raise ConfigError("w_ratio values must be finite and >= 1 (pure tunneling)")
        if self.experiment in ("fig2", "single") and len(self.lambdas) > 1:
            raise ConfigError(f"{self.experiment} takes one lambda value")
        if self.experiment == "single" and len(self.w_ratios) > 1:
            raise ConfigError("single takes one w_ratio value")
        try:
            self.spectrum()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.workers <= 0:
            _env_workers()  # a bad environment value is a config error too

    def spectrum(self) -> Spectrum:
        return Spectrum(kappa0=self.kappa0, delta=self.delta)


@dataclass(frozen=True)
class ResultRow:
    """One sweep point; None fields serialize as empty CSV cells.

    `trace` is not a CSV column: it holds the exit-density series of the
    row's own peak search when `compute_row` was asked for it.
    """

    lam: float
    w: float
    tau_spm: float | None
    tau_new: float | None
    tau_num: float | None
    v_transit: float | None
    ratio_ana_num: float | None
    panels_max: int
    refine_iters: int
    note: str = ""
    trace: list[tuple[float, float]] | None = field(default=None, repr=False, compare=False)


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat key = value config file; '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}: {exc}") from None


def build_config(
    experiment: str,
    file_values: dict[str, str] | None = None,
    overrides: dict[str, object] | None = None,
) -> ExperimentConfig:
    """Merge defaults, config-file values and CLI overrides into a config."""
    values = dict(file_values or {})
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val

    def get(key: str, default, conv):
        if key not in values:
            return default
        raw = values.pop(key)
        try:
            return conv(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None

    def as_bool(raw) -> bool:
        if isinstance(raw, bool):
            return raw
        if str(raw).lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError("expected a boolean")

    def as_grid(raw) -> tuple[float, ...]:
        if isinstance(raw, (tuple, list)):
            return tuple(float(v) for v in raw)
        return _parse_floats(str(raw))

    def as_opt_float(raw) -> float | None:
        return None if str(raw).strip() == "" else float(raw)

    if experiment not in _GRIDS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    lam_default, w_default = _GRIDS[experiment]
    try:
        lambdas = get("lambda", lam_default, as_grid)
        w_ratios = get("w_ratio", w_default, as_grid)
        kappa0 = get("kappa0", 0.5, float)
        delta = get("delta", 10.0, float)
        quadrature = QuadratureSettings(
            nodes_per_panel=get("nodes_per_panel", 32, int),
            max_panels=get("max_panels", 4096, int),
            rel_tol=get("rel_tol", 1e-8, float),
        )
        peak = PeakSearchConfig(
            tau_min=get("tau_min", None, as_opt_float),
            tau_max=get("tau_max", None, as_opt_float),
            coarse_points=get("coarse_points", 256, int),
            refine_tol=get("refine_tol", 1e-4, float),
        )
        out = get("out", None, lambda raw: Path(raw))
        trace = get("trace", False, as_bool)
        plot_script = get("plot_script", False, as_bool)
        workers = get("workers", 0, int)
        if values:
            raise ConfigError(f"unknown config keys: {sorted(values)}")
        return ExperimentConfig(
            experiment=experiment,
            lambdas=lambdas,
            w_ratios=w_ratios,
            kappa0=kappa0,
            delta=delta,
            quadrature=quadrature,
            peak=peak,
            out=out,
            trace=trace,
            plot_script=plot_script,
            workers=workers,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _env_workers() -> int:
    """Worker count from WORKERS_ENV, else the available parallelism."""
    env = os.environ.get(WORKERS_ENV, "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None


def _worker_count(config: ExperimentConfig, n_tasks: int) -> int:
    workers = config.workers if config.workers > 0 else _env_workers()
    return max(1, min(workers, n_tasks))


def compute_row(
    lam: float,
    w: float,
    spec: Spectrum,
    peak_config: PeakSearchConfig,
    settings: QuadratureSettings,
    trace: bool = False,
) -> ResultRow:
    """Full phase-time report for one (lam, W) grid point.

    Failures are captured in the note column so that sweeps can continue;
    window hits are reported the same way (the result is untrustworthy
    until the caller widens the window).  With trace set, the row also
    carries the coarse scan of its peak search as (tau, density) pairs;
    a failed row carries none.
    """
    try:
        params = DimensionlessParams(W=w, lam=lam)
        report, peak = full_report(spec, params, peak_config, settings)
    except (QuadratureError, ValueError) as exc:
        return ResultRow(
            lam=lam, w=w, tau_spm=None, tau_new=None, tau_num=None,
            v_transit=None, ratio_ana_num=None, panels_max=0, refine_iters=0,
            note=f"failed: {exc}",
        )
    # the peak-search note goes first: the CLI counts failed rows by prefix
    notes = []
    if peak.window_hit:
        notes.append("window_hit: peak at search boundary, widen tau_min/tau_max")
    elif not peak.refined:
        notes.append("unrefined: coarse scan not unimodal at the argmax")
    if report.tau_spm is None:
        notes.append("tau_spm diverges (E_M = V0)")
    return ResultRow(
        lam=lam,
        w=w,
        tau_spm=report.tau_spm,
        tau_new=report.tau_new,
        tau_num=report.tau_numeric,
        v_transit=report.v_transit,
        ratio_ana_num=report.ratio_ana_num,
        panels_max=peak.panels_max,
        refine_iters=peak.refine_iters,
        note="; ".join(notes),
        trace=peak.scan.trace() if trace else None,
    )


def _compute_row_task(task) -> ResultRow:
    return compute_row(*task)


def density_trace(config: ExperimentConfig, lam: float, w: float) -> list[tuple[float, float]]:
    """Exit density sampled on the coarse search grid (monotone in tau)."""
    params = DimensionlessParams(W=w, lam=lam)
    return coarse_scan(config.spectrum(), params, config.peak, config.quadrature).trace()


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.10g}"


def write_rows(path: str | Path, rows: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    _fmt(r.lam),
                    _fmt(r.w),
                    _fmt(r.tau_spm),
                    _fmt(r.tau_new),
                    _fmt(r.tau_num),
                    _fmt(r.v_transit),
                    _fmt(r.ratio_ana_num),
                    str(r.panels_max),
                    str(r.refine_iters),
                    r.note,
                ]
            )


def read_rows(path: str | Path) -> list[ResultRow]:
    """Parse a results CSV back into rows (round-trip of write_rows)."""

    def opt(cell: str) -> float | None:
        return None if cell == "" else float(cell)

    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header in {path}")
        for cells in reader:
            rows.append(
                ResultRow(
                    lam=float(cells[0]),
                    w=float(cells[1]),
                    tau_spm=opt(cells[2]),
                    tau_new=opt(cells[3]),
                    tau_num=opt(cells[4]),
                    v_transit=opt(cells[5]),
                    ratio_ana_num=opt(cells[6]),
                    panels_max=int(cells[7]),
                    refine_iters=int(cells[8]),
                    note=cells[9],
                )
            )
    return rows


def write_trace(path: str | Path, trace: list[tuple[float, float]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER)
        for tau, density in trace:
            writer.writerow([f"{tau:.10g}", f"{density:.10g}"])


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


def run_experiment(config: ExperimentConfig):
    """Run the config's grid, W-major; returns (rows, trace_or_None).

    The trace is the exit-density series of the `single` row when
    config.trace is set; other experiments return None.
    """
    spec = config.spectrum()
    trace = config.trace and config.experiment == "single"
    tasks = [
        (lam, w, spec, config.peak, config.quadrature, trace)
        for w in config.w_ratios
        for lam in config.lambdas
    ]
    workers = _worker_count(config, len(tasks))
    if workers == 1:
        rows = [_compute_row_task(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_compute_row_task, tasks))
    return rows, rows[0].trace

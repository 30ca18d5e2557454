"""Benchmark of the tunneltime CLI: end-to-end runs and a traced in-process run.

Usage, from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

--trace 0 launches the CLI as a user does, again and again for --seconds
(at least MIN_INVOCATIONS times), and reports medians of wall time, grid
points per second, CPU time and peak RSS of the CLI process tree, plus the
set-up time of a fresh interpreter.  --trace 1 runs the same grid
in-process, in rounds of (serial, serial traced, pooled), and reports the
per-layer numbers of layers.py.  Every run's CSV goes through the
correctness gate in gate.py; a failing grid point counts in `failed` and
makes the exit code 1.

The CLI runs in the caller's environment: BLAS and worker-count variables
are neither set nor cleared, so thread oversubscription shows.  Scratch
files live under .perfbench/ in the checkout; spans of traced runs are kept
there as gzip JSON lines.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import gate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_INVOCATIONS = 3
SETUP_REPEATS = 5
CLI_TIMEOUT_S = 150.0
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TUNNELTIME_WORKERS")

# Fresh interpreter: import the CLI and build the workload's config, as the
# CLI does before any computation.
SETUP_SNIPPET = (
    "import json, sys\n"
    "from tunneltime import cli, experiments\n"
    "experiments.build_config(sys.argv[1], {}, json.loads(sys.argv[2]))\n"
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failing grid point)."""


@dataclass(frozen=True)
class Workload:
    """One CLI subcommand on a seeded grid; see README.md for why each exists."""

    name: str
    experiment: str
    trace: bool = False

    def grid(self, seed: int) -> tuple[list[float], list[float]] | None:
        """(lambdas, w_ratios) for a seed; None at seed 0, the paper grid."""
        if seed == 0:
            return None
        rng = random.Random(f"{self.name}:{seed}")
        if self.name == "table1":  # lam = 50..500 step 50, each moved by < 5
            lams = [min(500.0, max(50.0, 50.0 * i + rng.uniform(-5.0, 5.0))) for i in range(1, 11)]
            return [round(v, 3) for v in lams], [1.0]
        if self.name == "fig2":  # lam moved by < 1; W = 1 kept, inner W moved by < 0.02
            lam = round(100.0 + rng.uniform(-1.0, 1.0), 3)
            inner = [1.0 + 0.05 * i + rng.uniform(-0.02, 0.02) for i in range(1, 20)]
            last = 2.0 - rng.uniform(0.0, 0.02)
            return [lam], [1.0] + [round(w, 6) for w in inner + [last]]
        return [round(500.0 - rng.uniform(0.0, 5.0), 3)], [1.0]

    def overrides(self, seed: int) -> dict[str, object]:
        """build_config overrides, the in-process twin of cli_args."""
        grid = self.grid(seed)
        if grid is None and self.name == "single_trace":
            grid = [500.0], [1.0]
        values: dict[str, object] = {}
        if grid is not None:
            values["lambda"] = ",".join(repr(v) for v in grid[0])
            values["w_ratio"] = ",".join(repr(v) for v in grid[1])
        if self.trace:
            values["trace"] = True
        return values

    def cli_args(self, seed: int) -> list[str]:
        flags = {"lambda": "--lambda", "w_ratio": "--w-ratio"}
        args = [self.experiment]
        for key, value in self.overrides(seed).items():
            args += ["--trace"] if key == "trace" else [flags[key], str(value)]
        return args

    def points(self, seed: int) -> list[tuple[float, float]]:
        """Expected (lam, W) rows in CSV order."""
        grid = self.grid(seed)
        if grid is None:
            return gate.reference_grid(self.name)
        lams, ws = grid
        return [(lam, w) for w in ws for lam in lams]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("table1", "table1"),
        Workload("fig2", "fig2"),
        Workload("single_trace", "single", trace=True),
    )
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _run(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, float, int]:
    """Launch a process; return wall s, CPU s and max RSS KB of its tree, exit code.

    wait4 reports the child's own usage plus that of the children it
    reaped (the worker pool), and the largest max-RSS among them.
    """
    with open(log, "w") as fh:
        t0 = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=_env(), stdout=fh, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        killer = threading.Timer(CLI_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # nothing of the process group may outlive the run
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def _setup_s(wl: Workload, seed: int, tmp: Path) -> float:
    walls = []
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_SNIPPET, wl.experiment, json.dumps(wl.overrides(seed))]
        wall, _, _, code = _run(argv, tmp, tmp / "setup.log")
        if code != 0:
            raise BenchError(f"set-up failed:\n{(tmp / 'setup.log').read_text()}")
        walls.append(wall)
    return statistics.median(walls)


def end_to_end(wl: Workload, seed: int, seconds: float, tmp: Path):
    points = wl.points(seed)
    setup_s = _setup_s(wl, seed, tmp)
    out = tmp / f"{wl.name}.csv"
    trace_out = tmp / f"{wl.name}_trace.csv" if wl.trace else None
    argv = [sys.executable, "-m", "tunneltime", *wl.cli_args(seed), "--out", str(out)]
    walls, cpus, rss_mb = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while len(walls) < MIN_INVOCATIONS or perf_counter() - start + statistics.median(walls) <= seconds:
        for path in (out, trace_out):
            if path is not None:
                path.unlink(missing_ok=True)
        wall, cpu, rss_kb, code = _run(argv, tmp, tmp / "cli.log")
        walls.append(wall)
        cpus.append(cpu)
        rss_mb.append(rss_kb / 1024.0)
        attempted += len(points)
        if code in (0, 3):  # 3: partial success, the gate finds the failed rows
            failed += gate.count_failed(wl.name, points, out, trace_out, seed == 0)
        else:
            failed += len(points)
    print(f"# {wl.name}: wall samples " + " ".join(f"{w:.3f}" for w in walls))
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "points_per_s": (statistics.median(len(points) / w for w in walls), "1/s"),
        "setup_s": (setup_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss_mb), "MB"),
    }
    return attempted, failed, metrics


def _pool_start_ms(experiments, workers: int) -> float:
    """Start the program's pool class, run one trivial task per worker, shut down."""
    t0 = perf_counter()
    with experiments.ProcessPoolExecutor(max_workers=workers) as pool:
        list(pool.map(abs, range(workers)))
    return (perf_counter() - t0) * 1e3


def per_layer(wl: Workload, seed: int, seconds: float, tmp: Path):
    from tunneltime import experiments

    import layers

    points = wl.points(seed)
    config = experiments.build_config(wl.experiment, {}, wl.overrides(seed))
    serial = replace(config, workers=1)
    # the pool size a sweep gets by default (the CLI's rule)
    pool_workers = int(os.environ.get("TUNNELTIME_WORKERS", "").strip() or 0) or os.cpu_count() or 1
    out = tmp / f"{wl.name}.csv"
    timings: dict[str, list[float]] = {k: [] for k in ("serial", "traced", "pooled", "pool_ms", "trace_ms")}
    tracers = []
    attempted = failed = 0
    start = perf_counter()
    runs = [("serial", serial), ("traced", serial), ("pooled", config)]
    while not tracers or perf_counter() - start < seconds:
        runs.reverse()  # alternate the order so that no kind always runs first
        for kind, cfg in runs:
            tracer = layers.Tracer() if kind == "traced" else None
            t0 = perf_counter()
            with layers.traced(tracer) if tracer else nullcontext():
                rows, trace = experiments.run_experiment(cfg)
            timings[kind].append(perf_counter() - t0)
            if tracer:
                tracers.append(tracer)
            experiments.write_rows(out, rows)
            trace_out = None
            if trace is not None:
                trace_out = experiments.trace_path(out)
                experiments.write_trace(trace_out, trace)
            attempted += len(points)
            failed += gate.count_failed(wl.name, points, out, trace_out, seed == 0)
        timings["pool_ms"].append(_pool_start_ms(experiments, pool_workers))
        t0 = perf_counter()
        experiments.density_trace(config, *points[0])
        timings["trace_ms"].append((perf_counter() - t0) * 1e3)

    med = {k: statistics.median(v) for k, v in timings.items()}
    metrics = layers.layer_metrics(tracers, config.quadrature.nodes_per_panel, config.peak.coarse_points)
    metrics.update({
        "experiments.pool.start_ms": (med["pool_ms"], "ms"),
        "experiments.pool.speedup": (med["serial"] / med["pooled"], "x"),
        "experiments.grid.serial_s": (med["serial"], "s"),
        "experiments.grid.pooled_s": (med["pooled"], "s"),
        "experiments.density_trace.ms": (med["trace_ms"], "ms"),
        "trace.overhead_pct": (100.0 * (med["traced"] / med["serial"] - 1.0), "%"),
    })
    spans_path = WORK / f"spans-{wl.name}-seed{seed}.jsonl.gz"
    layers.write_spans(spans_path, tracers)
    print(f"# {wl.name}: {len(tracers)} traced round(s), spans in {spans_path.relative_to(ROOT)}")
    return attempted, failed, metrics


def _commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (then rely on source_sha256)."""
    try:
        head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def environment() -> dict[str, object]:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "tunneltime").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "env": {key: os.environ.get(key) for key in ENV_KEYS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "tunneltime" / "cli.py").is_file():
        print(f"perfbench: no tunneltime sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    print(json.dumps({"environment": environment(), "seed": args.seed, "trace": args.trace}))

    if args.trace:
        sys.path.insert(0, str(SRC))
    measure = per_layer if args.trace else end_to_end
    attempted = failed = 0
    metrics: dict[str, dict[str, object]] = {}
    for name in names:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            try:
                n, bad, found = measure(WORKLOADS[name], args.seed, args.seconds, Path(tmp))
            except BenchError as exc:
                print(f"perfbench: {name}: {exc}", file=sys.stderr)
                return 2
        attempted += n
        failed += bad
        print(f"{name:<13} {'ops':<48} {n:>14d} count")
        print(f"{name:<13} {'ops_failed':<48} {bad:>14d} count")
        for key, (value, unit) in found.items():
            print(f"{name:<13} {key:<48} {value:>14.6g} {unit}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import gc
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from scipy.optimize import brentq

from tunneltime import experiments, wavepacket
from tunneltime.experiments import (
    _KEYS,
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    build_config,
    compute_row,
    density_trace,
    read_config_file,
    read_rows,
    run_experiment,
    write_outputs,
    write_plot_script,
    write_rows,
    write_trace,
)
from tunneltime.peakfind import PeakSearchConfig, default_window, peak_arrival
from tunneltime.phasetime import moments_closed_form, phase_time_moments, transit_velocity
from tunneltime.quadrature import QuadratureSettings
from tunneltime.spectrum import Spectrum
from tunneltime.units import DimensionlessParams

FAST_QUAD = {"rel_tol": "1e-7"}
ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "results"


def small_config(experiment: str = "single", **over) -> ExperimentConfig:
    values = {"lambda": "30", "w_ratio": "1.0", "coarse_points": "32", "workers": "1"}
    values.update({k: str(v) for k, v in over.items()})
    return build_config(experiment, values)


class TestConfigParsing:
    def test_file_parsing_with_comments_and_lists(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference configuration\n"
            "lambda = 50, 100   # two widths\n"
            "w_ratio = 1.0\n"
            "\n"
            "kappa0 = 0.5\n"
            "delta = 10\n"
        )
        values = read_config_file(cfg)
        config = build_config("table1", values)
        assert config.lambdas == (50.0, 100.0)
        assert config.spectrum.kappa0 == 0.5

    def test_defaults_per_experiment(self):
        table1 = build_config("table1")
        assert table1.lambdas == tuple(float(v) for v in range(50, 501, 50))
        assert table1.w_ratios == (1.0,)
        fig1 = build_config("fig1")
        assert fig1.lambdas[0] == 20.0 and fig1.lambdas[-1] == 200.0
        assert fig1.w_ratios[0] == 1.0
        assert fig1.w_ratios[1] == pytest.approx(math.sqrt(1.1))
        fig2 = build_config("fig2")
        assert fig2.lambdas == (100.0,)
        assert len(fig2.w_ratios) == 21
        assert fig2.w_ratios[0] == 1.0 and fig2.w_ratios[-1] == 2.0
        single = build_config("single")
        assert single.quadrature == QuadratureSettings()
        assert single.peak == PeakSearchConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            build_config("table1", {"lambada": "50"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            build_config("table1", {"lambda": "fifty"})
        with pytest.raises(ConfigError):
            build_config("table1", {"rel_tol": "0"})
        with pytest.raises(ConfigError):
            build_config("table1", {"w_ratio": "0.5"})
        with pytest.raises(ConfigError):
            build_config("table1", {"lambda": ""})
        with pytest.raises(ConfigError, match="bad value for 'trace': 'maybe'"):
            build_config("single", {"trace": "maybe"})

    @pytest.mark.parametrize(
        ("section", "key", "top", "others", "message"),
        [
            # _gl_nodes solves a dense n x n eigenproblem
            ("quadrature", "nodes_per_panel", 128, {}, r"nodes_per_panel must be in \[8, 128\]"),
            # the scan holds coarse_points taus and densities
            ("peak", "coarse_points", 65536, {}, r"coarse_points must be in \[16, 65536\]"),
            # a sweep evaluates max_panels x nodes_per_panel nodes in one call
            ("quadrature", "max_panels", 65536, {},
             r"max_panels must be in \[1, 2\^21 / nodes_per_panel\] = \[1, 65536\]"),
            ("quadrature", "max_panels", 16384, {"nodes_per_panel": "128"},
             r"max_panels must be in \[1, 2\^21 / nodes_per_panel\] = \[1, 16384\]"),
        ],
        ids=["nodes_per_panel", "coarse_points", "max_panels-at-32-nodes", "max_panels-at-128-nodes"],
    )
    def test_size_key_is_capped(self, section, key, top, others, message):
        # only the boundary values are built; nothing that large is run
        config = build_config("single", {**others, key: str(top)})
        assert getattr(getattr(config, section), key) == top
        with pytest.raises(ConfigError, match=rf"{message}, got {top + 1}$"):
            build_config("single", {**others, key: str(top + 1)})

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            read_config_file(cfg)

    def test_readme_config_example_names_every_key(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        example = readme.split("### Config files", 1)[1].split("```")[1]
        cfg = tmp_path / "example.cfg"
        cfg.write_text(example)
        values = read_config_file(cfg)
        assert sorted(values) == sorted(_KEYS)
        config = build_config("table1", values)
        assert config.lambdas == (50.0, 100.0, 200.0)
        assert config.quadrature == QuadratureSettings()
        assert config.peak == PeakSearchConfig()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment 'bogus'"):
            build_config("bogus")
        with pytest.raises(ConfigError, match="unknown experiment 'bogus'"):
            ExperimentConfig("bogus", (100.0,), (1.0,))

    def test_overrides_beat_file_values(self):
        config = build_config("single", {"lambda": "40"}, {"lambda": "60", "out": None})
        assert config.lambdas == (60.0,)


class TestRows:
    def test_single_row_matches_reference(self):
        config = small_config(**{"lambda": "100", "coarse_points": "128"})
        (row,), trace = run_experiment(config)
        assert trace is None
        assert row.tau_spm is None and row.note.startswith("tau_spm diverges")
        assert row.tau_num == pytest.approx(21.41, rel=0.01)
        assert row.ratio_ana_num == pytest.approx(96.33, abs=0.5)

    def test_failed_row_noted_and_sweep_continues(self):
        # absurdly small panel cap: quadrature fails, row carries the note
        spec = Spectrum()
        row = compute_row(100.0, 1.0, spec, PeakSearchConfig(), QuadratureSettings(max_panels=4))
        assert row.note.startswith("failed:")
        assert row.tau_num is None and row.v_transit is None

    @pytest.mark.parametrize("lam", [1e50, 1e-50])
    @pytest.mark.parametrize("w", [1.0, 2.0])
    def test_lambda_outside_the_float_range_is_a_failed_row(self, w, lam):
        row = compute_row(lam, w, Spectrum(), PeakSearchConfig(), QuadratureSettings())
        assert row.note == (f"failed: closed-form moments leave the float range "
                            f"at W = {w:g}, lam = {lam:g}")
        assert row.tau_new is None and row.tau_num is None

    @pytest.mark.parametrize("w", [1.0, 2.0])
    def test_moment_combination_overflow_is_a_failed_row(self, w):
        row = compute_row(1e-40, w, Spectrum(), PeakSearchConfig(), QuadratureSettings())
        assert row.note == (f"failed: moment combinations overflow the float range "
                            f"at W = {w:g}, lam = 1e-40")
        assert row.tau_new is None and row.tau_num is None

    def test_window_hit_noted(self):
        spec = Spectrum()
        cfg = PeakSearchConfig(tau_min=40.0, tau_max=80.0, coarse_points=32)
        row = compute_row(100.0, 1.0, spec, cfg, QuadratureSettings())
        assert row.note.startswith("window_hit")
        assert row.note.endswith("; tau_spm diverges (E_M = V0)")  # both notes kept

    def test_coarse_grid_hits_the_window_only_at_its_ends(self):
        # an argmax one sample inside the window still has its bracket
        # [tau_{i-1}, tau_{i+1}] in it: fig2 on 16 points flags no row and
        # refines each to the same stationary point as the default run (same
        # window, so the same node set): within 1e-12 relative (measured
        # 3.6e-15), so it prints the committed tau_num cells
        rows, _ = run_experiment(build_config("fig2", {"coarse_points": "16"}))
        default, _ = run_experiment(build_config("fig2"))
        committed = read_rows(RESULTS / "fig2.csv")
        assert not [row for row in rows if row.note.startswith("window_hit")]
        for row, ref, cell in zip(rows, default, committed, strict=True):
            assert row.tau_num == pytest.approx(ref.tau_num, rel=1e-12, abs=0.0)
            assert f"{row.tau_num:.10g}" == f"{cell.tau_num:.10g}"

    def test_unrefined_peak_noted(self, monkeypatch):
        monkeypatch.setattr(wavepacket.TransmittedWave, "slope_and_derivative",
                            lambda self, tau: (1.0, -1.0))
        cfg = PeakSearchConfig(coarse_points=32)
        row = compute_row(100.0, 1.5, Spectrum(), cfg, QuadratureSettings())
        assert row.note == "unrefined: density slope does not fall from + to - across the argmax"
        assert row.refine_iters == 0

    def test_fig2_contains_divergent_first_point(self):
        values = {
            "lambda": "100",
            "w_ratio": "1.0, 1.5",
            "coarse_points": "48",
            "workers": "1",
            "rel_tol": "1e-7",
        }
        rows, _ = run_experiment(build_config("fig2", values))
        assert rows[0].tau_spm is None
        assert rows[0].note.startswith("tau_spm diverges")
        assert rows[1].tau_spm == pytest.approx(1.0 / math.sqrt(1.5**2 - 1.0), rel=1e-12)
        assert rows[1].note == ""


def test_serial_grid_makes_no_reference_cycles():
    # the process entry (tunneltime.__main__.run) runs without the cyclic
    # collector, so a grid point that left a reference cycle would leak
    # there in silence; every kind of row a serial grid makes is covered
    grids = [
        ("table1", {"lambda": "50, 100", "coarse_points": "32"}, "tau_spm"),
        ("fig2", {"w_ratio": "1.0, 1.5", "coarse_points": "32"}, "tau_spm"),
        ("single", {"lambda": "100", "coarse_points": "32", "trace": "true"}, "tau_spm"),
        ("single", {"lambda": "100", "max_panels": "1"}, "failed:"),
        ("single", {"lambda": "100", "coarse_points": "32", "tau_max": "15"}, "window_hit"),
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for experiment, values, note in grids:
            rows, trace = run_experiment(build_config(experiment, values))
            assert rows[0].note.startswith(note)
            assert (trace is not None) == (values.get("trace") == "true")
            assert gc.collect() == 0, (experiment, values)
    finally:
        if enabled:
            gc.enable()


class TestCsv:
    def test_round_trip(self, tmp_path):
        config = small_config()
        (row,), _ = run_experiment(config)
        path = tmp_path / "rows.csv"
        write_rows(path, [row])
        back = read_rows(path)
        assert len(back) == 1
        assert back[0].lam == row.lam
        assert back[0].tau_spm is None
        assert back[0].tau_num == pytest.approx(row.tau_num, rel=1e-9)
        assert back[0].note == row.note

    @pytest.mark.parametrize(
        ("note", "failed"),
        [
            ("failed: exit density is 0 on the search window", True),
            ("window_hit: peak at search boundary, widen tau_min/tau_max", True),
            ("unrefined: density slope does not fall from + to - across the argmax; "
             "tau_spm diverges (E_M = V0)", True),
            ("tau_spm diverges (E_M = V0)", False),
        ],
    )
    def test_failed_point_rule_survives_the_round_trip(self, tmp_path, note, failed):
        row = ResultRow(lam=100.0, w=1.0, note=note)
        path = tmp_path / "rows.csv"
        write_rows(path, [row])
        (back,) = read_rows(path)
        assert row.failed is failed and back.failed is failed

    @pytest.mark.parametrize(
        ("experiment", "key", "files"),
        [
            ("fig2", "plot_script", {"fig2.csv", "fig2.csv.gnuplot"}),
            ("single", "trace", {"single.csv", "single_trace.csv"}),
        ],
    )
    def test_write_outputs_writes_the_files_the_config_asks_for(
        self, tmp_path, monkeypatch, experiment, key, files
    ):
        monkeypatch.chdir(tmp_path)
        config = build_config(experiment, {key: "true"})
        rows = [ResultRow(lam=100.0, w=1.0, trace=[(1.0, 0.5)])]
        assert write_outputs(config, rows) == Path(f"{experiment}.csv")
        assert {p.name for p in tmp_path.iterdir()} == files
        if key == "trace":
            assert (tmp_path / "single_trace.csv").read_text() == (
                "tau[hbar/E_M],density[arb]\n1,0.5\n")

    def test_read_rows_rejects_another_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [(1.0, 0.5)])
        with pytest.raises(ConfigError, match="unexpected CSV header"):
            read_rows(path)

    @pytest.mark.parametrize(
        ("experiment", "ratios"), [("table1", ["1"]), ("fig1", ["1", "1.1", "1.3", "1.5"])]
    )
    def test_width_sweep_plot_script_draws_one_curve_per_w(self, tmp_path, experiment, ratios):
        # each curve keeps the rows whose W cell is its own W's printed cell
        script = tmp_path / f"{experiment}.csv.gnuplot"
        write_plot_script(script, RESULTS / f"{experiment}.csv", build_config(experiment))
        text = script.read_text()
        curves = re.findall(r'using 1:\(\$2 == (\S+) \? \$6 : 1/0\) with linespoints '
                            r'title "V0/E_M = (\S+)"', text)
        assert text.count(" using ") == len(curves) == len(ratios)
        assert [ratio for _, ratio in curves] == ratios
        csv_rows = (RESULTS / f"{experiment}.csv").read_text().splitlines()[1:]
        assert [w for w, _ in curves] == list(dict.fromkeys(row.split(",")[1] for row in csv_rows))

    @pytest.mark.parametrize("experiment", ["table1", "fig1", "fig2"])
    def test_committed_results_round_trip_byte_for_byte(self, tmp_path, experiment):
        committed = RESULTS / f"{experiment}.csv"
        path = tmp_path / "rows.csv"
        write_rows(path, read_rows(committed))
        assert path.read_bytes() == committed.read_bytes()

    def test_undefined_serialized_as_empty_cell(self, tmp_path):
        config = small_config()
        (row,), _ = run_experiment(config)
        path = tmp_path / "rows.csv"
        write_rows(path, [row])
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        cells = lines[1].split(",")
        assert cells[2] == ""  # tau_spm empty, never 0
        assert "diverges" in lines[1]

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        (row,), _ = run_experiment(config)
        (row2,), _ = run_experiment(config)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows(p1, [row])
        write_rows(p2, [row2])
        assert p1.read_bytes() == p2.read_bytes()

    def test_trace_monotone_and_peaked_near_tau_num(self, tmp_path):
        values = {
            "lambda": "100",
            "w_ratio": "1.0",
            "coarse_points": "64",
            "workers": "1",
            "trace": "true",
        }
        config = build_config("single", values)
        (row,), trace = run_experiment(config)
        assert trace is not None and len(trace) == 64
        taus = [t for t, _ in trace]
        assert all(b > a for a, b in zip(taus, taus[1:]))
        dens = [d for _, d in trace]
        best = taus[dens.index(max(dens))]
        step = taus[1] - taus[0]
        assert abs(best - row.tau_num) <= step
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
        assert path.read_text().splitlines()[0] == "tau[hbar/E_M],density[arb]"


@pytest.mark.parametrize("experiment", ["table1", "fig1", "fig2"])
def test_committed_results_match_a_fresh_run(tmp_path, experiment):
    # results/ is what the CLI writes today, byte for byte
    out = tmp_path / f"{experiment}.csv"
    rows, _ = run_experiment(build_config(experiment, {"workers": "1"}))
    write_rows(out, rows)
    assert out.read_bytes() == (RESULTS / f"{experiment}.csv").read_bytes()


@pytest.mark.parametrize("experiment", ["table1", "fig1", "fig2", "single"])
def test_committed_peak_digits_are_converged(experiment):
    # every printed digit of the peak-derived cells is right.  Reference: the
    # root of the density slope on a finer node set (rel_tol 1e-12, 64 nodes
    # per panel), found by Brent's method to 4 eps relative, not by the
    # search's own Newton steps.  Each committed cell equals it to one unit in
    # its 10th significant digit (unrounded, at most 4.4e-13 relative apart)
    grid = {"lambda": "500", "w_ratio": "1"} if experiment == "single" else {}
    config = build_config(experiment, grid)
    points = [(lam, w) for w in config.w_ratios for lam in config.lambdas]
    fine = QuadratureSettings(rel_tol=1e-12, nodes_per_panel=64)
    for (lam, w), ref in zip(points, read_rows(RESULTS / f"{experiment}.csv"), strict=True):
        params = DimensionlessParams(W=w, lam=lam)
        peak = peak_arrival(config.spectrum, params, config.peak, fine)
        step = peak.taus[1] - peak.taus[0]
        root = brentq(lambda tau: peak.wave.slope_and_derivative(tau)[0],
                      peak.tau_peak - step, peak.tau_peak + step,
                      xtol=1e-300, rtol=4 * sys.float_info.epsilon)
        v_transit = transit_velocity(root, params)
        converged = {"tau_num": root, "v_transit": v_transit,
                     "ratio_ana_num": 100.0 * transit_velocity(peak.tau_new, params) / v_transit}
        for name, value in converged.items():
            printed = getattr(ref, name)
            unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 9)
            assert abs(printed - value) <= unit, (ref.lam, ref.w, name, printed, value)


def test_reproduce_script_regenerates_the_committed_files(tmp_path):
    # the regeneration step itself, from an uninstalled checkout: the
    # script writes all seven files under results/ in its working directory,
    # the single point's trace among them (the blocked coarse scan, bytes).
    # RuntimeWarnings are errors: a numpy overflow or invalid value on a
    # committed grid fails the run
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / "reproduce.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    names = ("table1.csv", "fig1.csv", "fig1.csv.gnuplot", "fig2.csv", "fig2.csv.gnuplot",
             "single.csv", "single_trace.csv")
    for name in names:
        assert (tmp_path / "results" / name).read_bytes() == (RESULTS / name).read_bytes()


def test_readme_quickstart_prints_what_its_comments_say():
    # the README's library example, run from an uninstalled checkout: each
    # printed line matches its `# ...` comment to the digits shown there
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```")[0]
    done = subprocess.run(
        [sys.executable, "-c", block],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    comments = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(")]
    for printed, comment in zip(done.stdout.splitlines(), comments, strict=True):
        shown = comment.split()[0]
        if re.fullmatch(r"-?\d+\.\d+", shown):
            assert f"{float(printed):.{len(shown.split('.')[1])}f}" == shown
        else:
            assert printed in (shown, comment)


class TestSweeps:
    def test_table1_subgrid(self):
        values = {"lambda": "50, 100", "workers": "1", "coarse_points": "64"}
        rows, _ = run_experiment(build_config("table1", values))
        assert [r.lam for r in rows] == [50.0, 100.0]
        assert rows[0].tau_num == pytest.approx(10.20, rel=0.01)
        assert rows[1].tau_num == pytest.approx(21.41, rel=0.01)

    def test_parallel_equals_serial(self):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("single-cpu runner")
        values = {"lambda": "30, 60", "coarse_points": "32"}
        serial, _ = run_experiment(build_config("table1", dict(values, workers="1")))
        parallel, _ = run_experiment(build_config("table1", dict(values, workers="2")))
        assert [r.tau_num for r in serial] == [r.tau_num for r in parallel]

    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [("1", 2, []), ("8", 2, [2]), ("8", 16, [3])],
        ids=["one-worker", "cpu-bound", "point-bound"],
    )
    def test_pool_size_is_the_least_of_workers_points_and_cpus(
        self, monkeypatch, workers, cpus, expected
    ):
        # on a 3-point grid: one worker starts no pool, 8 workers on 2 CPUs a
        # pool of 2, and 8 workers on 16 CPUs a pool of 3
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        config = small_config("table1", **{"lambda": "30, 40, 50", "workers": workers})
        rows, _ = run_experiment(config)
        assert sizes == expected and [r.lam for r in rows] == [30.0, 40.0, 50.0]

    def test_default_run_imports_no_process_pool(self):
        # a serial run leaves the pool module unloaded; the pool class still
        # resolves on the module for callers that build a pool themselves
        code = (
            "import sys; from tunneltime import experiments; "
            "experiments.run_experiment(experiments.build_config("
            "'table1', {'lambda': '50, 100', 'coarse_points': '32'})); "
            "print('concurrent.futures.process' in sys.modules); "
            "print(experiments.ProcessPoolExecutor.__module__)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.split() == ["False", "concurrent.futures.process"]

    def test_run_experiment_dispatch(self):
        values = {"lambda": "30", "w_ratio": "1.0", "coarse_points": "32", "workers": "1"}
        rows, trace = run_experiment(build_config("table1", values))
        assert len(rows) == 1 and trace is None

    def test_density_trace_grid(self):
        config = small_config(**{"coarse_points": "16"})
        trace = density_trace(config, 30.0, 1.0)
        assert len(trace) == 16
        assert all(d >= 0.0 for _, d in trace)

    def test_density_trace_samples_the_peak_search_grid(self):
        # the trace is the coarse scan of the row's own peak search
        config = small_config(**{"lambda": "60", "w_ratio": "1.2"})
        params = DimensionlessParams(W=1.2, lam=60.0)
        lo, hi = default_window(phase_time_moments(moments_closed_form(params)))
        step = (hi - lo) / 31
        trace = density_trace(config, 60.0, 1.2)
        assert [tau for tau, _ in trace] == [lo + i * step for i in range(32)]
        (row,), _ = run_experiment(config)
        tau_argmax = max(trace, key=lambda s: s[1])[0]
        assert abs(tau_argmax - row.tau_num) <= step

    def test_density_trace_of_a_zero_density_raises(self):
        # the trace is the peak search's scan, and a density 0 everywhere has no peak
        config = dataclasses.replace(small_config(), spectrum=Spectrum(norm=0.0))
        with pytest.raises(ValueError, match="exit density is 0 at every coarse sample"):
            density_trace(config, 30.0, 1.0)

    def test_density_trace_of_a_quadrature_failure_raises_value_error(self):
        # QuadratureError is a ValueError, like every other point that cannot be computed
        with pytest.raises(ValueError, match="initial panel count 3 exceeds max_panels=2"):
            density_trace(build_config("single", {"max_panels": "2"}), 100.0, 1.0)

    def test_single_trace_reuses_the_row_node_set(self, monkeypatch):
        # --trace adds no second node set: the trace is the row's own scan
        real_engine = wavepacket.transmitted_integral
        calls = []

        def counted(*args):
            calls.append(args)
            return real_engine(*args)

        monkeypatch.setattr(wavepacket, "transmitted_integral", counted)
        config = small_config(**{"lambda": "60", "w_ratio": "1.2", "trace": "1"})
        (row,), trace = run_experiment(config)
        assert len(calls) == 1
        assert trace == density_trace(config, 60.0, 1.2)
        assert row.trace is trace and not row.note

    def test_failed_single_row_has_no_trace(self):
        config = small_config(**{"max_panels": "4", "trace": "1"})
        (row,), trace = run_experiment(config)
        assert row.note.startswith("failed:") and trace is None

    def test_fig1_matched_energy_series_flattens(self):
        # v(lam) increments shrink: oracle gives v(100) - v(200) = 0.0505
        # (the velocity is settling toward its asymptotic constant)
        values = {"lambda": "50, 100, 200", "w_ratio": "1.0", "workers": "1"}
        rows = run_experiment(build_config("fig1", values))[0]
        v = {r.lam: r.v_transit for r in rows}
        assert all(val > 0.0 for val in v.values())
        assert v[50.0] > v[100.0] > v[200.0]
        assert v[50.0] - v[100.0] > v[100.0] - v[200.0]
        assert v[100.0] - v[200.0] == pytest.approx(0.0505, abs=2e-3)
        assert 4.5 < v[200.0] < 4.95


def test_benchmark_tracer_sees_the_point_path(monkeypatch):
    # perfbench/layers.py wraps module attributes by name; the point path
    # must keep calling them through their modules
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench/layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclasses look it up
    spec.loader.exec_module(layers)
    with layers.traced(layers.Tracer()) as tracer:
        (row,), _ = run_experiment(small_config())
    assert row.tau_num is not None
    by_id = {s.id: s for s in tracer.spans}

    def named(name):
        return [s for s in tracer.spans if s.name == name]

    (row_span,) = named(layers.COMPUTE_ROW)
    assert len(named(layers.PEAK_ARRIVAL)) == 1
    (moments,) = named(layers.MOMENTS)
    root = moments
    while root.parent != -1:
        root = by_id[root.parent]
    assert root is row_span
    # the peak search builds the engine once, through the wrapped name; its
    # one refinement runs through the wrapped quadrature, and it hands back
    # the amplitude on its nodes: no node is evaluated twice
    (peak,) = named(layers.PEAK_ARRIVAL)
    (engine,) = named(layers.TRANSMITTED)
    (quad,) = named(layers.QUADRATURE)
    assert engine.parent == peak.id and quad.parent == engine.id
    evaluations, panels = quad.attr
    assert panels == row.panels_max
    assert sum(s.attr for s in named(layers.MODULUS_PHASE)) == evaluations > 0


def test_per_layer_benchmark_mode_runs():
    # `perfbench/run.py --trace 1` runs the point path in-process through
    # the names it looks up (`workers`, `ProcessPoolExecutor`,
    # `density_trace`, the wrapped engine); its scratch files go under the
    # checkout's .perfbench/
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_trace", "--trace", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["metrics"]["wavepacket.transmitted_integral.calls"]["value"] == 1

import csv
import dataclasses
import importlib.util
import math
import os
import sys
from pathlib import Path

import pytest

from tunneltime import experiments, peakfind, wavepacket
from tunneltime.experiments import (
    _KEYS,
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    build_config,
    compute_row,
    density_trace,
    read_config_file,
    read_rows,
    run_experiment,
    write_rows,
    write_trace,
)
from tunneltime.peakfind import PeakSearchConfig, default_window
from tunneltime.phasetime import moments_closed_form, phase_time_moments
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

    def test_window_hit_noted(self):
        spec = Spectrum()
        cfg = PeakSearchConfig(tau_min=40.0, tau_max=80.0, coarse_points=32)
        row = compute_row(100.0, 1.0, spec, cfg, QuadratureSettings())
        assert row.note.startswith("window_hit")
        assert row.note.endswith("; tau_spm diverges (E_M = V0)")  # both notes kept

    def test_unrefined_peak_noted(self, monkeypatch):
        real_scan = peakfind.coarse_scan

        def flat_top(*args):
            scan = real_scan(*args)
            dens = scan.densities.copy()
            i = int(dens.argmax())
            dens[i + 1] = dens[i]
            return dataclasses.replace(scan, densities=dens)

        monkeypatch.setattr(peakfind, "coarse_scan", flat_top)
        cfg = PeakSearchConfig(coarse_points=32)
        row = compute_row(100.0, 1.5, Spectrum(), cfg, QuadratureSettings())
        assert row.note == "unrefined: coarse scan not unimodal at the argmax"
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
    # results/ is what the CLI writes today.  On the flat W = 1 peaks,
    # rounding-level density changes can move the golden-section search by
    # up to refine_tol, so tau_num (and v_transit, ratio_ana_num, which are
    # proportional to 1/tau_num and tau_num) get 1e-4 rel + 2e-4 abs; fig2's
    # sharp peaks and every other column must match exactly
    out = tmp_path / f"{experiment}.csv"
    rows, _ = run_experiment(build_config(experiment, {"workers": "1"}))
    write_rows(out, rows)
    committed = RESULTS / f"{experiment}.csv"
    if experiment == "fig2":
        assert out.read_bytes() == committed.read_bytes()
        return
    fresh, ref = (list(csv.reader(path.read_text().splitlines())) for path in (out, committed))
    assert fresh[0] == ref[0] and len(fresh) == len(ref)
    tau_col = CSV_HEADER.index("tau_num[hbar/E_M]")
    derived = {tau_col, CSV_HEADER.index("v_transit[sqrt(V0/2m)]"),
               CSV_HEADER.index("ratio_ana_num[%]")}
    for got, want in zip(fresh[1:], ref[1:]):
        assert [c for i, c in enumerate(got) if i not in derived] == [
            c for i, c in enumerate(want) if i not in derived
        ]
        tau = float(want[tau_col])
        rel = 1e-4 + 2e-4 / abs(tau)
        for i in derived:
            assert float(got[i]) == pytest.approx(float(want[i]), rel=rel)


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

    @pytest.mark.parametrize("env", [None, "0"])
    def test_zero_workers_means_available_parallelism(self, monkeypatch, env):
        # workers = 0 defers to TUNNELTIME_WORKERS; unset or 0 there -> cpu_count
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
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if env is None:
            monkeypatch.delenv("TUNNELTIME_WORKERS", raising=False)
        else:
            monkeypatch.setenv("TUNNELTIME_WORKERS", env)
        rows, _ = run_experiment(small_config("table1", **{"lambda": "30, 40, 50", "workers": "0"}))
        assert sizes == [2] and [r.lam for r in rows] == [30.0, 40.0, 50.0]

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
        lo, hi = default_window(phase_time_moments(moments_closed_form(params), params))
        step = (hi - lo) / 31
        trace = density_trace(config, 60.0, 1.2)
        assert [tau for tau, _ in trace] == [lo + i * step for i in range(32)]
        (row,), _ = run_experiment(config)
        tau_argmax = max(trace, key=lambda s: s[1])[0]
        assert abs(tau_argmax - row.tau_num) <= step

    def test_single_trace_reuses_the_row_node_set(self, monkeypatch):
        # --trace adds no second node set: the trace is the row's own scan
        real_amplitude = wavepacket.exit_amplitude
        calls = []

        def counted(*args):
            calls.append(args)
            return real_amplitude(*args)

        monkeypatch.setattr(wavepacket, "exit_amplitude", counted)
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
        values = {"lambda": "50, 100, 200", "w_ratio": "1.0", "workers": "0"}
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
    assert sum(s.attr for s in named(layers.MODULUS_PHASE)) > 0

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tunneltime.cli import main
from tunneltime.experiments import read_rows


def test_single_success_and_output(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(
        ["single", "--lambda", "30", "--w-ratio", "1.0", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 1 and rows[0].lam == 30.0
    assert "wrote 1 rows" in capsys.readouterr().out


def test_trace_flag_writes_companion_file(tmp_path):
    out = tmp_path / "row.csv"
    code = main(["single", "--lambda", "30", "--out", str(out), "--trace"])
    assert code == 0
    trace = tmp_path / "row_trace.csv"
    assert trace.exists()
    assert trace.read_text().startswith("tau[hbar/E_M],density[arb]")


def test_plot_script_emission(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(
        ["fig2", "--w-ratio", "1.0,1.5", "--out", str(out), "--plot-script"]
    )
    assert code == 0
    script = tmp_path / "fig2.csv.gnuplot"
    assert script.exists()
    assert "plot" in script.read_text()


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("no_such_key = 1\n")
    assert main(["table1", "--config", str(cfg)]) == 1
    assert "invalid config" in capsys.readouterr().err


def test_bad_flag_exit_code(capsys):
    assert main(["table1", "--definitely-not-a-flag"]) == 1


def test_unknown_subcommand_exit_code():
    assert main(["table9"]) == 1


def test_numerical_failure_exit_code(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("max_panels = 4\nlambda = 30\n")
    out = tmp_path / "fail.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 2
    rows = read_rows(out)
    assert rows[0].note.startswith("failed:")


def test_partial_failure_exit_code(tmp_path):
    # window [15, 25] brackets the lam = 100 peak (21.4) but not lam = 30 (6.4)
    cfg = tmp_path / "window.cfg"
    cfg.write_text("tau_min = 15\ntau_max = 25\nlambda = 30, 100\ncoarse_points = 32\nworkers = 1\n")
    out = tmp_path / "partial.csv"
    assert main(["table1", "--config", str(cfg), "--out", str(out)]) == 3
    rows = read_rows(out)
    notes = [r.note for r in rows]
    assert any(n.startswith("window_hit") for n in notes)
    assert any(n == "" or n.startswith("tau_spm") for n in notes)


def test_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["single", "--lambda", "30"]) == 0
    assert (tmp_path / "single.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["single", "--lambda", "100,200"],
        ["single", "--w-ratio", "1.0,1.5"],
        ["fig2", "--lambda", "50,100"],
        ["single", "--kappa0", "1.5"],
        ["single", "--kappa0", "nan"],
        ["single", "--delta", "-1"],
        ["single", "--delta", "inf"],
        ["single", "--lambda", "nan"],
        ["single", "--lambda", "inf"],
        ["single", "--lambda", "-1"],
        ["single", "--w-ratio", "nan"],
        ["table1", "--lambda", "50,inf"],
        ["table1", "--trace"],
    ],
)
def test_grid_the_experiment_cannot_run_is_rejected(tmp_path, capsys, argv):
    out = tmp_path / "rejected.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line", ["refine_tol = inf", "tau_min = nan", "tau_max = inf", "rel_tol = inf"]
)
def test_non_finite_search_or_quadrature_knob_is_rejected(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"lambda = 100\n{line}\n")
    out = tmp_path / "rejected.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 1
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


def test_key_set_twice_in_a_config_file_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("lambda = 50\nlambda = 100\n")
    out = tmp_path / "rejected.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"invalid config: {cfg}:2: 'lambda'" in capsys.readouterr().err
    assert not out.exists()


def test_lone_bound_that_empties_the_window_names_the_automatic_bound(tmp_path):
    # the automatic tau_min at lam = 100 is 0.1 tau_new = 2.22, above tau_max
    cfg = tmp_path / "window.cfg"
    cfg.write_text("lambda = 100\ntau_max = 1\n")
    out = tmp_path / "empty.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 2
    (row,) = read_rows(out)
    assert row.note.startswith("failed: empty search window [2.22222, 1]")
    assert "automatic tau_min comes from tau_new = 22.2222" in row.note


def test_single_trace_matches_the_reference_trace(tmp_path):
    # the lam = 500 trace as the benchmark's correctness gate records it
    reference = Path(__file__).resolve().parents[1] / "perfbench/reference/single_trace_trace.csv"
    out = tmp_path / "single.csv"
    assert main(["single", "--lambda", "500", "--w-ratio", "1", "--trace", "--out", str(out)]) == 0
    with open(reference, newline="") as fh:
        expected = list(csv.reader(fh))
    with open(tmp_path / "single_trace.csv", newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == expected[0]
    assert [tau for tau, _ in got[1:]] == [tau for tau, _ in expected[1:]]
    peak = max(float(d) for _, d in expected[1:])
    for (_, d), (_, d_ref) in zip(got[1:], expected[1:], strict=True):
        assert abs(float(d) - float(d_ref)) <= 1e-9 * peak


def test_bad_worker_count_in_environment_is_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TUNNELTIME_WORKERS", "abc")
    out = tmp_path / "rejected.csv"
    assert main(["table1", "--lambda", "30", "--out", str(out)]) == 1
    assert "invalid config: TUNNELTIME_WORKERS" in capsys.readouterr().err
    assert not out.exists()


def test_negative_worker_count_is_rejected_from_either_source(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "workers.cfg"
    cfg.write_text("workers = -2\n")
    out = tmp_path / "rejected.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 1
    assert "invalid config: workers must be >= 0, got -2" in capsys.readouterr().err
    monkeypatch.setenv("TUNNELTIME_WORKERS", "-1")
    assert main(["single", "--out", str(out)]) == 1
    assert "invalid config: TUNNELTIME_WORKERS must be an integer >= 0, got '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_is_reported_not_raised(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "row.csv"
    assert main(["single", "--lambda", "30", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"tunneltime: cannot write {out}: ")
    assert not out.parent.exists()


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, tunneltime.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"

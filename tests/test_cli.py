import argparse
import csv
import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tunneltime import experiments
from tunneltime.cli import build_parser, main
from tunneltime.experiments import _KEYS, read_rows


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


def test_failed_trace_run_leaves_no_earlier_trace_in_place(tmp_path):
    # the trace file always belongs to the run that wrote the CSV beside it
    out, trace = tmp_path / "x.csv", tmp_path / "x_trace.csv"
    assert main(["single", "--lambda", "100", "--trace", "--out", str(out)]) == 0
    assert len(trace.read_text().splitlines()) == 257
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("max_panels = 1\n")  # fewer than the seed panels of every row
    assert main(["single", "--lambda", "100", "--trace", "--config", str(cfg),
                 "--out", str(out)]) == 2
    (row,) = read_rows(out)
    assert row.note.startswith("failed:")
    assert trace.read_text() == "tau[hbar/E_M],density[arb]\n"


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


def test_lambda_outside_the_float_range_fails_its_row_only(tmp_path):
    # the closed-form moments overflow at lam = 1e50; the rest of the grid
    # still runs and is written
    out, alone = tmp_path / "mixed.csv", tmp_path / "alone.csv"
    assert main(["table1", "--lambda", "50,1e50", "--out", str(out)]) == 3
    assert main(["table1", "--lambda", "50", "--out", str(alone)]) == 0
    assert out.read_text().splitlines()[1] == alone.read_text().splitlines()[1]
    bad = read_rows(out)[1]
    assert bad.lam == 1e50 and bad.note.startswith("failed:") and "lam = 1e+50" in bad.note


def test_wide_barrier_at_matched_energies_runs_under_the_default_max_panels(tmp_path):
    # the exit amplitude is refined on its support below the cutoff, so the
    # panel count does not grow with lam (it used to need more than 4096)
    out = tmp_path / "wide.csv"
    assert main(["single", "--lambda", "3000", "--w-ratio", "1", "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert row.note == "tau_spm diverges (E_M = V0)" and row.refine_iters > 0
    assert row.panels_max < 100


def test_row_just_above_the_cutoff_at_lam_1e20_builds_and_fails_loudly(tmp_path):
    # at W = 1.0000001, lam = 1e20 the support is t < 1.5e-18, where a + x /
    # lam rounds to doubles lam ulp(a) = 5.4 apart in x.  The engine passes x
    # itself, so the node set builds; the density's contrast over the window
    # is rounding noise there, so the peak lands on the window's edge and the
    # row says so instead of printing a tau_num with no error behind it
    out = tmp_path / "staircase.csv"
    assert main(["single", "--lambda", "1e20", "--w-ratio", "1.0000001", "--out", str(out)]) == 2
    (row,) = read_rows(out)
    assert row.note.startswith("window_hit: ") and row.panels_max > 0


def test_unrefined_row_counts_as_a_failed_point(tmp_path, capsys):
    # at W = 1.5, lam = 3e7 the slope does not bracket the coarse argmax, and
    # that grid argmax is far from the peak: the run must not read as a success
    out, mixed = tmp_path / "unrefined.csv", tmp_path / "mixed.csv"
    assert main(["single", "--lambda", "3e7", "--w-ratio", "1.5", "--out", str(out)]) == 2
    (row,) = read_rows(out)
    assert row.note.startswith("unrefined: ") and row.refine_iters == 0
    assert "(1 failed)" in capsys.readouterr().out
    assert main(["table1", "--lambda", "50,3e7", "--w-ratio", "1.5", "--out", str(mixed)]) == 3
    assert [r.note.startswith("unrefined: ") for r in read_rows(mixed)] == [False, True]


def test_config_that_sets_refine_tol_is_rejected(tmp_path, capsys):
    # the refinement always runs to two adjacent doubles; the old stopping
    # width is no longer a key
    cfg = tmp_path / "old.cfg"
    cfg.write_text("refine_tol = 1e-4\n")
    out = tmp_path / "rejected.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    assert not out.exists()


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
        ["single", "--delta", "1e200"],  # the spectrum squares delta
        ["table1", "--delta", "1e200"],
    ],
)
def test_grid_the_experiment_cannot_run_is_rejected(tmp_path, capsys, argv):
    out = tmp_path / "rejected.csv"
    assert main([*argv, "--out", str(out)]) == 1
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


def test_w_ratio_whose_square_overflows_is_rejected_naming_w(tmp_path, capsys):
    # a = sqrt((W - 1)(W + 1)) is inf past W ~ 1.34e154
    out = tmp_path / "rejected.csv"
    assert main(["single", "--lambda", "100", "--w-ratio", "1e200", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "tunneltime: invalid config: W = sqrt(V0/E_M) must be >= 1 with a finite square" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "lam, w, note",
    [
        # (a lam)^2 overflows inside the closed-form moments
        ("100", "1e154", "closed-form moments leave the float range at W = 1e+154, lam = 100"),
        # the moments are finite, but their products overflow
        ("1e4", "1e150", "moment combinations overflow the float range at W = 1e+150, lam = 10000"),
    ],
)
def test_moment_overflow_note_names_w_and_lam(tmp_path, lam, w, note):
    # a is about W here, so W is as much the cause as lam
    out = tmp_path / "row.csv"
    assert main(["single", "--lambda", lam, "--w-ratio", w, "--out", str(out)]) == 2
    (row,) = read_rows(out)
    assert row.note == f"failed: {note}"


def test_largest_delta_still_runs_to_an_underflowed_row(tmp_path):
    # delta = 1e154 squares to a double; g underflows to 0 away from kappa0,
    # so the row fails on its density, as a numerical failure
    out = tmp_path / "row.csv"
    assert main(["single", "--delta", "1e154", "--out", str(out)]) == 2
    (row,) = read_rows(out)
    assert row.note.startswith("failed: exit density is 0")


def test_config_file_that_is_not_utf8_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"\xff")
    out = tmp_path / "rejected.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 1
    assert f"tunneltime: invalid config: {cfg}: not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_a_utf8_byte_order_mark_runs(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes("lambda = 100\n".encode("utf-8-sig"))
    out = tmp_path / "row.csv"
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 0
    (row,) = read_rows(out)
    assert row.lam == 100.0


@pytest.mark.parametrize(
    "line", ["tau_min = nan", "tau_max = inf", "rel_tol = inf"]
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


def test_negative_worker_count_is_rejected_from_either_source(tmp_path, capsys):
    # the config key is the only source of the worker count; it is a
    # process count, so 0 is rejected like a negative one
    cfg = tmp_path / "workers.cfg"
    out = tmp_path / "rejected.csv"
    for workers in (0, -2):
        cfg.write_text(f"workers = {workers}\n")
        assert main(["single", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"invalid config: workers must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_flag_value_reports_the_config_table_message(tmp_path, capsys):
    # a flag value is parsed by its config key's entry, as a file line is
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("kappa0 = abc\n")
    out = tmp_path / "rejected.csv"
    assert main(["single", "--kappa0", "abc", "--out", str(out)]) == 1
    from_flag = capsys.readouterr().err
    assert main(["single", "--config", str(cfg), "--out", str(out)]) == 1
    from_file = capsys.readouterr().err
    assert from_flag == from_file
    assert from_flag.startswith("tunneltime: invalid config: bad value for 'kappa0': 'abc'")
    assert not out.exists()


def test_every_flag_is_one_untyped_config_key():
    # one parser, no subcommands; each flag but --config sets the config
    # key it names and leaves the parsing to that key
    actions = build_parser()._actions
    assert not any(isinstance(a, argparse._SubParsersAction) for a in actions)
    flags = [a for a in actions if a.option_strings and a.dest != "help"]
    assert [a.dest for a in flags if a.dest not in _KEYS] == ["config"]
    assert [a.dest for a in flags if a.type is not None] == []


@pytest.mark.parametrize("out", ["sub/", "", ".", ".."])
def test_out_that_names_no_file_is_rejected_before_the_run(tmp_path, monkeypatch, capsys, out):
    # Path("sub/") drops the slash, so the run would write a file "sub"
    monkeypatch.chdir(tmp_path)
    assert main(["single", "--lambda", "30", "--out", out]) == 1
    assert capsys.readouterr().err.startswith(
        f"tunneltime: invalid config: bad value for 'out': {out!r} (expected a file name)")
    assert list(tmp_path.iterdir()) == []


def test_out_that_names_a_directory_is_rejected_before_the_run(tmp_path):
    # `out` is checked against the file system while the config is built,
    # so no grid point runs and the numeric modules never load
    (tmp_path / "d").mkdir()
    code = ("import sys\n"
            "from tunneltime.cli import main\n"
            "code = main(['single', '--lambda', '30', '--out', 'd'])\n"
            "print(code, 'tunneltime.peakfind' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, text=True, check=True)
    assert done.stdout == "1 False\n"
    assert done.stderr == ("tunneltime: invalid config: bad value for 'out': 'd' "
                           "(expected a file name)\n")
    assert list(tmp_path.iterdir()) == [tmp_path / "d"] and not any((tmp_path / "d").iterdir())


def test_unwritable_output_is_reported_not_raised(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "row.csv"
    assert main(["single", "--lambda", "30", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"tunneltime: cannot write {out}: ")
    assert not out.parent.exists()


def test_write_error_without_a_file_name_names_the_csv(tmp_path, capsys, monkeypatch):
    # a write or close that runs out of space raises an OSError with no filename
    def full_disk(path, rows):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(experiments, "write_rows", full_disk)
    out = tmp_path / "row.csv"
    assert main(["single", "--lambda", "30", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"tunneltime: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")


def test_cli_import_loads_no_scipy():
    # nor numpy: importing the CLI, building a config, rejecting a bad one
    # and printing --help all finish before the numeric modules load
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy'))\n"
        "steps = {}\n"
        "import tunneltime.cli\n"
        "from tunneltime import cli, experiments  # bound by the import above\n"
        "steps['import'] = loaded()\n"
        "experiments.build_config('table1', {}, {})\n"
        "steps['build_config'] = loaded()\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    steps['exit_code'] = cli.main(['table1', '--kappa0', '1.5'])\n"
        "steps['invalid'] = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()) as help_text:\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        steps['help_exit'] = exc.code\n"
        "steps['help'] = loaded()\n"
        "steps['help_text'] = help_text.getvalue().startswith('usage: tunneltime')\n"
        "print(json.dumps(steps))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    steps = json.loads(done.stdout)
    assert steps == {
        "import": [],
        "build_config": [],
        "exit_code": 1,
        "invalid": [],
        "help_exit": 0,
        "help": [],
        "help_text": True,
    }


def test_cli_run_loads_no_numpy_polynomial_and_stays_single_threaded(tmp_path):
    # the quadrature rule comes from numpy.linalg, and the BLAS calls of the
    # coarse scan and of the slope run under the single-threaded OpenBLAS
    # `import tunneltime` asks for
    src = Path(__file__).resolve().parents[1] / "src"
    out = tmp_path / "row.csv"
    code = (
        "import json, os, sys\n"
        "from tunneltime.cli import main\n"
        f"assert main(['single', '--lambda', '500', '--w-ratio', '1', '--trace', '--out', {str(out)!r}]) == 0\n"
        "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('numpy.polynomial')),\n"
        "                  None if tasks is None else len(tasks)]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**env, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    polynomial, threads = json.loads(done.stdout.splitlines()[-1])
    assert polynomial == []
    assert out.exists() and out.with_name("row_trace.csv").exists()
    if threads is not None:
        assert threads == 1

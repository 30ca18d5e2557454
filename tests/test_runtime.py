"""The process-wide settings: what `import tunneltime` sets before numpy
loads, and what the process entry (`tunneltime.__main__.run`) sets.

A bare `import tunneltime` does not load numpy, so the BLAS checks import
a numeric submodule (`tunneltime.peakfind`), which loads numpy and
OpenBLAS through the package.  The entry checks launch `python -m
tunneltime` and in-process callers of `cli.main` in child processes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# prints the variable and the thread count after the imports; no count
# where the platform has no per-process task list
REPORT = (
    "import json, os; "
    "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None; "
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), "
    "None if tasks is None else len(tasks)]))"
)


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run(imports: str, **env: str) -> tuple[str | None, int | None]:
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", f"{imports}; {REPORT}"],
        env=child_env,
        capture_output=True,
        text=True,
        check=True,
    )
    return tuple(json.loads(done.stdout))


def test_import_runs_a_single_threaded_blas():
    value, threads = _run("import tunneltime.peakfind")
    assert value == "1"
    if threads is None:
        pytest.skip("no per-process task list on this platform")
    assert threads == 1


def test_user_thread_count_wins():
    value, _ = _run("import tunneltime.peakfind", OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_numpy_loaded_first_leaves_the_environment_alone():
    value, _ = _run("import numpy, tunneltime")
    assert value is None


def _entry(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "tunneltime", *args],
        cwd=cwd, env=_child_env(), capture_output=True, text=True,
    )


def test_process_entry_keeps_the_exit_codes_and_the_output(tmp_path):
    done = _entry(tmp_path, "single", "--lambda", "500", "--w-ratio", "1", "--trace")
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "single: wrote 1 rows to single.csv\n", "")
    for name in ("single.csv", "single_trace.csv"):
        assert (tmp_path / name).read_bytes() == (ROOT / "results" / name).read_bytes()

    done = _entry(tmp_path, "single", "--kappa0", "1.5")
    assert done.returncode == 1
    assert done.stderr.startswith("tunneltime: invalid config: ")

    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("max_panels = 1\n")
    done = _entry(tmp_path, "single", "--config", str(cfg), "--out", "failed.csv")
    assert done.returncode == 2
    assert done.stdout == "single: wrote 1 rows to failed.csv (1 failed)\n"


# runs one grid point through the given entry, then reports the exit code
# and the collector's state
ENTRY_STATE = (
    "import gc, json, sys; "
    "sys.argv = ['tunneltime', 'single', '--lambda', '30', '--out', 'row.csv']; "
    "from tunneltime import {module}; "
    "code = {module}.{entry}(); "
    "print(json.dumps([code, gc.isenabled(), gc.get_freeze_count() > 0]), file=sys.stderr)"
)


@pytest.mark.parametrize(
    "module, entry, state",
    [
        ("cli", "main", [0, True, False]),  # a library caller's collector
        ("__main__", "run", [0, False, True]),  # the process entry's
    ],
)
def test_only_the_process_entry_turns_the_collector_off(tmp_path, module, entry, state):
    code = ENTRY_STATE.format(module=module, entry=entry)
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path, env=_child_env(), capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stderr) == state


def test_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"tunneltime": "tunneltime.__main__:run"}

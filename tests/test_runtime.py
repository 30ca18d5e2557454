"""The process-wide settings `import tunneltime` makes before numpy loads.

A bare `import tunneltime` does not load numpy, so these checks import a
numeric submodule (`tunneltime.peakfind`), which loads numpy and OpenBLAS
through the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# prints the variable and the thread count after the imports; no count
# where the platform has no per-process task list
REPORT = (
    "import json, os; "
    "tasks = os.listdir('/proc/self/task') if os.path.isdir('/proc/self/task') else None; "
    "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), "
    "None if tasks is None else len(tasks)]))"
)


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

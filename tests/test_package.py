"""The package namespace: every public name and submodule resolves on demand."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tunneltime
from tunneltime.experiments import build_config

SRC = Path(__file__).resolve().parents[1] / "src"

# the submodules that resolve on the package after a bare `import tunneltime`
SUBMODULES = ("peakfind", "phasetime", "quadrature", "spectrum", "transmission", "units", "wavepacket")

# run in a fresh interpreter after nothing but `import tunneltime`; prints
# one JSON object of findings
PROBE = (
    "import importlib, json, sys\n"
    "import tunneltime\n"
    "found = {'numpy_after_import': 'numpy' in sys.modules}\n"
    "found['home_mismatch'] = [\n"
    "    name for name in tunneltime.__all__\n"
    "    if getattr(tunneltime, name) is not getattr(\n"
    "        sys.modules[getattr(tunneltime, name).__module__], name)]\n"
    "star = {}\n"
    "exec('from tunneltime import *', star)\n"
    "found['star_missing'] = sorted(set(tunneltime.__all__) - set(star))\n"
    "found['star_mismatch'] = [n for n in tunneltime.__all__ if star.get(n) is not getattr(tunneltime, n)]\n"
    "found['old_paths'] = [\n"
    "    importlib.import_module('tunneltime.' + mod).__dict__[name] is getattr(tunneltime, name)\n"
    "    for mod, name in (('spectrum', 'Spectrum'), ('quadrature', 'QuadratureSettings'),\n"
    "                      ('peakfind', 'PeakSearchConfig'))]\n"
    "print(json.dumps(found))\n"
)


def _fresh(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


@pytest.mark.parametrize("name", SUBMODULES)
def test_bare_import_resolves_each_submodule(name):
    # one interpreter per name: resolving any public name or submodule
    # imports others along the way
    assert _fresh(f"import tunneltime; print(tunneltime.{name}.__name__)").strip() == f"tunneltime.{name}"


def test_bare_import_resolves_every_public_name():
    found = json.loads(_fresh(PROBE))
    assert found == {
        "numpy_after_import": False,
        "home_mismatch": [],
        "star_missing": [],
        "star_mismatch": [],
        "old_paths": [True, True, True],
    }


def test_dir_lists_public_names_and_submodules():
    assert set(tunneltime.__all__) | set(SUBMODULES) <= set(dir(tunneltime))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tunneltime.no_such_name  # noqa: B018
    assert not hasattr(tunneltime, "cli_main")
    with pytest.raises(ImportError):
        exec("from tunneltime import no_such_name", {})


def test_config_types_pickle_under_their_home_module():
    config = build_config("fig2", {"kappa0": "0.4", "tau_max": "30", "rel_tol": "1e-9"}, {})
    for value in (config.spectrum, config.quadrature, config.peak):
        assert type(value).__module__ == "tunneltime.units"
    assert pickle.loads(pickle.dumps(config)) == config

"""The package namespace: each public name has one import path, its home
submodule, and a bare `import tunneltime` loads none of them."""

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

SUBMODULES = ("peakfind", "phasetime", "quadrature", "spectrum", "transmission", "units", "wavepacket")

# run in a fresh interpreter; prints one JSON object of findings
PROBE = (
    "import importlib, json, sys\n"
    "import tunneltime\n"
    "found = {'numpy_after_import': 'numpy' in sys.modules,\n"
    "         'submodules_bound': sorted(n for n in sys.modules if n.startswith('tunneltime.'))}\n"
    "found['old_paths'] = [\n"
    "    importlib.import_module('tunneltime.' + mod).__dict__[name]\n"
    "    is importlib.import_module('tunneltime.units').__dict__[name]\n"
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
    # the from-import loads the bare package, then the submodule through the
    # import system; one interpreter per name, as a submodule imports others
    code = f"from tunneltime import {name}; print({name}.__name__)"
    assert _fresh(code).strip() == f"tunneltime.{name}"


def test_bare_import_loads_no_submodule_and_old_class_paths_hold():
    assert json.loads(_fresh(PROBE)) == {
        "numpy_after_import": False,
        "submodules_bound": [],
        "old_paths": [True, True, True],
    }


def test_public_names_are_not_on_the_package():
    with pytest.raises(AttributeError, match="Spectrum"):
        tunneltime.Spectrum  # noqa: B018
    with pytest.raises(ImportError, match="Spectrum"):
        exec("from tunneltime import Spectrum", {})


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

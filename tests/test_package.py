"""The package namespace: each public name has one import path, its home
submodule, and a bare `import tunneltime` loads none of them; every name
the README and the docstrings cite by that path exists.  The numerical
ground truth imports nothing from `phasetime`, the analytic formulas it
is tested against."""

import ast
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tunneltime
from tunneltime.experiments import build_config

SRC = Path(__file__).resolve().parents[1] / "src"

README = SRC.parent / "README.md"

# `module.name` or `module.name.attr`, optionally after `tunneltime.`, closed
# by the backtick or by a call's parenthesis, as in `module.name(args)`
NAMED_REFERENCE = re.compile(r"`(?:tunneltime\.)?(\w+)((?:\.\w+){1,2})[`(]")

SUBMODULES = ("peakfind", "phasetime", "quadrature", "spectrum", "transmission", "units", "wavepacket")

# the modules the numerical phase time is computed with
GROUND_TRUTH = ("quadrature", "spectrum", "transmission", "wavepacket")

# analytic formula or engine piece: (module it left, its one home)
MOVED = {
    "amplitude_opaque": ("transmission", "phasetime"),
    "stationary_time_full": ("transmission", "phasetime"),
    "mean_k_opaque": ("spectrum", "phasetime"),
    "support_cut": ("spectrum", "wavepacket"),
}

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


def _docstrings():
    for path in sorted((SRC / "tunneltime").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                yield ast.get_docstring(node) or ""


def _resolves(module: str, names: list[str]) -> bool:
    """Whether tunneltime.<module>.<names...> exists; a last name may be a dataclass field."""
    owner = importlib.import_module(f"tunneltime.{module}")
    *path, last = names
    for name in path:
        owner = getattr(owner, name, None)
    return hasattr(owner, last) or last in getattr(owner, "__dataclass_fields__", ())


@pytest.mark.parametrize("source", ["README.md", "docstrings"])
def test_named_references_resolve(source):
    modules = {path.stem for path in (SRC / "tunneltime").glob("*.py")} - {"__init__"}
    texts = [README.read_text(encoding="utf-8")] if source == "README.md" else list(_docstrings())
    found = [
        (match.group(1), match.group(2).split(".")[1:])
        for text in texts
        for match in NAMED_REFERENCE.finditer(text)
        if match.group(1) in modules
    ]
    assert len(found) >= 10  # the README cites 21, the docstrings 16
    assert [f"{module}.{'.'.join(names)}" for module, names in found if not _resolves(module, names)] == []


def _imported_names(module: str):
    """Every dotted name an import statement of tunneltime.<module> mentions."""
    tree = ast.parse((SRC / "tunneltime" / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", GROUND_TRUTH)
def test_ground_truth_imports_nothing_from_phasetime(module):
    assert [name for name in _imported_names(module) if "phasetime" in name.split(".")] == []


@pytest.mark.parametrize("name", sorted(MOVED))
def test_moved_names_live_only_in_their_home(name):
    old, home = MOVED[name]
    assert not hasattr(importlib.import_module(f"tunneltime.{old}"), name)
    assert getattr(importlib.import_module(f"tunneltime.{home}"), name).__module__ == f"tunneltime.{home}"


def test_inlined_rules_have_no_name():
    # the automatic window is written in search_window, kappa <= 1 in spectrum.evaluate
    assert not hasattr(importlib.import_module("tunneltime.peakfind"), "default_window")
    assert not hasattr(importlib.import_module("tunneltime.units").Spectrum, "cutoff")


def _defined_names(module: str) -> set[str]:
    """The names tunneltime.<module> defines at top level: a def, a class or an assignment."""
    tree = ast.parse((SRC / "tunneltime" / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("folder", ["tests", "scripts"])
def test_names_are_imported_from_their_home(folder):
    # `from tunneltime.<m> import <name>` takes a name <m> defines, not one it imports
    found = []
    for path in sorted((SRC.parent / folder).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tunneltime."):
                module = node.module.removeprefix("tunneltime.")
                found += [(f"{path.name}:{node.lineno} {module}.{alias.name}",
                           alias.name in _defined_names(module)) for alias in node.names]
    assert found  # scripts/ imports cli.main
    assert [where for where, defined in found if not defined] == []


def test_only_the_chart_forms_a_node_from_its_angle():
    # kappa, the rise q - a and s = kappa^2 - 1 of a node come from its angle
    # t in one place, so no other code calls a sine or a cosine
    calls, chart = [], None
    for path in sorted((SRC / "tunneltime").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == ("wavepacket", "_chart"):
                chart = range(node.lineno, node.end_lineno + 1)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("sin", "cos"):
                calls.append((path.stem, node.lineno))
    assert calls and chart
    assert [(module, line) for module, line in calls if module != "wavepacket" or line not in chart] == []

"""The helper scripts under scripts/ that are not run elsewhere."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


def root(x):
    """Function docstring."""
    # a comment line

    return math.sqrt(
        x
    )


class Holder:
    """Class docstring."""

    label = "a string that is code"
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, def, the three lines of the return, class, label
    assert code_lines.code_lines(SAMPLE) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    7 pkg/a.py",
        "    0 pkg/b.py",
        "    7 total",
    ]

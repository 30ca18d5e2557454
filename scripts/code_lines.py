"""Count the code lines of the package, module by module.

A code line is a physical line that holds a token other than a comment,
a docstring or layout (line breaks and indentation).  A docstring is a
statement made of string literals alone.  A token spanning several lines,
such as a multi-line string passed as an argument, counts on every line
it spans.

    python scripts/code_lines.py [DIR]

prints one `<count> <module>` line per .py file under DIR (default: the
repo's src/) and a `<count> total` line.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(source: str) -> int:
    """Number of code lines in one module's source."""
    rows: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    rows.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(rows)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.relative_to(root)}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

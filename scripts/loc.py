#!/usr/bin/env python3
"""Count the lines of a source tree: all of them, and the lines of code.

Usage: python scripts/loc.py [DIR]

DIR defaults to the src/ of the tree the script sits in. Every .py file
under DIR is read. A line of code holds a Python token other than a
comment, a line break or an indentation change, and is not part of a
docstring: a statement that is a string alone. The counts are printed as
one line, `<total> lines, <code> code lines`.
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(text: str) -> set[int]:
    """The numbers of the lines of code in text (module docstring)."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type == tokenize.NEWLINE:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return lines


def count(root: Path) -> tuple[int, int]:
    """(total lines, code lines) over every .py file under root."""
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        total += len(text.splitlines())
        code += len(code_lines(text))
    return total, code


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    total, code = count(args.dir)
    print(f"{total} lines, {code} code lines")


if __name__ == "__main__":
    main()

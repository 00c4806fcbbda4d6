#!/usr/bin/env python3
"""Print the physical and code lines of each ``src/opbandit/*.py`` module
and their total, one ``<module> <physical> <code>`` line each.

A code line holds at least one token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body);
blank lines, comment lines and docstring lines do not count.  The script
reads the ``src/`` next to it, so each checkout counts its own sources:

    python scripts/line_counts.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opbandit"

#: tokens that make no line code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """The physical and code lines of one module's source ``text``."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1) if line not in docstrings)
    return len(text.splitlines()), len(code)


def main() -> int:
    total_physical = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        print(f"{path.stem} {physical} {code}")
        total_physical += physical
        total_code += code
    print(f"total {total_physical} {total_code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

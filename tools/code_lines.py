"""Count the code lines of each module under ``src/pdesym``.

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body);
blank lines do not count. This is the count ``ROADMAP.md`` tracks.

Usage: ``python tools/code_lines.py [package directory]``
"""
from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "pdesym"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(source: str) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(argv: list[str]) -> None:
    package = pathlib.Path(argv[0]) if argv else _PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1:])

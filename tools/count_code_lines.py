"""Count the code lines of Python sources.

A code line is a physical line that holds at least one code token: a
token other than a comment, a newline, an indent or dedent, or a string
that is a docstring (the first statement of a module, class or function).
Blank lines, comment lines and docstring lines do not count; every line
of a statement continued over several lines that holds a token does.

Usage: python tools/count_code_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory, searched recursively for
``.py`` files.  Prints the count of each file, once however many PATHs
reach it, and, for more than one file, their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in ``source`` (see the module docstring)."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/count_code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    # Keyed by the resolved path, so a file that several PATHs reach counts once.
    found = {f.resolve(): f for arg in argv for f in
             ([Path(arg)] if Path(arg).is_file() else Path(arg).rglob("*.py"))}
    files = sorted(found.values())
    total = 0
    for path in files:
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    if len(files) > 1:
        print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of Python modules.

A code line is a physical line that carries at least one token other than
a comment, and that is not part of a module, class or function docstring.
Blank lines, comment-only lines and docstrings are left out; every line of
a statement that spans several lines counts.

    python tools/code_lines.py src/mdhtest

prints one ``<count>  <path>`` line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines in ``source``, by the rule in the module docstring."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv=None) -> int:
    roots = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    files = []
    for root in roots:
        files.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    total = 0
    for path in files:
        n = count_code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

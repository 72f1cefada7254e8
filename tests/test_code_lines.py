import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function
    docstring."""
    text = """a string that is
    not a docstring"""
    return (a +
            b)
'''


def test_counts_code_and_skips_docstrings_comments_blanks():
    # import, class, x, def f (2 lines), text (2 lines), return (2 lines)
    assert code_lines.count_code_lines(SOURCE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {tmp_path / 'a.py'}",
        f"     1  {tmp_path / 'b.py'}",
        "    10  total",
    ]

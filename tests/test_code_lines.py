"""`tools/code_lines.py`, the rule behind the tracked code-line count: a
line counts when it is not blank and holds a token outside comments and
docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment leaves its line a code line

# a comment line


def f(x):
    """A function docstring."""
    total = (x
             + 1)
    text = """a string that is
not a docstring"""
    return total, text, os


class C:
    """A class docstring."""

    y = 1
'''


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, def, the two lines of each multi-line expression, return,
    # class and y: nine lines.
    assert code_lines.code_lines(FIXTURE) == 9


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    code_lines.main([str(path), str(path)])
    assert capsys.readouterr().out.splitlines() == [
        f"     9  {path}", f"     9  {path}", "    18  total"]

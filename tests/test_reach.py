"""`tools/reach.py`'s executable-line rule: a line is executable when the
`co_lines` of some code object compiled from the source names it."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "reach.py"
_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''"""A module docstring."""
import os

# a comment line


def f(x):
    """A function docstring."""
    if x:
        raise ValueError(
            "a message over a continuation line")

    def g():
        return os
    return g


class C:
    y = 1
'''


def test_executable_lines_are_the_lines_of_every_code_object():
    # The module body (its docstring's store, the import, the def and the
    # class), the body of f (its if, the raise and its message, the def of
    # g and the return), g's return and the class body, at every depth of
    # nesting; comments, blank lines and f's docstring are not executable.
    assert reach.executable_lines(FIXTURE) == {
        1, 2, 7, 9, 10, 11, 13, 14, 15, 18, 19}

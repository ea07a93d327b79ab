"""Count the code lines of Python modules: non-blank lines outside comments
and docstrings.

Docstrings are the leading string statements of modules, classes and
functions, found with `ast`; comments are found with `tokenize`.  A line
counts when it is not blank and holds a token that is neither a comment nor
part of a docstring.  Standard library only.

    python tools/code_lines.py            # every module under src/, and the total
    python tools/code_lines.py a.py b.py  # the named files
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(
                                 node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    docs = _docstring_lines(ast.parse(source))
    blank = {k for k, line in enumerate(source.splitlines(), 1)
             if not line.strip()}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs - blank)


def main(argv):
    root = Path(__file__).resolve().parent.parent
    paths = ([Path(p) for p in argv] if argv
             else sorted((root / "src").rglob("*.py")))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])

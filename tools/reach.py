"""List the lines of the `gmtlab` package that no Tier-1 test runs.

Runs the Tier-1 suite (`tests/`) in this process under `sys.settrace`,
tracing only frames whose code lives under `src/gmtlab`.  Then it prints,
per module, every executable line (a line that the `co_lines` of some code
object compiled from the module names) that no test ran, with its source,
and the total.  Code that tests run in a child process (a fresh
``python -m gmtlab.cli``) is not traced.  The trace takes several times the
suite's own time.  Standard library and pytest only.

    python tools/reach.py
"""

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gmtlab"


def executable_lines(source, filename="<source>"):
    """The line numbers that some code object compiled from ``source`` names
    in its ``co_lines``: the lines that can run."""
    lines, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _run_traced_suite():
    """The (filename, line) pairs that the suite ran under `PACKAGE`."""
    import pytest

    prefix, ran = str(PACKAGE), set()

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    # The package, for this process and for the CLI processes tests start.
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.settrace(trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "-o", "addopts=",
                     "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return ran


def main():
    ran = _run_traced_suite()
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        missed = sorted(k for k in executable_lines(source, str(path))
                        if (str(path), k) not in ran)
        if missed:
            print(f"\n{path.relative_to(ROOT)}: {len(missed)} lines no test ran")
            for k in missed:
                print(f"{k:6d}  {text[k - 1]}")
        total += len(missed)
    print(f"\n{total} executable lines under src/gmtlab no test ran")


if __name__ == "__main__":
    main()

"""Traced stand-in for ``python -m gmtlab.cli``, used only by traced runs.

    python3 perfbench/cli_child.py SIDE_FILE -- <gmt-lab arguments>

Imports ``gmtlab.cli``, runs ``main`` with the tracer installed and writes
the import time, the time in ``main`` and the tracer summary to SIDE_FILE
(spans go to SIDE_FILE with ``.spans.jsonl`` appended).  The exit code is
``main``'s.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import gmtlab.cli  # noqa: E402

import tracer  # noqa: E402


def main():
    import_s = time.perf_counter() - _START
    side, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SIDE_FILE -- ARGS...")
    rec = tracer.Tracer()
    begin = time.perf_counter()
    with rec.installed():
        code = gmtlab.cli.main(argv)
    work_s = time.perf_counter() - begin
    with open(side + ".spans.jsonl", "w") as fh:
        rec.dump(fh, tag=" ".join(argv[:1] + argv[-4:-2]))
    with open(side, "w") as fh:
        json.dump({"import_s": import_s, "work_s": work_s,
                   "summary": rec.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Every module of the package uses each name it imports, none imports a
thread or process pool, only `measures` reaches the object path of balls and
maps (so the scans meet Lambda(a) only through the field), only `measures`
evaluates a field at a batch of points, only `measures` decides which atoms
of a distance pass a ball, window or annulus holds, and `cli` formats what
the library computes.

A stdlib-`ast` check, so it needs no linter: a deleted routine may not leave
behind an import that only it used.  ``__init__.py`` meets the same rule, so
the package root cannot re-export a name: each name has one import path, its
own module.  A fresh interpreter checks what the imports load.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gmtlab"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    """Names bound by the module's imports that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`.
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom x import a, b as c\n"
              "np.zeros(a)\n")
    assert unused_imports(source) == [(2, "os"), (4, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_keeps_an_unused_import(path):
    assert unused_imports(path.read_text()) == []


# Commands run serially, so no output can depend on a worker count; the
# numerical work holds the GIL, which defeats a thread pool anyway.
CONCURRENCY = {"concurrent", "threading", "multiprocessing"}


def concurrency_imports(source):
    """Top-level names of the concurrency modules the module imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found |= {n.split(".")[0] for n in names} & CONCURRENCY
    return sorted(found)


def test_the_check_finds_a_concurrency_import():
    source = ("import threading\nfrom concurrent.futures import Executor\n"
              "import multiprocessing.pool as mp\nfrom . import threads\n"
              "import numpy\n")
    assert concurrency_imports(source) == ["concurrent", "multiprocessing",
                                           "threading"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_thread_or_process_pool(path):
    assert concurrency_imports(path.read_text()) == []


# The object path of balls and maps lives in `measures` alone.  So Lambda(a)
# reaches the scans only through the field, whose check is the only one it
# meets, and deleting the path touches only `measures` and the tests.
BYPASSES = {"Ball", "AffineMap", "ellipse_ball", "lambda_rescale",
            "mass_in", "pushforward"}


def bypass_names(source):
    """The names of `BYPASSES` the module imports or reads as attributes."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return sorted(found & BYPASSES)


def test_the_check_finds_a_bypass_of_the_field():
    source = ("from .measures import Ball, lambda_pass\n"
              "from . import measures\nmeasures.pushforward(mu, m)\n"
              "total = measures.mass_in(mu, ball)\n")
    assert bypass_names(source) == ["Ball", "mass_in", "pushforward"]
    assert bypass_names("from .measures import DiscreteMeasure, within\n"
                        "nu = DiscreteMeasure(mu.points * inv, w)\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "measures.py"],
                         ids=lambda p: p.name)
def test_only_measures_reaches_the_object_path(path):
    assert bypass_names(path.read_text()) == []


# Ball means of the field come from `measures.ball_means` alone, so one
# quadrature (with its constant-field mean) serves omega, tau and the frozen
# drift.
def matrices_calls(source):
    """Line numbers of the calls to an attribute named `matrices`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "matrices"]


def test_the_check_finds_a_field_evaluation():
    source = ("mats = field.matrices(nodes)\nfield.matrix(a)\n"
              "f = field.matrices\nx = self.matrices(p[None, :])[0]\n")
    assert matrices_calls(source) == [1, 4]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "measures.py"],
                         ids=lambda p: p.name)
def test_only_measures_evaluates_the_field_at_a_batch(path):
    assert matrices_calls(path.read_text()) == []


# One membership rule: the tie tolerance and the refusal of a distance pass
# are read in `measures` alone (`errors` defines the refusal), so every
# ball, window and annulus edge is decided by `within` and `beyond`.
MEMBERSHIP = {"TIE_TOL", "require_finite_distances"}


def membership_names(source):
    """The names of `MEMBERSHIP` the module imports, reads or calls."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return sorted(found & MEMBERSHIP)


def test_the_check_finds_a_membership_rule():
    source = ("from .measures import TIE_TOL, within\n"
              "from . import errors\n"
              "errors.require_finite_distances(dist, x)\n"
              "keep = dist <= r * (1.0 + TIE_TOL)\n")
    assert membership_names(source) == ["TIE_TOL",
                                        "require_finite_distances"]
    assert membership_names("keep = within(dist, r)\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in
                                  ("measures.py", "errors.py")],
                         ids=lambda p: p.name)
def test_only_measures_reads_the_membership_rule(path):
    assert membership_names(path.read_text()) == []


# The CLI formats; the library computes.  `cli` records no warnings and
# builds no report of its own, and its `# meta.*` lines come from the one
# rule in `report_lines`.
CLI_COMPUTES = {"warnings", "ScanReport"}


def cli_faults(source):
    """The names of `CLI_COMPUTES` the module imports, and the top-level
    definitions other than `report_lines` that hold a `# meta.` string
    literal; a bare string statement (a docstring) is not a literal here."""
    tree = ast.parse(source)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name.split(".")[0]
                      for alias in node.names} & CLI_COMPUTES
    for top in tree.body:
        bare = {id(node.value) for node in ast.walk(top)
                if isinstance(node, ast.Expr)}
        if any(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and "# meta." in node.value and id(node) not in bare
               for node in ast.walk(top)):
            found.add(getattr(top, "name", "<module>"))
    return sorted(found - {"report_lines"})


def test_the_check_finds_a_command_that_computes():
    source = ('"""Prints `# meta.key=value` lines."""\n'
              "import warnings\nfrom .reports import ScanReport\n"
              "def report_lines(report, keys):\n"
              "    return [f'# meta.{k}={report.meta[k]}' for k in keys]\n"
              "def cmd_blowup(cfg, out, seed):\n"
              "    'Writes # meta.flatness_verdict by hand.'\n"
              "    lines = [f'# meta.flatness_verdict={verdict}']\n")
    assert cli_faults(source) == ["ScanReport", "cmd_blowup", "warnings"]
    assert cli_faults("from .reports import ScanReport as Report\n") \
        == ["ScanReport"]
    assert cli_faults("lines = ['# meta.x=1']\n") == ["<module>"]
    assert cli_faults("def report_lines(report, keys):\n"
                      "    return [f'# meta.{k}=' for k in keys]\n") == []


def test_the_cli_only_formats():
    assert cli_faults((PACKAGE / "cli.py").read_text()) == []


# `import gmtlab` loads no submodule, and `import gmtlab.cli` loads the
# modules the commands run and no other.  (That neither loads scipy or the
# dense simplex, which only the tests use, is checked in `test_cones` and
# `test_lipmetric`.)
CLI_MODULES = ["gmtlab", *(f"gmtlab.{name}" for name in (
    "blowup cli cones corpus errors kernels lipmetric measures moduli "
    "reports transport").split())]


def test_a_fresh_import_loads_only_what_the_commands_run():
    code = ("import json, sys\n"
            "def loaded(top):\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if m.split('.')[0] == top)\n"
            "import gmtlab\n"
            "root = loaded('gmtlab')\n"
            "import gmtlab.cli\n"
            "print(json.dumps([root, loaded('gmtlab')]))\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    root, cli = json.loads(out.stdout)
    assert root == ["gmtlab"]
    assert cli == CLI_MODULES

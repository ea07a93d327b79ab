"""The four benchmark workloads: inputs from a seed, operations, output checks.

Each workload has
  ``inputs(seed)``   -- generated once per process; timed as set-up;
  ``prepare(inp)``   -- untimed work the checks need (the CLI reference);
  ``ops(inp, trace_dir)`` -- the fixed batch, as a list of ``Op``; built
                        inside the timed region, so per-batch objects such as
                        coefficient fields start with empty caches.
An ``Op`` returns its output from ``run()``; ``check(output)`` returns None
when the output is right, else a short description of what is wrong.
``tally(output)``, when set, names an outcome that is counted and printed
but is not a wrong output (see README.md, "Label misses").

Library calls go through module attributes (``gmtlab.cones.d_cone_flat``)
at call time, so the traced run sees them.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

import gmtlab
import gmtlab.blowup
import gmtlab.cli
import gmtlab.cones
import gmtlab.corpus
import gmtlab.kernels
import gmtlab.lipmetric
import gmtlab.moduli
from gmtlab.measures import DiscreteMeasure, EllipseField

HERE = Path(__file__).resolve().parent
OUT_ROOT = Path(".perfbench_out")


class Op(NamedTuple):
    label: str
    run: Callable
    check: Callable
    tally: Optional[Callable] = None


class Workload:
    """Base of the four workloads; see the module docstring."""

    name = ""

    def prepare(self, inp):
        """Untimed work the checks need before the first batch; none here."""


# ---------------------------------------------------------------------------
# flatness: the cone search on the heavy line blowup and on the cross
# ---------------------------------------------------------------------------

class Flatness(Workload):
    """d_cone_flat at s = 1 on the ROADMAP heavy line blowup and the cross.

    The inputs are fixed by the ROADMAP baseline (line h = 0.001, r0 = 0.4,
    rho = 0.5, count = 3; cross h = 0.001); the seed only orders the four
    calls.
    """

    name = "flatness"
    CROSS_BASELINE = 0.414
    CROSS_TOL = 0.02

    def inputs(self, seed):
        line = gmtlab.corpus.gen_line(0.001)
        ladder = gmtlab.blowup.ScaleLadder(r0=0.4, rho=0.5, count=3,
                                           spacing=0.001)
        seq = gmtlab.blowup.blowup_sequence(
            line.measure, np.zeros(2), EllipseField.identity(2), ladder,
            mode="power", m=1)
        cases = [(f"line r={r:g}", nu, "line")
                 for r, nu in zip(seq.radii, seq.measures)]
        cases.append(("cross", gmtlab.corpus.gen_cross(0.001).measure, "cross"))
        order = np.random.default_rng(seed).permutation(len(cases))
        return [cases[i] for i in order]

    def ops(self, inp, trace_dir=None):
        return [Op(label, _cone_call(nu),
                   self._check_line if kind == "line" else self._check_cross)
                for label, nu, kind in inp]

    @staticmethod
    def _check_line(value):
        limit = 2.0 * gmtlab.cones.cone_floor(1.0, 1)
        if not 0.0 <= value < limit:
            return f"line rung flatness {value!r} not in [0, {limit})"
        return None

    def _check_cross(self, value):
        if not abs(value - self.CROSS_BASELINE) <= self.CROSS_TOL:
            return f"cross flatness {value!r} not within 0.414 +- 0.02"
        return None


def _cone_call(nu):
    return lambda: gmtlab.cones.d_cone_flat(nu, 1, 1.0)


# ---------------------------------------------------------------------------
# lp-small: many independent small mixed-sign F_r programs
# ---------------------------------------------------------------------------

class LpSmall(Workload):
    """Seeded cloud pairs of 4-40 atoms; three in five are adversarial.

    The batch is stratified: every size in SIZES meets every kind in KINDS
    once, radii cycle through RADII, and one case per size (rotating through
    the kinds) also runs ``f_ball_potential``, the dense-simplex route.
    """

    name = "lp-small"
    SIZES = tuple(range(4, 41, 4))
    KINDS = ("plain", "plain", "duplicate", "sphere", "cancel")
    RADII = (0.5, 1.0, 2.0)
    SERIES_TERMS = 4
    TOL = 1e-7

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        cases = []
        for si, size in enumerate(self.SIZES):
            for ki, kind in enumerate(self.KINDS):
                idx = len(cases)
                r = self.RADII[idx % len(self.RADII)]
                mu, nu = _lp_pair(rng, kind, size, r)
                rho = _measure(*_cloud(rng, size, r))
                cases.append((f"{kind} n={size} r={r:g}", mu, nu, rho, r,
                              ki == si % len(self.KINDS)))
        return cases

    def ops(self, inp, trace_dir=None):
        return [Op(label, _lp_call(mu, nu, rho, r, pot, self.SERIES_TERMS),
                   self._check_case(r))
                for label, mu, nu, rho, r, pot in inp]

    def _check_case(self, r):
        tol = self.TOL

        def check(out):
            ab, ba, ac, bc, resid, series, pot = out
            if not abs(ab - ba) <= tol:
                return f"symmetry |{ab!r} - {ba!r}| > {tol}"
            if not ac - ab - bc <= tol:
                return f"triangle {ac!r} > {ab!r} + {bc!r} + {tol}"
            if not resid <= tol:
                return f"scaling residual {resid!r} > {tol}"
            # F is nondecreasing in the radius, so the series carries at
            # least its term at l = ceil(r).
            ell = math.ceil(r)
            low = 2.0 ** (-ell) * min(1.0, ab)
            if series.tail_bound != 2.0 ** (-self.SERIES_TERMS):
                return f"series tail bound {series.tail_bound!r}"
            if not low - 1e-9 <= series.value <= 1.0 - series.tail_bound + 1e-12:
                return f"series value {series.value!r} outside [{low!r}, 1)"
            if pot is not None and not abs(pot[0] - ab) <= tol:
                return f"potential value {pot[0]!r} != f_ball {ab!r}"
            return None

        return check


def _measure(points, weights):
    return DiscreteMeasure(points, weights, dim=2)


def _cloud(rng, n, r):
    return rng.normal(size=(n, 2)) * (0.5 * r), rng.uniform(0.1, 1.0, n)


def _lp_pair(rng, kind, n, r):
    """mu, nu for one case; the kinds other than plain are adversarial."""
    p_mu, w_mu = _cloud(rng, n, r)
    p_nu, w_nu = _cloud(rng, n, r)
    if kind == "duplicate":
        # Half of nu's atoms sit on mu's; a quarter also carry mu's weight,
        # so they cancel exactly when the program merges duplicates.
        k = n // 2
        p_nu[:k] = p_mu[:k]
        w_nu[:k // 2] = w_mu[:k // 2]
    elif kind == "sphere":
        # A third of each measure sits on |x| = r: axis points exactly, the
        # rest at seeded angles (on the sphere up to rounding).
        k = max(2, n // 3)
        axes = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) * r
        for pts in (p_mu, p_nu):
            for i in range(k):
                if i % 2 == 0:
                    pts[i] = axes[rng.integers(4)]
                else:
                    t = rng.uniform(0.0, 2.0 * np.pi)
                    pts[i] = r * np.array([np.cos(t), np.sin(t)])
    elif kind == "cancel":
        # nu repeats mu with weights off by one part in 1e9 (either sign);
        # half its atoms are also moved by about 1e-7.
        p_nu = p_mu.copy()
        half = n // 2
        p_nu[:half] += rng.normal(size=(half, 2)) * 1e-7
        w_nu = w_mu * (1.0 + 1e-9 * rng.choice([-1.0, 1.0], n))
    return _measure(p_mu, w_mu), _measure(p_nu, w_nu)


def _lp_call(mu, nu, rho, r, potential, terms):
    def run():
        lm = gmtlab.lipmetric
        ab = lm.f_ball(mu, nu, r)
        ba = lm.f_ball(nu, mu, r)
        ac = lm.f_ball(mu, rho, r)
        bc = lm.f_ball(nu, rho, r)
        resid = lm.f_scaling_residual(mu, nu, r)
        series = lm.f_series(mu, nu, terms)
        pot = None
        if potential:
            value, _, f = lm.f_ball_potential(mu, nu, r)
            pot = (value, f)
        return ab, ba, ac, bc, resid, series, pot

    return run


# ---------------------------------------------------------------------------
# scans: LP-free diagnostics at a few hundred distinct base points
# ---------------------------------------------------------------------------

class Scans(Workload):
    """Density, principal-value and sandwich scans plus field diagnostics.

    Per field (rotating and checkerboard) the batch scans seeded atoms of a
    line and a sine graph (|x| <= 1 on samples of half-length 2, so the
    eccentricity-2 windows stay inside), circle atoms, Cantor construction
    corners (levels 1-3) and the half-line endpoint; it evaluates the frozen
    discrepancy at every base point and the oscillation moduli on seeded
    probe sets.  Fields are built per batch, so their caches start empty.
    """

    name = "scans"
    H = 0.001
    FIELDS = (
        ("rotating", {"kind": "rotating", "eccentricity": 2.0, "rate": 1.0}),
        ("checkerboard", {"kind": "checkerboard", "m1": np.eye(2),
                          "m2": 2.0 * np.eye(2), "cell": 0.5}),
    )
    COUNTS = {"line": 32, "graph": 32, "circle": 24, "cantor": 24}
    PV_LADDER = (0.08, 0.04, 0.02, 0.01, 0.005)
    PV_OUTER = 0.4
    HALF_LADDER = (0.5, 0.25, 0.125, 0.0625, 0.03125)
    CANTOR_PV_LADDER = tuple(0.4 / 2 ** j for j in range(9))
    SANDWICH_R = (0.5, 1.0, 2.0)
    FROZEN_R = (0.1, 0.05)
    OMEGA_RADII = (0.8, 0.4, 0.2, 0.1)
    OMEGA_SETS = 2
    GAP_THRESHOLD = 0.05

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        corpus = gmtlab.corpus
        line = corpus.gen_line(self.H, extent=2.0)
        graph = corpus.gen_sine_graph(self.H, extent=2.0)
        circle = corpus.gen_circle(self.H)
        half = corpus.gen_half_line(self.H, extent=1.5)
        cantor = corpus.gen_four_corner_cantor(7)
        corners = np.vstack([corpus.cantor_construction_corners(level)
                             for level in (1, 2, 3)])
        ladder = gmtlab.blowup.ScaleLadder(r0=0.25, rho=0.63096, count=6,
                                           spacing=self.H)
        cantor_ladder = gmtlab.blowup.ScaleLadder(
            r0=0.25, rho=0.5, count=7, spacing=cantor.spacing)

        def interior(entry):
            pts = entry.measure.points
            return pts[np.abs(pts[:, 0]) <= 1.0]

        pools = {"line": interior(line), "graph": interior(graph),
                 "circle": circle.measure.points, "cantor": corners}
        per_field = []
        for field_name, params in self.FIELDS:
            points = {kind: pools[kind][rng.choice(len(pools[kind]), count,
                                                   replace=False)]
                      for kind, count in self.COUNTS.items()}
            probes = [gmtlab.moduli.seeded_probes(
                2, 16, seed=int(rng.integers(2 ** 31)))
                for _ in range(self.OMEGA_SETS)]
            per_field.append((field_name, params, points, probes))
        return {"line": line, "graph": graph, "circle": circle, "half": half,
                "cantor": cantor, "ladder": ladder,
                "cantor_ladder": cantor_ladder, "fields": per_field}

    def ops(self, inp, trace_dir=None):
        ops = []
        for field_name, params, points, probes in inp["fields"]:
            field = gmtlab.corpus.gen_lambda_field(**params)
            ops.extend(self._field_ops(inp, field_name, field, points, probes))
        return ops

    def _field_ops(self, inp, fname, field, points, probes):
        spec = gmtlab.kernels.riesz_kernel(field, 1)
        ops = []
        isotropic = fname == "checkerboard"
        for kind in ("line", "graph", "circle"):
            mu = inp[kind].measure
            for a in points[kind]:
                tag = f"{fname} {kind} {a[0]:.4f},{a[1]:.4f}"
                if kind != "circle":
                    # The graph reads "converged" at every probed atom under
                    # the isotropic field only; see README, "Label misses".
                    labelled = kind == "line" or isotropic
                    ops.append(self._pv(
                        f"pv {tag}", spec, mu, a, self.PV_LADDER, self.H,
                        self.PV_OUTER, "converged" if labelled else None,
                        None if labelled else f"pv {fname} {kind}"))
                ops.append(self._density(
                    f"density {tag}", mu, a, field, inp["ladder"],
                    "small-gap" if kind == "line" else None, None))
                ops.append(self._sandwich(f"sandwich {tag}", mu, a, field,
                                          inp["ladder"]))
                ops.append(self._frozen(f"frozen {tag}", field, fname, a))
        cantor = inp["cantor"]
        for a in points["cantor"]:
            tag = f"{fname} cantor {a[0]:.4f},{a[1]:.4f}"
            ops.append(self._pv(f"pv {tag}", spec, cantor.measure, a,
                                self.CANTOR_PV_LADDER, cantor.spacing, None,
                                "oscillating", None))
            # Large-gap is checked under the isotropic field; under the
            # rotating field it is tallied (README, "Label misses").
            ops.append(self._density(
                f"density {tag}", cantor.measure, a, field,
                inp["cantor_ladder"], "large-gap" if isotropic else None,
                None if isotropic else f"density {fname} cantor"))
            ops.append(self._frozen(f"frozen {tag}", field, fname, a))
        ops.append(self._pv(f"pv {fname} half-line endpoint", spec,
                            inp["half"].measure, np.zeros(2),
                            self.HALF_LADDER, self.H, 1.0, "diverging", None))
        for k, probe_set in enumerate(probes):
            ops.append(Op(f"omega {fname} {k}",
                          _omega_call(field, probe_set, self.OMEGA_RADII),
                          _check_omega))
        ops.append(Op(f"tau {fname}", _tau_call(field, probes[0], 0.1),
                      _check_tau))
        return ops

    @staticmethod
    def _pv(label, spec, mu, a, ladder, spacing, outer, expect, tally_key):
        def run():
            return gmtlab.kernels.pv_convergence_scan(
                spec, mu, a, ladder, spacing=spacing, R=outer)

        def check(rep):
            if rep.verdict not in ("converged", "diverging", "oscillating"):
                return f"unknown pv verdict {rep.verdict!r}"
            if expect is not None and rep.verdict != expect:
                return f"pv verdict {rep.verdict} (label says {expect})"
            return None

        tally = None if tally_key is None else (
            lambda rep: f"{tally_key}: {rep.verdict}")
        return Op(label, run, check, tally)

    def _density(self, label, mu, a, field, ladder, expect, tally_key):
        threshold = self.GAP_THRESHOLD

        def run():
            rep = gmtlab.blowup.density_scan(mu, a, field, 1, ladder)
            return rep, gmtlab.blowup.density_gap_verdict(rep, threshold)

        def check(out):
            rep, verdict = out
            dens = rep.columns["density"]
            running = rep.columns["gap_ratio_so_far"]
            if not all(d > 0.0 and math.isfinite(d) for d in dens):
                return "density not positive at a support point"
            if any(b < a_ for a_, b in zip(running, running[1:])) \
                    or running[0] != 1.0:
                return "running gap ratio not nondecreasing from 1"
            if expect is not None and verdict != expect:
                return f"density gap {verdict} (label says {expect})"
            return None

        tally = None if tally_key is None else (
            lambda out: f"{tally_key}: {out[1]}")
        return Op(label, run, check, tally)

    def _sandwich(self, label, mu, a, field, ladder):
        def run():
            return gmtlab.blowup.sandwich_check(mu, a, field, 1, ladder,
                                                list(self.SANDWICH_R))

        def check(rep):
            viol = rep.columns["violation"]
            worst, slack = rep.meta["worst_violation"], rep.meta["slack"]
            if min(viol) < 0.0 or worst != max(viol):
                return "sandwich violations inconsistent"
            if rep.verdict != ("ok" if worst <= slack else "inconclusive"):
                return f"sandwich verdict {rep.verdict} vs worst {worst!r}"
            return None

        return Op(label, run, check)

    def _frozen(self, label, field, fname, a):
        radii = self.FROZEN_R

        def run():
            return [gmtlab.kernels.frozen_discrepancy(field, a, r)
                    for r in radii]

        def check(vals):
            if not all(v >= 0.0 and math.isfinite(v) for v in vals):
                return f"frozen discrepancy {vals!r} not finite and >= 0"
            if fname == "rotating" and not vals[1] < vals[0]:
                # The rotating field is smooth: the drift shrinks with r.
                return f"frozen discrepancy not decreasing: {vals!r}"
            if fname == "checkerboard":
                cell = 0.5
                edge = np.abs(a / cell - np.round(a / cell)).min() * cell
                if edge > 1.5 * radii[0] + 1e-9 and any(vals):
                    return f"frozen discrepancy {vals!r} inside one cell"
            return None

        return Op(label, run, check)


def _omega_call(field, probes, radii):
    return lambda: gmtlab.moduli.omega_profile(field, probes, list(radii))


def _check_omega(prof):
    if not (np.all(np.isfinite(prof.omega)) and np.all(prof.omega >= 0.0)
            and np.all(prof.errors >= 0.0) and prof.kappa_hat >= 1.0):
        return "oscillation profile not finite, nonnegative, kappa >= 1"
    return None


def _tau_call(field, probes, r):
    return lambda: gmtlab.moduli.tau_moduli(field, probes, r)


def _check_tau(tm):
    # In the plane both moduli use the d = 1 large-scale integral.
    if not (math.isfinite(tm.tau) and tm.tau >= 0.0 and tm.tau == tm.tau_hat):
        return f"tau moduli {tm!r} not finite, >= 0 and equal in the plane"
    return None


# ---------------------------------------------------------------------------
# cli: fresh processes on the six acceptance configs
# ---------------------------------------------------------------------------

CLI_CONFIGS = {
    "density": """
[measure]
kind = line
h = 0.001
extent = 1.0
[field]
kind = identity
[ladder]
r0 = 0.5
rho = 0.63096
count = 6
[density]
center = 0,0
m = 1
""",
    "pv": """
[measure]
kind = halfline
h = 0.001
extent = 1.5
[field]
kind = identity
[pv]
center = 0,0
eps0 = 0.5
rungs = 5
R = 1.0
""",
    "metric": """
[measure]
kind = line
h = 0.01
[metric]
mode = fr
r = 1.0
""",
    "dmo": """
[dmo]
n = 2
radii = 0.8,0.4,0.2,0.1
probes = 16
[field]
kind = rotating
eccentricity = 2.0
rate = 1.0
""",
    "blowup": """
[measure]
kind = line
h = 0.01
[field]
kind = identity
[ladder]
r0 = 0.5
rho = 0.5
count = 2
[blowup]
center = 0,0
m = 1
""",
    "generate": """
[measure]
kind = cantor
depth = 6
""",
}


def _data_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[1:]  # drop the CSV header


def _cli_content(cmd, text):
    """What each command's output must say, independent of its layout."""
    if cmd == "density":
        ok = "# verdict=small-gap" in text.splitlines()
    elif cmd == "pv":
        rows = _data_rows(text)
        ok = len(rows) == 5 and all(r.split(",")[-1] == "diverging"
                                    for r in rows)
    elif cmd == "metric":
        rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        ok = len(rows) == 1 and abs(float(rows[0]) - 1.0) <= 1e-9
    elif cmd == "dmo":
        ok = len(_data_rows(text)) == 4
    elif cmd == "blowup":
        ok = "# verdict=ok" in text.splitlines() and len(_data_rows(text)) == 2
    else:
        ok = len(_data_rows(text)) == 4 ** 6
    return None if ok else f"{cmd} output content unexpected"


class Cli(Workload):
    """Fresh ``python -m gmtlab.cli`` processes, one at a time.

    The six acceptance configs run at ``--threads 1`` and ``blowup`` again
    at ``--threads 2``; the seed is passed as ``--seed``.  The reference is
    the same command run in-process through ``gmtlab.cli.main``.
    """

    name = "cli"
    CALLS = tuple((cmd, 1) for cmd in CLI_CONFIGS) + (("blowup", 2),)
    TIMEOUT_S = 120

    def inputs(self, seed):
        work = OUT_ROOT / f"cli-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        for cmd, text in CLI_CONFIGS.items():
            (work / f"{cmd}.cfg").write_text(text)
        return {"work": work, "seed": seed, "reference": {}}

    def prepare(self, inp):
        work = inp["work"]
        for cmd in CLI_CONFIGS:
            ref = work / f"{cmd}.ref"
            code = gmtlab.cli.main(self._argv(inp, cmd, 1, ref))
            if code != 0:
                raise RuntimeError(f"in-process reference {cmd} exited {code}")
            inp["reference"][cmd] = ref.read_bytes()

    def ops(self, inp, trace_dir=None):
        return [Op(f"{cmd} --threads {threads}",
                   self._call(inp, cmd, threads, trace_dir),
                   self._check(inp, cmd))
                for cmd, threads in self.CALLS]

    @staticmethod
    def _argv(inp, cmd, threads, out):
        return [cmd, "--config", str(inp["work"] / f"{cmd}.cfg"),
                "--out", str(out), "--threads", str(threads),
                "--seed", str(inp["seed"])]

    def _call(self, inp, cmd, threads, trace_dir):
        out = inp["work"] / f"{cmd}.t{threads}.out"

        def run():
            argv = self._argv(inp, cmd, threads, out)
            if trace_dir is None:
                launcher = ["-m", "gmtlab.cli"]
            else:
                side = Path(trace_dir) / f"{cmd}.t{threads}.json"
                launcher = [str(HERE / "cli_child.py"), str(side), "--"]
            begin = time.perf_counter()
            proc = subprocess.run([sys.executable, *launcher, *argv],
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=self.TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-200:]}")
            if trace_dir is not None:
                with open(side) as fh:
                    child = json.load(fh)
                child["wall_s"] = time.perf_counter() - begin
                inp["children"].append(child)
            return out.read_bytes()

        return run

    @staticmethod
    def _check(inp, cmd):
        def check(data):
            if data != inp["reference"][cmd]:
                return f"{cmd} output differs from the in-process reference"
            return _cli_content(cmd, data.decode())

        return check


WORKLOADS = {wl.name: wl for wl in (Flatness(), LpSmall(), Scans(), Cli())}

"""Batch front end: generate measures, run scans, emit CSV tables and verdicts.

Subcommands: density | pv | blowup | metric | dmo | generate.  Every run is
driven by a line-oriented key=value config with [section] headers; the full
canonical config is hashed and the hash embedded in a header comment of every
output, so results are traceable to their inputs.  Outputs are byte-identical
across reruns and thread counts: worker threads only distribute independent
scan steps whose results are gathered in index order.

Exit codes: 0 success, 2 config or I/O error, 3 numerical guard refusal
(resolution guard, LP size cap).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import blowup, cones, corpus, kernels, lipmetric, moduli
from .errors import ContractError, GmtLabError, GuardError
from .measures import (DiscreteMeasure, EllipseField, load_measure_csv,
                       save_measure_csv)
from .reports import ScanReport

_FLOAT_FMT = "%.17g"


class ConfigError(ContractError):
    """Malformed or incomplete run configuration."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

class RunConfig:
    """Sectioned key=value configuration; reproducibility unit of a run."""

    def __init__(self, sections):
        self.sections = sections

    @classmethod
    def parse(cls, text):
        sections = {}
        current = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = line[1:-1].strip()
                sections.setdefault(current, {})
                continue
            if "=" not in line or current is None:
                raise ConfigError(f"config line {lineno}: expected key = value "
                                  f"inside a [section], got {raw!r}")
            key, _, value = line.partition("=")
            sections[current][key.strip()] = value.strip()
        return cls(sections)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.parse(fh.read())

    def canonical(self):
        parts = []
        for name in sorted(self.sections):
            parts.append(f"[{name}]")
            for key in sorted(self.sections[name]):
                parts.append(f"{key} = {self.sections[name][key]}")
        return "\n".join(parts) + "\n"

    def sha256(self):
        return hashlib.sha256(self.canonical().encode()).hexdigest()

    def get(self, section, key, default=None, required=False):
        value = self.sections.get(section, {}).get(key)
        if value is None:
            if required:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        return value

    def get_float(self, section, key, default=None, required=False):
        value = self.get(section, key, required=required)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {value!r} is not a number")

    def get_int(self, section, key, default=None, required=False):
        value = self.get(section, key, required=required)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {value!r} is not an integer")

    def get_floats(self, section, key, default=None):
        value = self.get(section, key)
        if value is None:
            return default
        try:
            return [float(v) for v in value.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {value!r} is not a list")


# ---------------------------------------------------------------------------
# Config-driven object construction
# ---------------------------------------------------------------------------

def measure_from_config(cfg, section="measure"):
    kind = cfg.get(section, "kind", required=True)
    h = cfg.get_float(section, "h", 0.001)
    if kind == "line":
        entry = corpus.gen_line(h, cfg.get_float(section, "extent", 1.0))
    elif kind == "halfline":
        entry = corpus.gen_half_line(h, cfg.get_float(section, "extent", 1.0))
    elif kind == "cross":
        entry = corpus.gen_cross(h, cfg.get_float(section, "extent", 1.0))
    elif kind == "circle":
        entry = corpus.gen_circle(h, cfg.get_float(section, "radius", 1.0))
    elif kind == "cantor":
        entry = corpus.gen_four_corner_cantor(cfg.get_int(section, "depth", 7))
    elif kind == "graph":
        amp = cfg.get_float(section, "amplitude", 0.1)
        freq = cfg.get_float(section, "frequency", 1.0)
        entry = corpus.gen_sine_graph(h, amp, freq,
                                      cfg.get_float(section, "extent", 2.0))
    elif kind == "flat":
        entry = corpus.gen_flat(
            cfg.get_int(section, "n", 2), cfg.get_int(section, "m", 1),
            cfg.get_float(section, "c", 1.0),
            cfg.get_float(section, "radius", 1.0), h,
        )
    elif kind == "csv":
        path = cfg.get(section, "path", required=True)
        dim = cfg.get_int(section, "dim")
        measure = load_measure_csv(path, dim=dim)
        entry = corpus.CorpusEntry(name="csv", measure=measure, label="mixed",
                                   params={"h": h})
    else:
        raise ConfigError(f"unknown measure kind {kind!r}")
    return entry


def field_from_config(cfg, dim, section="field"):
    kind = cfg.get(section, "kind", "identity")
    if kind == "rotating" and dim != 2:
        raise ConfigError(f"[{section}] kind = rotating is 2-D only, "
                          f"but n = {dim}")
    if kind == "identity":
        return EllipseField.identity(dim)
    if kind == "constant":
        vals = cfg.get_floats(section, "matrix")
        if vals is None or len(vals) != dim * dim:
            raise ConfigError(f"[{section}] matrix needs {dim * dim} entries")
        return corpus.gen_lambda_field(
            "constant", matrix=np.array(vals).reshape(dim, dim))
    if kind == "rotating":
        return corpus.gen_lambda_field(
            "rotating",
            eccentricity=cfg.get_float(section, "eccentricity", 2.0),
            rate=cfg.get_float(section, "rate", 1.0))
    if kind == "checkerboard":
        scale = cfg.get_float(section, "contrast", 2.0)
        return corpus.gen_lambda_field(
            "checkerboard", m1=np.eye(dim), m2=scale * np.eye(dim),
            cell=cfg.get_float(section, "cell", 0.5))
    if kind == "radial_holder":
        return corpus.gen_lambda_field(
            "radial_holder", alpha=cfg.get_float(section, "alpha", 0.5),
            n=dim)
    raise ConfigError(f"unknown field kind {kind!r}")


def ladder_from_config(cfg, spacing, section="ladder"):
    return blowup.ScaleLadder(
        r0=cfg.get_float(section, "r0", 0.5),
        rho=cfg.get_float(section, "rho", 0.5),
        count=cfg.get_int(section, "count", 4),
        spacing=cfg.get_float(section, "spacing", spacing),
    )


def point_from_config(cfg, dim, section, key="center"):
    vals = cfg.get_floats(section, key, default=[0.0] * dim)
    if len(vals) != dim:
        raise ConfigError(f"[{section}] {key} needs {dim} coordinates")
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"[{section}] {key} has a non-finite coordinate")
    return np.asarray(vals)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _emit(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _fmt(value):
    if isinstance(value, float) and np.isnan(value):
        return ""
    if isinstance(value, float):
        # A negative zero is falsy, so it prints as "0".
        return _FLOAT_FMT % (value or 0.0)
    return str(value)


def report_lines(report, cfg):
    lines = [f"# config_sha256={cfg.sha256()}"]
    lines.append(",".join(report.names))
    for row in report.rows():
        lines.append(",".join(_fmt(v) for v in row))
    if report.verdict is not None:
        lines.append(f"# verdict={report.verdict}")
    return lines


def _parallel(fn, items, threads):
    """Order-preserving map; workers only split independent items."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_density(cfg, out, threads, seed):
    entry = measure_from_config(cfg)
    field = field_from_config(cfg, entry.measure.dim)
    ladder = ladder_from_config(cfg, entry.spacing)
    a = point_from_config(cfg, entry.measure.dim, "density")
    m = cfg.get_int("density", "m", 1)
    threshold = cfg.get_float("density", "threshold", 0.05)
    report = blowup.density_scan(entry.measure, a, field, m, ladder)
    report.verdict = blowup.density_gap_verdict(report, threshold)
    _emit(out, report_lines(report, cfg))


def cmd_pv(cfg, out, threads, seed):
    entry = measure_from_config(cfg)
    field = field_from_config(cfg, entry.measure.dim)
    m = cfg.get_int("pv", "m", 1)
    spec = kernels.riesz_kernel(field, m)
    x = point_from_config(cfg, entry.measure.dim, "pv")
    eps0 = cfg.get_float("pv", "eps0", 0.4)
    rungs = cfg.get_int("pv", "rungs", 6)
    outer = cfg.get_float("pv", "R")
    ladder = [eps0 * 0.5 ** k for k in range(rungs)]
    report = kernels.pv_convergence_scan(
        spec, entry.measure, x, ladder, spacing=entry.spacing, R=outer)
    report.columns["verdict"] = [report.verdict] * len(report)
    _emit(out, report_lines(report, cfg))


def cmd_blowup(cfg, out, threads, seed):
    entry = measure_from_config(cfg)
    field = field_from_config(cfg, entry.measure.dim)
    ladder = ladder_from_config(cfg, entry.spacing)
    a = point_from_config(cfg, entry.measure.dim, "blowup")
    m = cfg.get_int("blowup", "m", 1)
    r_list = cfg.get_floats("blowup", "sandwich_R", [0.5, 1.0, 2.0])
    seq = blowup.blowup_sequence(entry.measure, a, field, ladder,
                                 mode="power", m=m)
    sandwich = blowup.sandwich_check(entry.measure, a, field, m, ladder, r_list)
    worst_by_scale = {}
    for r, v in zip(sandwich.columns["r"], sandwich.columns["violation"]):
        worst_by_scale[r] = max(worst_by_scale.get(r, 0.0), v)

    def stage(nu):
        flat = cones.d_cone_flat(nu, m, 1.0)
        sym = blowup.blowup_symmetry_defect(nu, m=m)
        return flat, sym

    radii = [float(r) for r in seq.radii]
    staged = _parallel(stage, seq.measures, threads)
    report = ScanReport(
        columns={
            "r": radii,
            "flatness": [f for f, _ in staged],
            "symmetry_defect": [s for _, s in staged],
            "sandwich_violation": [worst_by_scale[r] for r in radii],
        },
        verdict=sandwich.verdict,
        meta={"slack": sandwich.meta["slack"]},
    )
    _emit(out, report_lines(report, cfg))


def cmd_metric(cfg, out, threads, seed):
    mode = cfg.get("metric", "mode", "fr")
    entry = measure_from_config(cfg)
    lines = [f"# config_sha256={cfg.sha256()}"]
    if mode in ("fr", "series", "scaling"):
        if "measure2" in cfg.sections:
            other = measure_from_config(cfg, "measure2").measure
        else:
            other = DiscreteMeasure.empty(entry.measure.dim)
        if mode == "fr":
            r = cfg.get_float("metric", "r", 1.0)
            value = lipmetric.f_ball(entry.measure, other, r)
            lines.append(_fmt(value))
        elif mode == "series":
            terms = cfg.get_int("metric", "max_terms", 20)
            res = lipmetric.f_series(entry.measure, other, terms)
            lines.append(_fmt(res.value) + "," + _fmt(res.tail_bound))
        else:
            r = cfg.get_float("metric", "r", 2.0)
            value = lipmetric.f_scaling_residual(entry.measure, other, r)
            lines.append(_fmt(value))
    elif mode == "dcone":
        m = cfg.get_int("metric", "m", 1)
        s = cfg.get_float("metric", "s", 1.0)
        value = cones.d_cone_flat(entry.measure, m, s, seed=seed)
        lines.append(_fmt(value))
    else:
        raise ConfigError(f"unknown metric mode {mode!r}")
    _emit(out, lines)


def cmd_dmo(cfg, out, threads, seed):
    dim = cfg.get_int("dmo", "n", 2)
    probe_count = cfg.get_int("dmo", "probes", 64)
    for key, value in (("n", dim), ("probes", probe_count)):
        if value < 1:
            raise ConfigError(f"[dmo] {key} = {value} must be at least 1")
    field = field_from_config(cfg, dim)
    radii = cfg.get_floats("dmo", "radii", [0.8, 0.4, 0.2, 0.1])
    probes = moduli.seeded_probes(dim, probe_count, seed=seed)
    if cfg.get("dmo", "boundary_probe") is not None:
        extra = point_from_config(cfg, dim, "dmo", "boundary_probe")
        probes = np.vstack([probes, extra[None, :]])
    profile = moduli.omega_profile(field, probes, radii)
    theta = profile.interpolator()

    taus, warned = [], []
    for r in sorted(radii):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            taus.append(moduli.tau_of_modulus(theta, dim, r))
        warned.append(1.0 if caught else 0.0)
    report = ScanReport(
        columns={
            "r": sorted(radii),
            "omega": profile.omega.tolist(),
            "tau": [t.tau for t in taus],
            "tau_hat": [t.tau_hat for t in taus],
            "kappa_hat": [profile.kappa_hat] * len(radii),
            "divergence_warning": warned,
        },
    )
    _emit(out, report_lines(report, cfg))


def cmd_generate(cfg, out, threads, seed):
    if out is None:
        raise ConfigError("generate requires --out PATH for the measure CSV")
    entry = measure_from_config(cfg)
    save_measure_csv(entry.measure, out,
                     header_comment=f"config_sha256={cfg.sha256()}")
    manifest_path = cfg.get("generate", "manifest")
    if manifest_path:
        corpus.write_manifest([entry], manifest_path)


_COMMANDS = {
    "density": cmd_density,
    "pv": cmd_pv,
    "blowup": cmd_blowup,
    "metric": cmd_metric,
    "dmo": cmd_dmo,
    "generate": cmd_generate,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gmt-lab",
        description="rectifiability diagnostics on discrete measures",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="key=value run config")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        _COMMANDS[args.command](cfg, args.out, args.threads, args.seed)
    except GuardError as exc:
        print(f"gmt-lab: guard refused: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ContractError, OSError) as exc:
        print(f"gmt-lab: {exc}", file=sys.stderr)
        return 2
    except GmtLabError as exc:
        print(f"gmt-lab: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch front end: generate measures, run scans, emit CSV tables and verdicts.

Subcommands: density | pv | blowup | metric | dmo | generate.  A command
reads its config, calls the library for its table (`blowup.blowup_report`,
`moduli.dmo_report`, ...) and formats it with `report_lines`, the one rule
that prints a report's verdict and the ``meta`` keys the command names.
Each measure kind, field kind and ``metric`` mode is one table entry
(`_MEASURE_KINDS`, `_FIELD_KINDS`, `_METRIC_MODES`) naming its library call
and its keys with their defaults, all read by `_read_keys`: the keys are the
schema, so a key of another kind or mode is never read and exits 2.
Every run is driven by a line-oriented key=value config with [section]
headers; the full canonical config is hashed and the hash embedded in a
header comment of every output, so results are traceable to their inputs.
Outputs are byte-identical across reruns; commands run serially, so output
cannot depend on ``--threads``, which is accepted and ignored.

Exit codes: 0 success, 2 config or I/O error (unread keys included), 3
numerical guard refusal (resolution guard, LP size cap, sample cap).  Each
command checks for unread keys right after its last lookup, before any
scan, LP or cone search runs.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import sys

import numpy as np

from . import blowup, cones, corpus, kernels, lipmetric, moduli
from .errors import ContractError, GmtLabError, GuardError, require_atom_count
from .measures import (DiscreteMeasure, EllipseField, load_measure_csv,
                       save_measure_csv)

_FLOAT_FMT = "%.17g"


class ConfigError(ContractError):
    """Malformed or incomplete run configuration."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

class RunConfig:
    """Sectioned key=value configuration; reproducibility unit of a run.
    Every lookup is recorded: the keys a command reads are its schema."""

    def __init__(self, sections):
        self.sections = sections
        self._read = set()

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
        try:
            with open(path, encoding="utf-8-sig") as fh:
                return cls.parse(fh.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None

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
        self._read |= {(section, key), (section, None)}
        value = self.sections.get(section, {}).get(key)
        if value is None:
            if required:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        return value

    def _parse(self, section, key, default, convert, what):
        """convert(value), or default if absent; else "is not <what>"."""
        value = self.get(section, key)
        if value is None:
            return default
        try:
            return convert(value)
        except ValueError:
            raise ConfigError(f"[{section}] {key} = {value!r} is not {what}")

    def require_all_read(self):
        """Raise `ConfigError` for the first section or key, in canonical
        order, that no lookup read, naming the closest key that was read."""
        read = sorted(f"[{s}] {k}" for s, k in self._read if k is not None)
        for section in sorted(self.sections):
            for key in sorted(self.sections[section]) or [None]:
                if (section, key) not in self._read:
                    name = f"[{section}]" + ("" if key is None else f" {key}")
                    close = difflib.get_close_matches(name, read, n=1)
                    hint = f"; did you mean {close[0]}?" if close else ""
                    raise ConfigError(
                        f"{name} is not read by this command{hint}")

    def get_float(self, section, key, default=None):
        return self._parse(section, key, default, float, "a number")

    def get_int(self, section, key, default=None):
        return self._parse(section, key, default, int, "an integer")

    def get_floats(self, section, key, default=None):
        return self._parse(section, key, default, lambda value: [
            float(v) for v in value.split(",")], "a list")


# ---------------------------------------------------------------------------
# Config-driven object construction
# ---------------------------------------------------------------------------

def _read_keys(cfg, section, keys):
    """The value of each key of the ordered ``{key: default}`` mapping
    ``keys``, read in order: an integer where the default is an int, else a
    number."""
    return {key: (cfg.get_int if isinstance(default, int) else cfg.get_float)(
        section, key, default) for key, default in keys.items()}


# Each generated measure kind: its `corpus` generator and its keys with
# their defaults.  Every kind but cantor also reads the spacing h, first.
# The tables name their library calls, which are looked up when made, so a
# wrapper installed on the module (a tracer, a test double) sees them.
_MEASURE_KINDS = {
    "line": ("gen_line", {"extent": 1.0}),
    "halfline": ("gen_half_line", {"extent": 1.0}),
    "cross": ("gen_cross", {"extent": 1.0}),
    "circle": ("gen_circle", {"radius": 1.0}),
    "cantor": ("gen_four_corner_cantor", {"depth": 7}),
    "graph": ("gen_sine_graph",
              {"amplitude": 0.1, "frequency": 1.0, "extent": 2.0}),
    "flat": ("gen_flat", {"n": 2, "m": 1, "c": 1.0, "radius": 1.0}),
}

# Each parametrized field kind and its keys; identity and constant are read
# apart, since constant's matrix is a list.
_FIELD_KINDS = {
    "rotating": {"eccentricity": 2.0, "rate": 1.0},
    "checkerboard": {"contrast": 2.0, "cell": 0.5},
    "radial_holder": {"alpha": 0.5},
}


def measure_from_config(cfg, section="measure"):
    kind = cfg.get(section, "kind", required=True)
    # The Cantor spacing comes from its depth: h is read only where it is used.
    h = {} if kind == "cantor" else {"h": cfg.get_float(section, "h", 0.001)}
    if kind == "csv":
        measure = load_measure_csv(cfg.get(section, "path", required=True),
                                   dim=cfg.get_int(section, "dim"))
        return corpus.CorpusEntry(name="csv", measure=measure, label="mixed",
                                  params=h)
    if kind not in _MEASURE_KINDS:
        raise ConfigError(f"unknown measure kind {kind!r}")
    generate, keys = _MEASURE_KINDS[kind]
    return getattr(corpus, generate)(**h, **_read_keys(cfg, section, keys))


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
    if kind not in _FIELD_KINDS:
        raise ConfigError(f"unknown field kind {kind!r}")
    keys = _read_keys(cfg, section, _FIELD_KINDS[kind])
    if kind == "checkerboard":
        scale = keys.pop("contrast")
        if not np.isfinite(scale):
            raise ConfigError(f"[{section}] contrast = {scale} is not finite")
        keys.update(m1=np.eye(dim), m2=scale * np.eye(dim))
    elif kind == "radial_holder":
        keys["n"] = dim
    return corpus.gen_lambda_field(kind, **keys)


def ladder_from_config(cfg, spacing):
    """The [ladder] radii at the sample's own ``spacing``.  A command reads
    its ladder last: the unread keys are checked here, before the
    resolution guard can refuse the ladder."""
    keys = _read_keys(cfg, "ladder", {"r0": 0.5, "rho": 0.5, "count": 4})
    cfg.require_all_read()
    return blowup.ScaleLadder(spacing=spacing, **keys)


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


def report_lines(report, cfg, meta=()):
    """The header, the CSV table, the ``# verdict=`` line when the report has
    a verdict, then one ``# meta.<key>=<value>`` line per key of ``meta``."""
    lines = [f"# config_sha256={cfg.sha256()}"]
    lines.append(",".join(report.names))
    for row in report.rows():
        lines.append(",".join(_fmt(v) for v in row))
    if report.verdict is not None:
        lines.append(f"# verdict={report.verdict}")
    lines += [f"# meta.{key}={_fmt(report.meta[key])}" for key in meta]
    return lines


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_density(cfg, out, seed):
    entry = measure_from_config(cfg)
    field = field_from_config(cfg, entry.measure.dim)
    a = point_from_config(cfg, entry.measure.dim, "density")
    m = cfg.get_int("density", "m", 1)
    threshold = cfg.get_float("density", "threshold", 0.05)
    ladder = ladder_from_config(cfg, entry.spacing)
    report = blowup.density_scan(entry.measure, a, field, m, ladder)
    report.verdict = blowup.density_gap_verdict(report, threshold)
    _emit(out, report_lines(report, cfg))


def cmd_pv(cfg, out, seed):
    entry = measure_from_config(cfg)
    field = field_from_config(cfg, entry.measure.dim)
    m = cfg.get_int("pv", "m", 1)
    spec = kernels.riesz_kernel(field, m)
    x = point_from_config(cfg, entry.measure.dim, "pv")
    eps0 = cfg.get_float("pv", "eps0", 0.4)
    rungs = require_atom_count(cfg.get_int("pv", "rungs", 6), "eps ladder")
    outer = cfg.get_float("pv", "R")
    ladder = [eps0 * 0.5 ** k for k in range(rungs)]
    cfg.require_all_read()
    report = kernels.pv_convergence_scan(
        spec, entry.measure, x, ladder, spacing=entry.spacing, R=outer)
    report.columns["verdict"] = [report.verdict] * len(report)
    _emit(out, report_lines(report, cfg))


def cmd_blowup(cfg, out, seed):
    entry = measure_from_config(cfg)
    field = field_from_config(cfg, entry.measure.dim)
    a = point_from_config(cfg, entry.measure.dim, "blowup")
    m = cfg.get_int("blowup", "m", 1)
    r_list = cfg.get_floats("blowup", "sandwich_R", [0.5, 1.0, 2.0])
    ladder = ladder_from_config(cfg, entry.spacing)
    report = blowup.blowup_report(entry.measure, a, field, m, ladder, r_list)
    _emit(out, report_lines(report, cfg,
                            ("flatness_verdict", "flatness_floor")))


# Each metric mode: its library call and the [metric] keys it reads, with
# their defaults.  Every mode but dcone compares [measure] with [measure2].
_METRIC_MODES = {
    "fr": (lipmetric, "f_ball", {"r": 1.0}),
    "series": (lipmetric, "f_series", {"max_terms": 20}),
    "scaling": (lipmetric, "f_scaling_residual", {"r": 2.0}),
    "dcone": (cones, "d_cone_flat", {"m": 1, "s": 1.0}),
}


def cmd_metric(cfg, out, seed):
    mode = cfg.get("metric", "mode", "fr")
    if mode not in _METRIC_MODES:
        raise ConfigError(f"unknown metric mode {mode!r}")
    module, call, keys = _METRIC_MODES[mode]
    args = _read_keys(cfg, "metric", keys)
    measures = [measure_from_config(cfg).measure]
    if mode != "dcone":
        measures.append(measure_from_config(cfg, "measure2").measure
                        if "measure2" in cfg.sections
                        else DiscreteMeasure.empty(measures[0].dim))
    cfg.require_all_read()
    value = getattr(module, call)(*measures, **args)
    values = (value.value, value.tail_bound) if mode == "series" else (value,)
    _emit(out, [f"# config_sha256={cfg.sha256()}",
                ",".join(_fmt(v) for v in values)])


def cmd_dmo(cfg, out, seed):
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
    cfg.require_all_read()
    _emit(out, report_lines(moduli.dmo_report(field, probes, radii), cfg))


def cmd_generate(cfg, out, seed):
    if out is None:
        raise ConfigError("generate requires --out PATH for the measure CSV")
    entry = measure_from_config(cfg)
    manifest_path = cfg.get("generate", "manifest")
    cfg.require_all_read()
    save_measure_csv(entry.measure, out,
                     header_comment=f"config_sha256={cfg.sha256()}")
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
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: commands run serially")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the dmo probes")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        _COMMANDS[args.command](cfg, args.out, args.seed)
    except GuardError as exc:
        print(f"gmt-lab: guard refused: {exc}", file=sys.stderr)
        return 3
    except (GmtLabError, OSError) as exc:
        print(f"gmt-lab: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

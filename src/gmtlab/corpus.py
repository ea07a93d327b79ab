"""Deterministic generators for the benchmark measures and coefficient fields.

Every generator is a pure function of its parameters, so entries regenerate
bit for bit.  Labels record the ground truth the diagnostics are expected to
recover: rectifiable samples must pass convergence/flatness checks, the
four-corner Cantor construction must fail them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .measures import DiscreteMeasure, EllipseField, HalfSpace, restrict
from .cones import FlatMeasureSpec, sample_flat

LABELS = ("rectifiable", "purely-unrectifiable", "atomic", "mixed")


@dataclass(frozen=True)
class CorpusEntry:
    """A generated measure with label, regeneration parameters, and spacing."""

    name: str
    measure: DiscreteMeasure
    label: str
    params: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.label not in LABELS:
            raise ContractError(f"unknown label {self.label!r}")

    @property
    def spacing(self):
        return float(self.params.get("h", 0.0))


def _positive_finite(**values):
    """Reject a spacing, extent, radius or exponent that is not positive and
    finite."""
    for name, value in values.items():
        if not 0 < value < np.inf:
            raise ContractError(f"{name} must be positive and finite, "
                                f"got {value}")


def gen_flat(n, m, c, radius, h, frame=None, name=None):
    """Grid sample of c * H^m restricted to an m-plane; label rectifiable."""
    if frame is None:
        frame = np.eye(n)[:, :m]
    spec = FlatMeasureSpec(np.asarray(frame, dtype=float), c, h)
    measure = sample_flat(spec, radius)
    return CorpusEntry(
        name=name or f"flat_n{n}_m{m}",
        measure=measure,
        label="rectifiable",
        params={"n": n, "m": m, "c": c, "radius": radius, "h": h},
        truth={"density": c * 2.0 if m == 1 else None, "flat": True},
    )


def gen_line(h, extent=1.0):
    """H^1 on the x-axis segment [-extent, extent] in the plane."""
    entry = gen_flat(2, 1, 1.0, extent, h, name="line")
    return CorpusEntry(name="line", measure=entry.measure, label="rectifiable",
                       params={"h": h, "extent": extent},
                       truth={"density": 2.0, "flat": True})


def gen_half_line(h, extent=1.0):
    """H^1 on [0, extent] x {0}: rectifiable, but the endpoint sees a
    logarithmically diverging principal value."""
    line = gen_line(h, extent).measure
    measure = restrict(line, HalfSpace(np.array([-1.0, 0.0]), 0.0))
    return CorpusEntry(name="half_line", measure=measure, label="rectifiable",
                       params={"h": h, "extent": extent},
                       truth={"pv_at_origin": "log divergence"})


def gen_graph(f, lip_bound, domain, h, grad=None, name="graph"):
    """Arc-length sample of the graph {(t, f(t))} over a 1-D interval.

    Weights are h * sqrt(1 + f'(t)^2) with the gradient at the node (central
    difference unless ``grad`` is supplied).
    """
    a, b = float(domain[0]), float(domain[1])
    _positive_finite(h=h, domain_width=b - a)
    t = np.arange(a, b + h / 2, h)
    ft = np.asarray([f(v) for v in t], dtype=float)
    if grad is not None:
        df = np.asarray([grad(v) for v in t], dtype=float)
    else:
        df = np.gradient(ft, t)
    if np.abs(df).max() > lip_bound * (1 + 1e-9):
        raise ContractError("sampled gradient exceeds the declared bound")
    pts = np.column_stack([t, ft])
    w = h * np.sqrt(1.0 + df * df)
    return CorpusEntry(
        name=name,
        measure=DiscreteMeasure(pts, w, dim=2),
        label="rectifiable",
        params={"h": h, "domain": (a, b), "lip_bound": lip_bound},
        truth={"flat_blowups": True},
    )


def gen_sine_graph(h, amplitude=0.1, frequency=1.0, extent=2.0):
    """The bounded-slope graph t |-> amplitude * sin(frequency * t)."""
    entry = gen_graph(
        lambda t: amplitude * np.sin(frequency * t),
        lip_bound=abs(amplitude * frequency),
        domain=(-extent, extent),
        h=h,
        grad=lambda t: amplitude * frequency * np.cos(frequency * t),
        name="sine_graph",
    )
    return CorpusEntry(name="sine_graph", measure=entry.measure,
                       label="rectifiable",
                       params={"h": h, "amplitude": amplitude,
                               "frequency": frequency, "extent": extent},
                       truth={"flat_blowups": True})


def gen_four_corner_cantor(depth):
    """Level-``depth`` four-corner Cantor measure on the unit square.

    4^depth points at the centers of the level squares (ratio 1/4), each of
    weight 4^{-depth}; centers rather than corners so no sample sits exactly
    on the dyadic truncation spheres of the scans.  The canonical purely
    1-unrectifiable negative control.
    """
    if not 1 <= depth <= 10:
        raise ContractError("depth must lie in 1..10")
    # The level side 4^-depth is exact, so the centers are exact too.
    centers = cantor_construction_corners(depth) + 4.0 ** (-depth) / 2
    weights = np.full(centers.shape[0], 4.0 ** (-depth))
    return CorpusEntry(
        name=f"cantor_{depth}",
        measure=DiscreteMeasure(centers, weights, dim=2),
        label="purely-unrectifiable",
        params={"depth": depth, "h": 4.0 ** (-depth)},
        truth={"mass": 1.0, "density_exists": False},
    )


def cantor_construction_corners(level):
    """The 4^level corner points of the level squares (exact dyadic floats)."""
    if level < 0:
        raise ContractError("level must be nonnegative")
    offsets = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])
    corners = np.zeros((1, 2))
    side = 1.0
    for _ in range(level):
        corners = (corners[:, None, :] + side * offsets[None, :, :]).reshape(-1, 2)
        side /= 4.0
    return corners


def gen_cross(h, extent=1.0):
    """Union of the two axes' H^1 samples: symmetric at 0, never flat there."""
    _positive_finite(h=h, extent=extent)
    t = np.arange(-round(extent / h), round(extent / h) + 1) * h
    xs = np.column_stack([t, np.zeros_like(t)])
    ys = np.column_stack([np.zeros_like(t), t])
    ys = ys[np.abs(t) > 0]  # origin kept once
    pts = np.vstack([xs, ys])
    return CorpusEntry(
        name="cross",
        measure=DiscreteMeasure(pts, np.full(pts.shape[0], h), dim=2),
        label="mixed",
        params={"h": h, "extent": extent},
        truth={"symmetric_at_origin": True, "flat": False},
    )


def gen_circle(h, radius=1.0):
    """Arc-length sample of the circle of the given radius about the origin."""
    _positive_finite(h=h, radius=radius)
    count = int(round(2 * np.pi * radius / h))
    if count < 8:
        raise ContractError("spacing too coarse for the circle")
    theta = np.arange(count) * (2 * np.pi / count)
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    w = np.full(count, 2 * np.pi * radius / count)
    return CorpusEntry(
        name="circle",
        measure=DiscreteMeasure(pts, w, dim=2),
        label="rectifiable",
        params={"h": h, "radius": radius},
        truth={"mass": 2 * np.pi * radius, "density": 2.0},
    )


def gen_atom_on_line(h, weight=1.0, extent=1.0):
    """A unit line sample plus an atom at the origin: not uniform."""
    line = gen_line(h, extent).measure
    pts = np.vstack([line.points, np.zeros((1, 2))])
    w = np.concatenate([line.weights, [weight]])
    return CorpusEntry(
        name="atom_on_line",
        measure=DiscreteMeasure(pts, w, dim=2),
        label="mixed",
        params={"h": h, "weight": weight, "extent": extent},
        truth={"uniform": False},
    )


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

# libm pow entry by entry, as the scalar t ** alpha: numpy's vectorized power
# differs from it in the last bit at a few percent of arguments, and its
# kernel depends on the CPU.
_libm_pow = np.frompyfunc(math.pow, 2, 1)


def _finite(**values):
    """Reject a field parameter or matrix with a non-finite entry."""
    for name, value in values.items():
        if not np.all(np.isfinite(value)):
            raise ContractError(f"{name} must be finite, got {value}")


def gen_lambda_field(kind, **kw):
    """Coefficient fields exercising the diagnostics.

    kinds:
      constant(matrix)               -- same matrix everywhere;
      rotating(eccentricity, rate)   -- orthogonal conjugate of
                                        diag(eccentricity, 1), principal axes
                                        turning with the first coordinate;
      checkerboard(m1, m2, cell)     -- discontinuous two-phase field
                                        (not Dini);
      radial_holder(alpha, base)     -- (base + min(|x|, 1)^alpha) * I, a
                                        C^alpha field.

    Non-finite parameters are rejected here; singular matrices are left to
    the determinant floor of `EllipseField.matrices`.
    """
    if kind == "constant":
        matrix = np.asarray(kw["matrix"], dtype=float)
        _finite(matrix=matrix)
        return EllipseField.constant(matrix)

    if kind == "rotating":
        ecc = float(kw.get("eccentricity", 2.0))
        rate = float(kw.get("rate", 1.0))
        _finite(eccentricity=ecc, rate=rate)
        diag = np.diag([ecc, 1.0])

        def evaluate(pts):
            th = rate * pts[:, 0]
            c, s = np.cos(th), np.sin(th)
            q = np.stack([c, -s, s, c], axis=1).reshape(-1, 2, 2)
            return q @ diag @ np.swapaxes(q, 1, 2)

        return EllipseField(evaluate, 2)

    if kind == "checkerboard":
        m1 = np.asarray(kw["m1"], dtype=float)
        m2 = np.asarray(kw["m2"], dtype=float)
        cell = float(kw.get("cell", 1.0))
        _finite(m1=m1, m2=m2)
        _positive_finite(cell=cell)

        def evaluate(pts):
            parity = np.sum(np.floor(pts / cell), axis=1) % 2
            return np.where(parity[:, None, None] == 0, m1, m2)

        return EllipseField(evaluate, m1.shape[0])

    if kind == "radial_holder":
        alpha = float(kw.get("alpha", 0.5))
        base = float(kw.get("base", 1.0))
        n = int(kw.get("n", 2))
        _positive_finite(alpha=alpha)
        _finite(base=base)

        def evaluate(pts):
            # |x| summed as np.linalg.norm sums it; an overflow clips to 1.
            with np.errstate(over="ignore"):
                norm = np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])
            power = _libm_pow(np.minimum(norm, 1.0), alpha).astype(float)
            return (base + power)[:, None, None] * np.eye(n)

        return EllipseField(evaluate, n)

    raise ContractError(f"unknown field kind {kind!r}")


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

def write_manifest(entries, path):
    """Line-oriented key=value manifest, one blank-line-separated record per
    entry; values repr-free and diff-friendly."""
    with open(path, "w") as fh:
        for entry in entries:
            fh.write(f"name = {entry.name}\n")
            fh.write(f"label = {entry.label}\n")
            fh.write(f"points = {entry.measure.size}\n")
            fh.write(f"mass = {entry.measure.total_mass:.17g}\n")
            for key in sorted(entry.params):
                fh.write(f"param.{key} = {entry.params[key]}\n")
            fh.write("\n")


def read_manifest(path):
    """Parse a manifest back into a list of record dicts (comments skipped)."""
    records = []
    current = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                if current:
                    records.append(current)
                    current = {}
                continue
            if line.startswith("#"):
                continue
            if "=" not in line:
                raise ContractError(f"bad manifest line {line!r}")
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    if current:
        records.append(current)
    return records

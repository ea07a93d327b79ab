"""Deterministic generators for the benchmark measures and coefficient fields.

The measures are flat samples c * H^m on the plane of the first m axes (the
line and the half-line among them), arc-length samples of the sine graph and
the circle, the cross, and the four-corner Cantor measure.  Every generator
is a pure function of its parameters, so entries regenerate bit for bit.
Labels record the ground truth the diagnostics are expected to recover:
rectifiable samples must pass convergence/flatness checks, the four-corner
Cantor construction must fail them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ContractError, require_atom_count, require_finite,
                     require_positive_finite)
from .measures import DiscreteMeasure, EllipseField, HalfSpace, restrict
from .cones import sample_flat

LABELS = ("rectifiable", "purely-unrectifiable", "atomic", "mixed")


@dataclass(frozen=True)
class CorpusEntry:
    """A generated measure with label, regeneration parameters, and spacing."""

    name: str
    measure: DiscreteMeasure
    label: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.label not in LABELS:
            raise ContractError(f"unknown label {self.label!r}")

    @property
    def spacing(self):
        return float(self.params.get("h", 0.0))


def gen_flat(n, m, c, radius, h):
    """`sample_flat`'s c * H^m on the plane of the first m axes of R^n;
    label rectifiable."""
    return CorpusEntry(
        name=f"flat_n{n}_m{m}",
        measure=sample_flat(n, m, c, radius, h),
        label="rectifiable",
        params={"n": n, "m": m, "c": c, "radius": radius, "h": h},
    )


def gen_line(h, extent=1.0):
    """H^1 on the x-axis segment [-extent, extent] in the plane."""
    return CorpusEntry(name="line", measure=sample_flat(2, 1, 1.0, extent, h),
                       label="rectifiable", params={"h": h, "extent": extent})


def gen_half_line(h, extent=1.0):
    """H^1 on [0, extent] x {0}: rectifiable, but the endpoint sees a
    logarithmically diverging principal value."""
    line = gen_line(h, extent).measure
    measure = restrict(line, HalfSpace(np.array([-1.0, 0.0]), 0.0))
    return CorpusEntry(name="half_line", measure=measure, label="rectifiable",
                       params={"h": h, "extent": extent})


def gen_sine_graph(h, amplitude=0.1, frequency=1.0, extent=2.0):
    """Arc-length sample of the graph t |-> amplitude * sin(frequency * t)
    over [-extent, extent]: nodes at -extent + k h, each of weight
    h * sqrt(1 + f'(t)^2).  f and f' are evaluated node by node, since
    numpy's vectorized sin, like its power (see `_libm_pow`), is not the
    same in every last bit on every CPU."""
    require_finite(amplitude=amplitude, frequency=frequency)
    require_positive_finite("h", h)
    require_positive_finite("domain_width", 2.0 * extent)
    require_atom_count(np.ceil((extent + h / 2 + extent) / h))
    t = np.arange(-float(extent), float(extent) + h / 2, h)
    with np.errstate(over="ignore", invalid="ignore"):
        ft = np.asarray([amplitude * np.sin(frequency * v) for v in t])
        df = np.asarray([amplitude * frequency * np.cos(frequency * v)
                         for v in t])
        w = h * np.sqrt(1.0 + df * df)
    if not (np.isfinite(ft).all() and np.isfinite(w).all()):
        raise ContractError("sine_graph has a non-finite sample or weight")
    return CorpusEntry(name="sine_graph",
                       measure=DiscreteMeasure(np.column_stack([t, ft]), w,
                                               dim=2),
                       label="rectifiable",
                       params={"h": h, "amplitude": amplitude,
                               "frequency": frequency, "extent": extent})


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
    require_positive_finite("h", h)
    require_positive_finite("extent", extent)
    kmax = require_atom_count(4 * np.round(extent / h) + 1) // 4
    t = np.arange(-kmax, kmax + 1) * h
    xs = np.column_stack([t, np.zeros_like(t)])
    ys = np.column_stack([np.zeros_like(t), t])
    ys = ys[np.abs(t) > 0]  # origin kept once
    pts = np.vstack([xs, ys])
    return CorpusEntry(
        name="cross",
        measure=DiscreteMeasure(pts, np.full(pts.shape[0], h), dim=2),
        label="mixed",
        params={"h": h, "extent": extent},
    )


def gen_circle(h, radius=1.0):
    """Arc-length sample of the circle of the given radius about the origin."""
    require_positive_finite("h", h)
    require_positive_finite("radius", radius)
    count = require_atom_count(np.round(2 * np.pi * radius / h))
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
    )


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

# libm pow entry by entry, as the scalar t ** alpha: numpy's vectorized power
# differs from it in the last bit at a few percent of arguments, and its
# kernel depends on the CPU.
_libm_pow = np.frompyfunc(math.pow, 2, 1)


def gen_lambda_field(kind, **kw):
    """Coefficient fields exercising the diagnostics.

    kinds:
      constant(matrix)               -- same matrix everywhere;
      rotating(eccentricity, rate)   -- orthogonal conjugate of
                                        diag(eccentricity, 1), principal axes
                                        turning with the first coordinate;
      checkerboard(m1, m2, cell)     -- discontinuous two-phase field
                                        (not Dini);
      radial_holder(alpha, n)        -- (1 + min(|x|, 1)^alpha) * I_n, a
                                        C^alpha field.

    A keyword the kind does not read and non-finite parameters are rejected
    here; singular matrices are left to the determinant floor of
    `EllipseField.matrices`.
    """
    params = {"constant": "matrix", "rotating": "eccentricity rate",
              "checkerboard": "m1 m2 cell", "radial_holder": "alpha n"}
    if kind not in params:
        raise ContractError(f"unknown field kind {kind!r}")
    unknown = sorted(set(kw) - set(params[kind].split()))
    if unknown:
        raise ContractError(f"{kind} field has no parameter {unknown[0]!r}; "
                            f"its parameters are {params[kind]}")

    if kind == "constant":
        matrix = np.asarray(kw["matrix"], dtype=float)
        require_finite(matrix=matrix)
        return EllipseField.constant(matrix)

    if kind == "rotating":
        ecc = float(kw.get("eccentricity", 2.0))
        rate = float(kw.get("rate", 1.0))
        require_finite(eccentricity=ecc, rate=rate)
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
        cell = float(kw.get("cell", 0.5))
        require_finite(m1=m1, m2=m2)
        require_positive_finite("cell", cell)

        def evaluate(pts):
            with np.errstate(over="ignore", invalid="ignore"):
                index = np.sum(np.floor(pts / cell), axis=1)
            if not np.isfinite(index).all():
                raise ContractError(
                    f"checkerboard cell {cell} leaves the cell index of "
                    f"{pts[~np.isfinite(index)][0]} non-finite")
            return np.where((index % 2)[:, None, None] == 0, m1, m2)

        return EllipseField(evaluate, m1.shape[0])

    if kind == "radial_holder":
        alpha = float(kw.get("alpha", 0.5))
        n = int(kw.get("n", 2))
        require_positive_finite("alpha", alpha)

        def evaluate(pts):
            # |x| summed as np.linalg.norm sums it; an overflow clips to 1.
            with np.errstate(over="ignore"):
                norm = np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0])
            power = _libm_pow(np.minimum(norm, 1.0), alpha).astype(float)
            return (1.0 + power)[:, None, None] * np.eye(n)

        return EllipseField(evaluate, n)


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

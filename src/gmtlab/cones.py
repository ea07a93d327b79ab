"""Flat measures, distances to the flat cones, and symmetry/uniformity defects.

``sample_flat`` discretizes c * H^m restricted to an m-plane through the
origin inside a ball.  ``d_cone_flat`` computes the scale-s distance from a
measure to the cone of m-dimensional flat measures,

    d_s(nu, M_{n,m}) = inf { F_s(nu / F_s(nu), mu) :
                             mu = c H^m|V,  F_s(mu) = 1 },

by a coarse search over frames followed by a compass search on the frame
parameters; the normalizing constant per plane is fixed in closed form since
F_s is linear in the weights.  The result is the smallest value seen, an
upper bound on the infimum; it is not certified.  Each of the two stages
warm-starts its chain of F_s programs through its own
`gmtlab.transport.WarmStart` holder, so no solver state outlives the call.
Values are clamped to [0, 1], and 1 is returned when F_s(nu) = 0.

``symmetry_defect`` evaluates the annulus moment whose vanishing at every
window characterizes points of symmetry, and ``uniformity_defect`` probes the
defining property of uniform measures on seeded support pairs.

Reported cone distances carry a discretization floor of 2 * grid_step / s;
inputs denser than the LP site budget are conservatively rebinned onto a grid
of that step, which is covered by the same floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ContractError, DimensionMismatchError
from .lipmetric import SITE_CAP, f_ball
from .measures import (TIE_TOL, Ball, DiscreteMeasure, lambda_distances,
                       mass_in)
from .transport import WarmStart

# Candidate-plane grid spacing relative to the scale s, per dimension m of
# the plane; chosen so flat samples stay within the LP site budget.
_GRID_DIV = {1: 80, 2: 8, 3: 4}

# The compass search stops once its step falls below this tolerance, or
# after _SEARCH_EVALS full-resolution evaluations.
OPTIMIZER_TOL = 1e-3
_SEARCH_EVALS = 60

# First compass step: half the spacing of the 36-angle coarse grid for n = 2.
_SEARCH_STEP = np.pi / 72


def cone_grid_step(s, m):
    """Grid spacing used for flat candidates and input rebinning at scale s."""
    return s / _GRID_DIV.get(m, 4)


def cone_floor(s, m):
    """Additive discretization uncertainty of reported cone distances."""
    return 2.0 * cone_grid_step(s, m) / s


@dataclass(frozen=True)
class FlatMeasureSpec:
    """Plane frame + constant + grid spacing defining a discretized c*H^m|V.

    ``frame`` holds m orthonormal n-vectors as columns of an (n, m) array.
    """

    frame: np.ndarray
    constant: float
    spacing: float

    def __post_init__(self):
        fr = np.asarray(self.frame, dtype=float)
        if fr.ndim != 2:
            raise ContractError("frame must be an (n, m) array")
        n, m = fr.shape
        if not 1 <= m <= n:
            raise ContractError(f"plane dimension m={m} invalid in R^{n}")
        gram = fr.T @ fr
        if np.abs(gram - np.eye(m)).max() > 1e-12:
            raise ContractError("frame is not orthonormal to 1e-12")
        if not self.constant > 0:
            raise ContractError("flat-measure constant must be positive")
        if not self.spacing > 0:
            raise ContractError("grid spacing must be positive")
        fr = np.ascontiguousarray(fr)
        fr.setflags(write=False)
        object.__setattr__(self, "frame", fr)

    @property
    def ambient_dim(self):
        return self.frame.shape[0]

    @property
    def plane_dim(self):
        return self.frame.shape[1]


def sample_flat(spec, radius):
    """Grid discretization of c * H^m|V inside the closed ball B(0, radius).

    Nodes sit at integer multiples of the spacing along the frame; each
    carries weight c * spacing^m, so the total mass converges to the
    m-volume as the spacing shrinks.
    """
    if not 0 < radius < np.inf:
        raise ContractError(
            f"radius must be positive and finite, got {radius}")
    h = spec.spacing
    if h > radius / 10:
        raise ContractError(
            f"spacing {h} too coarse for radius {radius} (need h <= radius/10)"
        )
    m = spec.plane_dim
    kmax = int(np.floor(radius / h))
    axis = np.arange(-kmax, kmax + 1, dtype=float)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1) * h
    keep = np.sqrt(np.sum(coords * coords, axis=1)) <= radius
    coords = coords[keep]
    points = coords @ spec.frame.T
    weights = np.full(points.shape[0], spec.constant * h ** m)
    return DiscreteMeasure(points, weights, dim=spec.ambient_dim)


@dataclass(frozen=True)
class DefectReport:
    """Value of a defect functional plus the window and witness achieving it."""

    value: float
    window: tuple
    witness: tuple | None = None


# ---------------------------------------------------------------------------
# Distance to the flat cone
# ---------------------------------------------------------------------------

def _rebin(measure, step, radius):
    """Snap points inside B(0, radius) to a grid of the given step.

    Mass-preserving; moves each point by at most step * sqrt(n) / 2, so the
    effect on normalized cone distances is inside the reported floor.
    """
    pts = measure.points
    keep = np.sqrt(np.sum(pts * pts, axis=1)) <= radius * (1 + TIE_TOL)
    pts, w = pts[keep], measure.weights[keep]
    if pts.shape[0] == 0:
        return DiscreteMeasure.empty(measure.dim)
    keys = np.round(pts / step)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    agg = np.zeros(uniq.shape[0])
    np.add.at(agg, inverse, w)
    return DiscreteMeasure(uniq * step, agg, dim=measure.dim)


def _flat_mass_norm(points, weights, s):
    """F_s of a nonnegative measure in closed form: sum w_i (s - |x_i|)."""
    caps = s - np.sqrt(np.sum(points * points, axis=1))
    return float(weights @ np.maximum(caps, 0.0))


def _coarse_frames(n, m, seed=0):
    """Deterministic list of candidate frames covering G(n, m)."""
    if n == 2:  # m == 1; the angle grid already holds both axes
        angles = np.pi * np.arange(36) / 36
        return [np.array([[np.cos(th)], [np.sin(th)]]) for th in angles]
    eye = np.eye(n)
    frames = [eye[:, list(combo)] for combo in combinations(range(n), m)]
    if n == 3:
        dirs = _hemisphere_grid(64)
        if m == 1:
            frames.extend(d[:, None] for d in dirs)
        else:  # m == 2: parametrize by the normal
            frames.extend(_plane_from_normal(d) for d in dirs)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(200):
            q = _orthonormalize(rng.normal(size=(n, m)))
            if q is not None:
                frames.append(q)
    return frames


def _hemisphere_grid(count):
    """Golden-angle spiral on the upper hemisphere (deterministic)."""
    k = np.arange(count)
    z = (k + 0.5) / count
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    rho = np.sqrt(1.0 - z * z)
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _plane_from_normal(v):
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(v)))] = 1.0
    u1 = axis - (axis @ v) * v
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(v, u1)
    return np.column_stack([u1, u2])


def _orthonormalize(mat):
    q, r = np.linalg.qr(mat)
    diag = np.diag(r)
    if np.min(np.abs(diag)) < 1e-8:
        return None
    return q * np.sign(diag)


def _frame_to_params(n, m, frame):
    """Minimal refinement coordinates: angles for n <= 3, raw entries above."""
    if n == 2:
        return np.array([np.arctan2(frame[1, 0], frame[0, 0])])
    if n == 3:
        v = frame[:, 0] if m == 1 else np.cross(frame[:, 0], frame[:, 1])
        v = v / np.linalg.norm(v)
        return np.array([np.arccos(np.clip(v[2], -1, 1)),
                         np.arctan2(v[1], v[0])])
    return frame.ravel()


def _params_to_frame(n, m, params):
    if n == 2:
        th = params[0]
        return np.array([[np.cos(th)], [np.sin(th)]])
    if n == 3:
        pol, az = params
        v = np.array([np.sin(pol) * np.cos(az),
                      np.sin(pol) * np.sin(az),
                      np.cos(pol)])
        nv = np.linalg.norm(v)
        if nv < 1e-12:
            return None
        v = v / nv
        return v[:, None] if m == 1 else _plane_from_normal(v)
    return _orthonormalize(params.reshape(n, m))


def _compass_search(fun, x, fx):
    """Smallest value of ``fun`` found by a compass search from ``x``.

    ``fx`` is ``fun(x)``.  A sweep tries x + step e_1, ..., x + step e_d, then
    x - step e_1, ..., x - step e_d, and moves to the first strict
    improvement; a sweep without one halves the step.  The search stops once
    the step is below OPTIMIZER_TOL or after _SEARCH_EVALS calls of ``fun``.
    """
    moves = np.concatenate([np.eye(x.size), -np.eye(x.size)])
    step, calls = _SEARCH_STEP, 0
    while step >= OPTIMIZER_TOL:
        for move in moves:
            if calls >= _SEARCH_EVALS:
                return fx
            trial = x + step * move
            value = fun(trial)
            calls += 1
            if value < fx:
                x, fx = trial, value
                break
        else:
            step /= 2
    return fx


def d_cone_flat(nu, m, s, seed=0):
    """Distance in [0, 1] from ``nu`` to the m-flat cone at scale ``s``.

    Returns 1 when F_s(nu) = 0 (discrete measures never reach the infinite
    branch of the convention).  Minimizes over planes with the per-plane
    constant fixed by F_s-normalization in closed form: the coarse frame grid
    at half resolution picks the best frame, and `_compass_search` refines
    it on the frame parameters at full resolution, starting from that
    frame's full-resolution value (first step pi/72, at most 60 further
    evaluations).  ``s`` must be positive and finite.
    """
    n = nu.dim
    if not 1 <= m <= n - 1:
        raise ContractError(f"flat dimension m={m} must lie in 1..{n - 1}")
    if not 0 < s < np.inf:
        raise ContractError(f"scale s must be positive and finite, got {s}")

    fs_nu = f_ball(nu, DiscreteMeasure.empty(n), s)
    if fs_nu <= 0.0:
        return 1.0

    step = cone_grid_step(s, m)

    def normalized_target(source, bin_step):
        tgt = source
        inside = (np.sqrt(np.sum(source.points ** 2, axis=1))
                  <= s * (1 + TIE_TOL))
        if int(inside.sum()) > SITE_CAP // 2:
            tgt = _rebin(source, bin_step, s)
        norm = f_ball(tgt, DiscreteMeasure.empty(n), s)
        if norm <= 0.0:
            # All mass sits within a bin of the sphere; nothing to normalize.
            return None
        return DiscreteMeasure(tgt.points, tgt.weights / norm, dim=n)

    def plane_grid(spacing):
        kmax = int(np.floor(s / spacing))
        axis = np.arange(-kmax, kmax + 1, dtype=float) * spacing
        grids = np.meshgrid(*([axis] * m), indexing="ij")
        coords = np.stack([g.ravel() for g in grids], axis=1)
        coords = coords[np.sqrt(np.sum(coords * coords, axis=1)) <= s]
        return coords, np.full(coords.shape[0], spacing ** m)

    def plane_distance(frame, target, grid_coords, grid_w, warm):
        pts = grid_coords @ frame.T
        norm = _flat_mass_norm(pts, grid_w, s)
        if norm <= 0.0:
            return 1.0
        cand = DiscreteMeasure(pts, grid_w / norm, dim=n)
        return f_ball(target, cand, s, warm=warm)

    # Coarse stage at half resolution locates the basin; refinement and the
    # reported value use the full grid (whose floor is the quoted one).
    # Each stage chains its LPs through one warm-start holder: the target is
    # fixed and every candidate atom carries the same weight, so consecutive
    # transport problems usually share their marginals exactly, and the last
    # optimal basis is a feasible start for the next.
    coarse_target = normalized_target(nu, 2 * step)
    if coarse_target is None:
        return 1.0
    coarse_coords, coarse_w = plane_grid(2 * step)
    coarse_warm = WarmStart()
    best_frame, best_val = None, np.inf
    for frame in _coarse_frames(n, m, seed=seed):
        val = plane_distance(frame, coarse_target, coarse_coords, coarse_w,
                             coarse_warm)
        if val < best_val - 1e-15:
            best_frame, best_val = frame, val

    target = normalized_target(nu, step)
    if target is None:
        return 1.0
    coords, base_w = plane_grid(step)
    warm = WarmStart()

    def objective(params):
        q = _params_to_frame(n, m, params)
        if q is None:
            return 2.0
        return plane_distance(q, target, coords, base_w, warm)

    start = plane_distance(best_frame, target, coords, base_w, warm)
    best = _compass_search(objective, _frame_to_params(n, m, best_frame), start)
    return float(np.clip(best, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Symmetry and uniformity defects
# ---------------------------------------------------------------------------

def symmetry_defect(nu, x, r, R, m):
    """Norm of the annulus moment sum_{r <= |x - z| <= R} (x - z)/|x - z|^{m+1}.

    Vanishing for every window characterizes x as a point of symmetry; the
    returned norm quantifies the failure over this window.
    """
    if not 0 < r < R:
        raise ContractError(f"need 0 < r < R, got ({r}, {R})")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != nu.dim:
        raise DimensionMismatchError("defect center dimension mismatch")
    u, dist = lambda_distances(nu.points, x)
    # Closed annulus with the same relative tie tolerance as ball membership,
    # so mirror pairs straddling a cut by an ulp stay paired.
    mask = (dist >= r * (1.0 - TIE_TOL)) & (dist <= R * (1.0 + TIE_TOL))
    if not mask.any():
        return 0.0
    kern = -u[mask] / dist[mask, None] ** (m + 1)  # x - z, exactly
    total = (nu.weights[mask, None] * kern).sum(axis=0)
    return float(np.linalg.norm(total))


def uniformity_gap(nu, x, y, r):
    """Relative ball-mass gap |nu(B(x,r)) - nu(B(y,r))| / max(...)."""
    mx = mass_in(nu, Ball(np.asarray(x, float), r))
    my = mass_in(nu, Ball(np.asarray(y, float), r))
    top = max(mx, my)
    if top <= 0.0:
        return 0.0
    return abs(mx - my) / top


def uniformity_defect(nu, probe_pairs, radii, seed=0):
    """Largest relative ball-mass gap over seeded support pairs and radii.

    Probes are drawn (with a fixed seed) from support points in the inner
    half of the support's bounding ball, avoiding sample-boundary effects.
    A lower bound on the true defect; near 0 for uniform measures.
    """
    support = nu.support()
    if support.shape[0] == 0:
        raise ContractError("uniformity defect of an empty support")
    radii = [float(r) for r in radii]
    if not radii or min(radii) <= 0:
        raise ContractError("radii must be positive")
    center = 0.5 * (support.min(axis=0) + support.max(axis=0))
    dist = lambda_distances(support, center)[1]
    bound = dist.max()
    inner = support[dist <= bound / 2] if bound > 0 else support
    if inner.shape[0] < 2:
        inner = support
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, inner.shape[0], size=(int(probe_pairs), 2))
    best = (0.0, None, None)
    for i, j in idx:
        if i == j:
            continue
        x, y = inner[i], inner[j]
        for r in radii:
            gap = uniformity_gap(nu, x, y, r)
            if gap > best[0]:
                best = (gap, (x.copy(), y.copy()), r)
    value, witness, r = best
    return DefectReport(
        value=value,
        window=(min(radii), max(radii)),
        witness=None if witness is None else (witness[0], witness[1], r),
    )

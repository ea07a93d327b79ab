"""Flat measures, distances to the flat cones, and the symmetry defect.

``sample_flat`` discretizes c * H^m restricted to an m-plane through the
origin inside a ball.  ``d_cone_flat`` computes the scale-s distance from a
measure to the cone of m-dimensional flat measures,

    d_s(nu, M_{n,m}) = inf { F_s(nu / F_s(nu), mu) :
                             mu = c H^m|V,  F_s(mu) = 1 },

with the normalizing constant per plane fixed in closed form since F_s is
linear in the weights.  The principal frame is tried first: the top-m
eigenvectors of the second moment sum_i w_i x_i x_i^T of the target, the
plane of the L^2 beta-numbers.  Its value U is an upper bound on the
infimum, and cone distances are >= 0, so U <= floor/2 (half the
discretization floor below) is certified by the bracket [0, U] and is
returned after at most one transport solve.  Otherwise a fixed coarse set
of frames is followed by a compass search in local coordinates around the
best of them: for n = 2, 36 angles and the angle; above the plane, the axis
frames plus fixed-seed Gaussian frames, and the m(n - m) coordinates of the
graph chart X -> qr(F + C X) of G(n, m).  The result is the smallest value
seen, the principal frame's included, an upper bound that is not
certified.  The principal solve has a `gmtlab.transport.WarmStart` holder
of its own, and each search stage warm-starts its chain of F_s programs
through another, so each solve starts from the basis of the nearest frame
solved before it in that stage: coarse frames are keyed by their angle
(n = 2) or their projector F F^T, chart frames by their coordinates (the
compass search takes over the principal holder when the coarse stage picks
the principal frame); no solver state outlives the call.  Values are
clamped to [0, 1], and 1 is returned when F_s(nu) = 0.

``symmetry_defect`` evaluates the annulus moment whose vanishing at every
window characterizes points of symmetry.

Reported cone distances carry a discretization floor of 2 * grid_step / s;
inputs denser than the LP site budget are conservatively rebinned onto a grid
of that step, which is covered by the same floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (ContractError, DimensionMismatchError,
                     require_atom_count, require_positive_finite)
from .lipmetric import SITE_CAP, _merge_duplicates, f_ball
from .measures import TIE_TOL, DiscreteMeasure, lambda_distances
from .transport import WarmStart

# Candidate-plane grid spacing relative to the scale s, per dimension m of
# the plane; chosen so flat samples stay within the LP site budget.
_GRID_DIV = {1: 80, 2: 8, 3: 4}

# The compass search stops once its step falls below this tolerance, or
# after _SEARCH_EVALS full-resolution evaluations.
OPTIMIZER_TOL = 1e-3
_SEARCH_EVALS = 60

# First compass step: half the spacing of the 36-angle coarse grid for n = 2;
# above the plane, a step of one graph coordinate turns the plane by about
# as much.
_SEARCH_STEP = np.pi / 72

# Fixed-seed Gaussian frames the coarse stage adds to the axis frames for
# n >= 3.
_RANDOM_FRAMES = 64


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
        require_positive_finite("flat-measure constant", self.constant)
        require_positive_finite("grid spacing", self.spacing)
        fr = np.ascontiguousarray(fr)
        fr.setflags(write=False)
        object.__setattr__(self, "frame", fr)

    @property
    def ambient_dim(self):
        return self.frame.shape[0]

    @property
    def plane_dim(self):
        return self.frame.shape[1]


def _plane_grid(m, h, radius):
    """Points of the grid h * Z^m inside the closed ball B(0, radius) in R^m,
    in lexicographic order; each coordinate is the single product k * h."""
    side = require_atom_count(2 * np.floor(float(radius) / float(h)) + 1)
    require_atom_count(side ** m)
    kmax = side // 2
    axis = np.arange(-kmax, kmax + 1, dtype=float) * h
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    return coords[np.sqrt(np.sum(coords * coords, axis=1)) <= radius]


def sample_flat(spec, radius):
    """Grid discretization of c * H^m|V inside the closed ball B(0, radius).

    Nodes sit at integer multiples of the spacing along the frame; each
    carries weight c * spacing^m, so the total mass converges to the
    m-volume as the spacing shrinks.
    """
    require_positive_finite("radius", radius)
    h = spec.spacing
    if h > radius / 10:
        raise ContractError(
            f"spacing {h} too coarse for radius {radius} (need h <= radius/10)"
        )
    m = spec.plane_dim
    points = _plane_grid(m, h, radius) @ spec.frame.T
    weights = np.full(points.shape[0], spec.constant * h ** m)
    return DiscreteMeasure(points, weights, dim=spec.ambient_dim)


# ---------------------------------------------------------------------------
# Distance to the flat cone
# ---------------------------------------------------------------------------

def _rebin(measure, step, radius):
    """Snap points inside B(0, radius) to a grid of the given step.

    Mass-preserving; moves each point by at most step * sqrt(n) / 2, so the
    effect on normalized cone distances is inside the reported floor.  The
    atoms of a cell merge as in `gmtlab.lipmetric._merge_duplicates`: cells
    in lexicographic order, masses summed in input order, and cells whose
    mass sums to zero dropped.
    """
    pts = measure.points
    keep = np.sqrt(np.sum(pts * pts, axis=1)) <= radius * (1 + TIE_TOL)
    pts, w = pts[keep], measure.weights[keep]
    keys, agg = _merge_duplicates(np.round(pts / step), w)
    return DiscreteMeasure(keys * step, agg, dim=measure.dim)


def _flat_mass_norm(points, weights, s):
    """F_s of a nonnegative measure in closed form: sum w_i (s - |x_i|)."""
    caps = s - np.sqrt(np.sum(points * points, axis=1))
    return float(weights @ np.maximum(caps, 0.0))


def _line_frame(theta):
    """The frame (cos theta, sin theta) of a line in R^2."""
    return np.array([[np.cos(theta)], [np.sin(theta)]])


def _signed(frame):
    """``frame`` with each column signed so its entry of largest magnitude
    (the first, on a tie) is positive."""
    lead = frame[np.argmax(np.abs(frame), axis=0), np.arange(frame.shape[1])]
    return frame * np.where(lead < 0, -1.0, 1.0)


def _orthonormalize(mat):
    """The Q factor of a full-rank ``mat`` whose R has a positive diagonal:
    the Gram-Schmidt frame of its columns."""
    q, r = np.linalg.qr(mat)
    return q * np.sign(np.diag(r))


def _coarse_frames(n, m):
    """Deterministic list of candidate frames covering G(n, m): 36 angles
    for n = 2; above the plane, the axis frames and then `_RANDOM_FRAMES`
    `_signed` frames of Gaussian n x m matrices drawn from seed 0."""
    if n == 2:  # m == 1; the angle grid already holds both axes
        return [_line_frame(th) for th in np.pi * np.arange(36) / 36]
    eye = np.eye(n)
    frames = [eye[:, list(combo)] for combo in combinations(range(n), m)]
    rng = np.random.default_rng(0)
    frames += [_signed(np.linalg.qr(rng.normal(size=(n, m)))[0])
               for _ in range(_RANDOM_FRAMES)]
    return frames


def _chart(frame):
    """Coordinates of G(n, m) around ``frame`` for the compass search: the
    point of ``frame`` and the map from a point to its frame.

    For n = 2 the coordinate is the line's angle.  Above the plane it is
    X in R^{(n-m) x m}, raveled, mapped to `_orthonormalize(F + C X)` with F
    the frame and C an orthonormal basis of its complement: the graph chart
    of G(n, m) (Absil, Mahony & Sepulchre 2008, ch. 3), whose m(n - m)
    coordinates are the Grassmannian's dimension and whose origin spans F.
    """
    n, m = frame.shape
    if n == 2:
        return (np.array([np.arctan2(frame[1, 0], frame[0, 0])]),
                lambda x: _line_frame(x[0]))
    perp = np.linalg.qr(frame, mode="complete")[0][:, m:]
    return (np.zeros((n - m) * m),
            lambda x: _orthonormalize(frame + perp @ x.reshape(n - m, m)))


def _principal_frame(measure, m):
    """The top-m eigenvectors of the second moment sum_i w_i x_i x_i^T, as
    an (n, m) frame: the best L^2 m-plane through the origin.

    For n = 2 the axis is the closed-form angle
    theta = atan2(2 S_xy, S_xx - S_yy) / 2; no eigensolver is loaded.  For
    n >= 3 the columns come from `np.linalg.eigh` in descending eigenvalue
    order, `_signed`.
    """
    pts, w = measure.points, measure.weights
    moment = (pts * w[:, None]).T @ pts
    n = moment.shape[0]
    if n == 2:
        theta = 0.5 * np.arctan2(2.0 * moment[0, 1],
                                 moment[0, 0] - moment[1, 1])
        return _line_frame(theta)
    return _signed(np.linalg.eigh(moment)[1][:, ::-1][:, :m])


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


def d_cone_flat(nu, m, s):
    """Distance in [0, 1] from ``nu`` to the m-flat cone at scale ``s``.

    Returns 1 when F_s(nu) = 0 (discrete measures never reach the infinite
    branch of the convention).  Minimizes over planes with the per-plane
    constant fixed by F_s-normalization in closed form.  The principal frame
    (`_principal_frame` of the full-resolution target) is evaluated first,
    at full resolution; a value within ``cone_floor(s, m) / 2`` is returned
    as it is, certified by the bracket [0, value].  Otherwise the
    `_coarse_frames` at half resolution pick the best frame, and
    `_compass_search` refines it in the coordinates of its `_chart` at full
    resolution (the angle for n = 2, the m(n - m) graph coordinates above
    the plane), starting from that frame's full-resolution value (first
    step pi/72, at most 60 further evaluations); the smaller of its result
    and the principal value is returned.  When the coarse stage picks the
    principal frame itself, the principal solve and its holder are the
    search's start.  Each stage warm-starts its transport solves through its
    own holder: a solve starts from the stored basis of the nearest key of
    that stage (ties to the most recent).  Coarse frames are keyed by their
    angle for n = 2, so a solve starts from the previous angle, and above
    the plane by their projector F F^T, which depends on neither basis nor
    sign; the principal frame and the compass search are keyed by chart
    coordinates, so x + h/2 starts from x + h.  ``s`` must be positive and
    finite.
    """
    n = nu.dim
    if not 1 <= m <= n - 1:
        raise ContractError(f"flat dimension m={m} must lie in 1..{n - 1}")
    require_positive_finite("scale s", s)

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
        coords = _plane_grid(m, spacing, s)
        return coords, np.full(coords.shape[0], spacing ** m)

    def plane_distance(frame, key, target, grid_coords, grid_w, warm):
        warm.key = key
        pts = grid_coords @ frame.T
        norm = _flat_mass_norm(pts, grid_w, s)
        if norm <= 0.0:
            return 1.0
        cand = DiscreteMeasure(pts, grid_w / norm, dim=n)
        return f_ball(target, cand, s, warm=warm)

    # The principal frame first, at full resolution and with its own holder.
    # Cone distances are >= 0 and every reported value carries the floor,
    # so a value within half the floor is certified by the bracket [0, U].
    target = normalized_target(nu, step)
    if target is None:
        return 1.0
    coords, base_w = plane_grid(step)
    principal_frame, principal_warm = _principal_frame(target, m), WarmStart()
    principal = plane_distance(principal_frame, _chart(principal_frame)[0],
                               target, coords, base_w, principal_warm)
    if principal <= cone_floor(s, m) / 2:
        return float(np.clip(principal, 0.0, 1.0))

    # Otherwise the coarse stage at half resolution locates the basin;
    # refinement and the reported value use the full grid (whose floor is
    # the quoted one).  Each stage chains its LPs through one warm-start
    # holder: the target is fixed and every candidate atom carries the same
    # weight, so the transport problems of a stage usually share their
    # marginals exactly, and every optimal basis kept is a feasible start
    # for the next.
    coarse_target = normalized_target(nu, 2 * step)
    if coarse_target is None:
        return 1.0
    coarse_coords, coarse_w = plane_grid(2 * step)
    warm = WarmStart()
    best_frame, best_val = None, np.inf
    for frame in _coarse_frames(n, m):
        key = _chart(frame)[0] if n == 2 else (frame @ frame.T).ravel()
        val = plane_distance(frame, key, coarse_target, coarse_coords,
                             coarse_w, warm)
        if val < best_val - 1e-15:
            best_frame, best_val = frame, val

    # A full-resolution holder: no full-resolution problem has the coarse
    # marginals, so the coarse bases are released here.  When the coarse
    # stage picked the principal frame itself, its solve is the compass
    # start, and its holder (that one basis under that frame's key) is the
    # state a fresh solve of it would leave.
    origin, frame_at = _chart(best_frame)
    if np.array_equal(best_frame, principal_frame):
        warm, start = principal_warm, principal
    else:
        warm = WarmStart()
        start = plane_distance(best_frame, origin, target, coords, base_w,
                               warm)

    def objective(x):
        return plane_distance(frame_at(x), x, target, coords, base_w, warm)

    best = _compass_search(objective, origin, start)
    # Never report more than the principal frame already evaluated.
    return float(np.clip(min(principal, best), 0.0, 1.0))


# ---------------------------------------------------------------------------
# Symmetry defect
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

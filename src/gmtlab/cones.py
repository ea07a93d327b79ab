"""Flat measures, distances to the flat cones, and the symmetry defect.

``sample_flat`` discretizes c * H^m restricted to an m-plane through the
origin inside a ball.  ``d_cone_flat`` computes the scale-s distance from a
measure to the cone of m-dimensional flat measures,

    d_s(nu, M_{n,m}) = inf { F_s(nu / F_s(nu), mu) :
                             mu = c H^m|V,  F_s(mu) = 1 },

on nu restricted to B(0, s), the only mass F_s sees.  F_s of a nonnegative
measure is sum_i w_i (s - |x_i|)_+ in closed form, and no frame moves a
candidate's distance to the origin, so the target and one candidate grid
are normalized once per grid step.  The principal frame (the top-m
eigenvectors of the target's second moment, the plane of the L^2
beta-numbers) is tried first.  Its value U bounds the infimum above, and
cone distances are >= 0, so U <= floor/2 (half the discretization floor
below) is certified by the bracket [0, U] and returned.  Otherwise a fixed
coarse set of frames, ranked on a coarser grid (a quarter of the resolution
for lines, half for m >= 2), is followed by a full-resolution compass search
around the best of them in a chart of G(n, m); no coarse value is reported.
The result is the smallest value seen, the principal frame's included, an
upper bound that is not certified.  The solves at one grid step share one
`gmtlab.transport.WarmStart` holder keyed by the projector F F^T of their
frame, so each starts from the basis of the nearest frame solved before it
at that step.  Values are clamped to [0, 1], and 1 is returned when
F_s(nu) = 0.

Every transport solve also leaves a feasible potential, the c-transform of
its duals, whose 1-Lipschitz extension bounds every frame's value at that
step from below by weak duality (Kelley 1960).  A coarse frame or compass
trial whose bound, less a scale-free margin, shows that its value could not
have moved the search is not solved (`d_cone_flat` states the rules).

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

from .errors import (ContractError, require_atom_count,
                     require_positive_finite)
from .lipmetric import SITE_CAP, _merge_duplicates, ball_mask, f_ball
from .measures import DiscreteMeasure, beyond, lambda_pass, within
from .transport import WarmStart, _distances, c_transform

# Candidate-plane grid spacing relative to the scale s, per dimension m of
# the plane; chosen so flat samples stay within the LP site budget.
_GRID_DIV = {1: 80, 2: 8, 3: 4}

# Coarse-level grid step in full-resolution steps, per dimension m of the
# plane (2 when m is not listed).  The coarse values only rank frames.  For
# lines a quarter-resolution grid ranks the 36 angles 5 degrees apart for
# about a quarter of the half-resolution grid's pivots (on the cross, 349
# against 1,538); for m = 2 the coarser grid ranks worse.
_COARSE_STEPS = {1: 4}

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

# A frame is skipped only when its dual lower bound clears the bar by
# _BOUND_MARGIN times s * (total target + candidate mass); see
# `_Level.lower_bound`.
_BOUND_MARGIN = 1e-9

# Largest (anchors, candidates, atoms) array one block of a bound builds.
_BOUND_CELLS = 1 << 17


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
        if not np.abs(gram - np.eye(m)).max() <= 1e-12:  # nan fails too
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

def _flat_mass_norm(points, weights, s):
    """F_s of a nonnegative measure in closed form: sum w_i (s - |x_i|)_+."""
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

    ``fx`` is ``fun(x)``; ``fun(y, bar)`` is the value at y, or inf when
    that value is known to be at least ``bar``.  A sweep tries
    x + step e_1, ..., x + step e_d, then x - step e_1, ..., x - step e_d,
    and moves to the first strict improvement; a sweep without one halves
    the step.  The search stops once the step is below OPTIMIZER_TOL or
    after _SEARCH_EVALS trials; a trial point seen before counts but reuses
    its value instead of calling ``fun``.  Each trial passes the current
    value as its bar, so an inf is a trial that could not improve, now or
    at any later, smaller value.
    """
    moves = np.concatenate([np.eye(x.size), -np.eye(x.size)])
    step, calls, seen = _SEARCH_STEP, 0, {}
    while step >= OPTIMIZER_TOL:
        for move in moves:
            if calls >= _SEARCH_EVALS:
                return fx
            trial = x + step * move
            key = trial.tobytes()
            if key not in seen:
                seen[key] = fun(trial, fx)
            calls += 1
            if seen[key] < fx:
                x, fx = trial, seen[key]
                break
        else:
            step /= 2
    return fx


class _Level:
    """What every solve at one grid step shares, and the potentials its
    solves leave behind.

    ``target`` is the F_s-normalized target, ``coords`` the plane-grid
    coordinates and ``weights`` their masses, normalized once for every
    frame F (|coords @ F^T| = |coords|, so every solve sees the same bits);
    ``warm`` is the level's one `WarmStart`.

    Every solve that reaches the transport simplex leaves an anchor: the
    c-transform f of its duals (`gmtlab.transport.c_transform`) at the
    target atoms x_a, so f_a <= cap_a.  The extension
    f-(y) = max(-cap(y), max_a f_a - |y - x_a|) is 1-Lipschitz, has
    |f-| <= cap (cap is 1-Lipschitz) and f-(x_a) >= f_a, so it is feasible
    in the program of every frame F and, the target being nonnegative, weak
    duality gives the anchor's bound (`lower_bound`)

        F_s(target - candidates(F)) >= sum_a t_a f_a - sum_j w_j f-(y_j(F)).

    This needs no other property of f, so the audit tolerance of the solve
    does not enter.  An atom on or outside the sphere (cap_a = 0) adds
    nothing to either side and is left out.
    """

    def __init__(self, target, coords, weights, s):
        self.target, self.coords, self.weights, self.s = (target, coords,
                                                          weights, s)
        self.warm = WarmStart()
        pts = target.points
        radii = np.sqrt(np.sum(pts * pts, axis=1))
        inner = radii < s
        self.atoms, self.caps = pts[inner], s - radii[inner]
        self.mass = target.weights[inner]
        # -cap(y_j) at every frame's candidates y_j.
        self.floor = np.minimum(np.sqrt(np.sum(coords * coords, axis=1)) - s,
                                0.0)
        self.margin = _BOUND_MARGIN * s * (target.weights.sum()
                                           + weights.sum())
        # Per anchor: f at the atoms and sum_a t_a f_a.
        self.potentials, self.sums = [], []

    def solve(self, frame, bar=np.inf):
        """F_s of the target against the candidates of ``frame``, solved
        from the holder's nearest basis, keyed by the projector F F^T.
        Returns inf without a solve when `lower_bound` shows the value is
        at least ``bar``; every transport solve leaves its anchor.
        """
        cand = self.coords @ frame.T
        if bar < np.inf and self.lower_bound(cand) >= bar:
            return np.inf
        warm = self.warm
        warm.key = (frame @ frame.T).ravel()
        warm.dual = None
        value = f_ball(self.target,
                       DiscreteMeasure(cand, self.weights, dim=cand.shape[1]),
                       self.s, warm=warm)
        if warm.dual is not None:
            f = c_transform(self.atoms, self.caps, warm.dual)
            self.potentials.append(f)
            self.sums.append(float(self.mass @ f))
        return value

    def lower_bound(self, cand):
        """A value that F_s of the target against the candidate atoms
        ``cand`` does not fall below, as its solve computes it: the largest
        anchor bound (see the class doc) less the level's margin; -inf when
        there is no anchor.  The bounds are one array expression per block
        of anchors whose (anchors, candidates, atoms) array stays within
        _BOUND_CELLS.

        The margin, ``_BOUND_MARGIN * s * (total target + candidate mass)``,
        is scale-free: every term of a bound and of the solve's objective is
        at most a few times s * (total mass) in size, and the rounding of
        either sum is many orders of magnitude below 1e-9 of that."""
        reach = _distances(cand, self.atoms)
        block = max(1, _BOUND_CELLS // reach.size)
        best = -np.inf
        for lo in range(0, len(self.potentials), block):
            ext = (np.array(self.potentials[lo:lo + block])[:, None, :]
                   - reach).max(axis=2)
            np.maximum(ext, self.floor, out=ext)
            best = max(best, float((np.array(self.sums[lo:lo + block])
                                    - ext @ self.weights).max()))
        return best - self.margin


def _level(target, m, s, step):
    """The `_Level` of grid step ``step``; None when the target has no F_s
    mass.

    A target of more than ``SITE_CAP // 2`` atoms is first snapped to the
    grid of ``step``, each atom moving by at most step * sqrt(n) / 2; a
    cell's atoms merge as in `gmtlab.lipmetric._merge_duplicates`.  At the
    full-resolution step that move is inside the floor.  The coarse level's
    step is ``_COARSE_STEPS`` full steps, so for lines an atom moves by up to
    2 sqrt(n) full steps, outside the floor; its values only rank frames and
    never reach the output.
    """
    if target.points.shape[0] > SITE_CAP // 2:
        cells, mass = _merge_duplicates(np.round(target.points / step),
                                        target.weights)
        target = DiscreteMeasure(cells * step, mass, dim=target.dim)
    norm = _flat_mass_norm(target.points, target.weights, s)
    if norm <= 0.0:
        # All mass sits within a bin of the sphere; nothing to normalize.
        return None
    coords = _plane_grid(m, step, s)
    weights = np.full(coords.shape[0], step ** m)
    return _Level(DiscreteMeasure(target.points, target.weights / norm,
                                  dim=target.dim),
                  coords, weights / _flat_mass_norm(coords, weights, s), s)


def d_cone_flat(nu, m, s):
    """Distance in [0, 1] from ``nu`` to the m-flat cone at scale ``s``.

    Returns 1 when F_s(nu) = 0 (discrete measures never reach the infinite
    branch of the convention).  ``nu`` is restricted to B(0, s) once, with
    the LP's membership test (`gmtlab.lipmetric.ball_mask`), and `f_ball`
    runs only for plane solves.  The principal frame's full-resolution value
    is returned when it is within ``cone_floor(s, m) / 2``.  Otherwise the
    `_coarse_frames`, solved on the grid of ``_COARSE_STEPS`` full steps
    (4 for lines, 2 above), pick a frame, `_compass_search` refines it in its
    `_chart` at full resolution from that frame's value (the principal value
    when the coarse stage picks the principal frame), and the smaller of its
    result and the principal value is returned; when rebinning at the coarse
    step leaves no mass in the ball, the principal value is.  Each
    `_Level` owns one holder, keyed by the frame's projector F F^T, which
    depends on neither basis nor sign; the coarse one and its bases are
    dropped before the compass starts.

    A frame whose solve cannot change the answer is not solved.  Every
    transport solve leaves an anchor at its level (`_Level.solve`), and
    `_Level.lower_bound` gives a value the frame's solve cannot fall below:
    the best anchor bound less a margin of
    ``_BOUND_MARGIN * s * (total target + candidate mass)``, which covers
    the rounding of the bound and of the solve.  The coarse stage skips a
    frame whose lower bound is at least ``best_val - 1e-15``, its bar for a
    new best, and the compass a trial whose lower bound is at least its
    current value; neither could have moved the search.  So the search
    visits the same frames in the same order, solving a subsequence of
    them, and where every frame ties (a Dirac mass at the origin) nothing
    is skipped.  It returns the value of the search that solves them all,
    up to one effect: a skipped frame leaves no basis in the holder, so a
    later solve may start from another basis and end at another optimal
    one, a few ulps away (as a cold start may); seen only above the plane.
    ``s`` must be positive and finite, with s^(m+1) in the normal float
    range [2^-1022, 2^1023).
    """
    n = nu.dim
    if not 1 <= m <= n - 1:
        raise ContractError(f"flat dimension m={m} must lie in 1..{n - 1}")
    require_positive_finite("scale s", s)
    # A flat candidate's F_s mass is about s^(m+1) and its coordinates reach
    # s, so outside this range the candidate norm underflows to 0 or the
    # squared coordinates overflow.
    if not -1022 <= (m + 1) * np.log2(s) < 1023:
        raise ContractError(f"scale s = {s} at flat dimension m = {m} puts "
                            f"s^{m + 1} out of floating-point range")

    inside = ball_mask(nu.points, s)
    inball = DiscreteMeasure(nu.points[inside], nu.weights[inside], dim=n)
    if _flat_mass_norm(inball.points, inball.weights, s) <= 0.0:
        return 1.0
    step = cone_grid_step(s, m)

    # The principal frame first, at full resolution.  Cone distances are
    # >= 0 and every reported value carries the floor, so a value within
    # half the floor is certified by the bracket [0, U].
    fine = _level(inball, m, s, step)
    if fine is None:
        return 1.0
    principal_frame = _principal_frame(fine.target, m)
    principal = fine.solve(principal_frame)
    if principal <= cone_floor(s, m) / 2:
        return _reported(principal)

    # Otherwise the coarse stage locates the basin; refinement and the
    # reported value use the full grid (whose floor is the quoted one).
    coarse = _level(inball, m, s, _COARSE_STEPS.get(m, 2) * step)
    if coarse is None:
        # Rebinning at the coarse step put all the mass on or outside the
        # sphere: there is no frame to rank, and the principal value stands.
        return _reported(principal)
    best_frame, best_val = None, np.inf
    for frame in _coarse_frames(n, m):
        # A frame whose value could not be a new best is not solved.
        val = coarse.solve(frame, best_val - 1e-15)
        if val < best_val - 1e-15:
            best_frame, best_val = frame, val
    del coarse  # no full-resolution problem has its marginals

    origin, frame_at = _chart(best_frame)
    start = (principal if np.array_equal(best_frame, principal_frame)
             else fine.solve(best_frame))
    best = _compass_search(lambda x, bar: fine.solve(frame_at(x), bar),
                           origin, start)
    # Never report more than the principal frame already evaluated.
    return _reported(min(principal, best))


def _reported(value):
    """A cone distance as `d_cone_flat` reports it: clamped to [0, 1], and
    never -0.0."""
    return float(np.clip(value, 0.0, 1.0)) + 0.0


# ---------------------------------------------------------------------------
# Symmetry defect
# ---------------------------------------------------------------------------

def symmetry_defect(nu, x, r, R, m):
    """Norm of the annulus moment sum_{r <= |x - z| <= R} (x - z)/|x - z|^{m+1}.

    Vanishing for every window characterizes x as a point of symmetry; the
    returned norm quantifies the failure over this window.  A center that
    is not finite, or whose distances to the atoms overflow, is refused.
    """
    if not 0 < r < R:
        raise ContractError(f"need 0 < r < R, got ({r}, {R})")
    u, dist = lambda_pass(nu.points, x)
    # Closed annulus, tie-tolerant at both spheres, so mirror pairs
    # straddling a cut by an ulp stay paired.
    mask = beyond(dist, r) & within(dist, R)
    if not mask.any():
        return 0.0
    kern = -u[mask] / dist[mask, None] ** (m + 1)  # x - z, exactly
    total = (nu.weights[mask, None] * kern).sum(axis=0)
    return float(np.linalg.norm(total))

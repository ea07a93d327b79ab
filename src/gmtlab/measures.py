"""Discrete weighted point measures and the geometric primitives built on them.

A `DiscreteMeasure` is a finite list of points in R^n with nonnegative
weights, standing in for a compactly supported Radon measure.  Everything
else in the package consumes the operations defined here: mass of closed
euclidean/ellipse balls, restriction to a ball or half-space, affine
pushforward, and the anisotropic rescaling

    y  |->  M(a)^{-1} (y - a) / r

driven by a matrix field a |-> M(a).

All objects are immutable values; every operation returns a new measure.
Ball membership is closed with a tie tolerance of ``TIE_TOL`` relative to the
radius so floating-point boundary ties resolve deterministically.  Every
Lambda(a)-distance comes from `lambda_distances`; scans compute it once per
base point and mask it per radius, so their masses equal `mass_in` exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DimensionMismatchError, SingularMatrixError

# Relative tolerance for closed-ball membership: |y - a| <= r * (1 + TIE_TOL).
TIE_TOL = 1e-12

# |det| floor below which an affine map is rejected as singular.
_AFFINE_DET_FLOOR = 1e-12

# |det| floor below which a field matrix is rejected as singular.
_FIELD_DET_FLOOR = 1e-9

# Most field evaluations an EllipseField keeps; the oldest is dropped first.
_FIELD_CACHE_CAP = 4096

# Midpoints per axis of the ball quadrature behind field averages and
# oscillations (`ball_midpoints`).
BALL_GRID = 16


def _as_points(points, dim=None):
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        if dim is None:
            raise ContractError("empty point list needs an explicit dim")
        return np.zeros((0, dim), dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise ContractError(f"points must be a (N, dim) array, got shape {pts.shape}")
    return pts


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


class DiscreteMeasure:
    """Finite weighted point set in R^n.

    Parameters
    ----------
    points : array-like, shape (N, dim)
        Point coordinates.
    weights : array-like, shape (N,)
        Nonnegative masses, one per point.
    dim : int, optional
        Ambient dimension; required when ``points`` is empty.
    """

    __slots__ = ("points", "weights", "dim")

    def __init__(self, points, weights, dim=None):
        pts = _as_points(points, dim)
        w = np.asarray(weights, dtype=float).reshape(-1)
        if dim is not None and pts.shape[1] != dim:
            raise DimensionMismatchError(
                f"points have dimension {pts.shape[1]}, expected {dim}"
            )
        if pts.shape[1] < 1:
            raise ContractError("ambient dimension must be >= 1")
        if w.shape[0] != pts.shape[0]:
            raise ContractError(
                f"{pts.shape[0]} points but {w.shape[0]} weights"
            )
        if not np.all(np.isfinite(pts)):
            raise ContractError("points must be finite")
        if not np.all(np.isfinite(w)):
            raise ContractError("weights must be finite")
        if w.size and w.min() < 0.0:
            raise ContractError("weights must be nonnegative")
        self.points = _freeze(pts)
        self.weights = _freeze(w)
        self.dim = pts.shape[1]

    @classmethod
    def empty(cls, dim):
        """The zero measure in R^dim."""
        return cls(np.zeros((0, dim)), np.zeros(0), dim=dim)

    @classmethod
    def dirac(cls, point, weight=1.0):
        """A single atom ``weight * delta_point``."""
        return cls(np.asarray(point, dtype=float)[None, :], [weight])

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def scaled(self, factor):
        """Measure with all weights multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise ContractError("scaling factor must be nonnegative")
        return DiscreteMeasure(self.points, self.weights * factor, dim=self.dim)

    def __repr__(self):
        return (
            f"DiscreteMeasure(n={self.dim}, points={self.size}, "
            f"mass={self.total_mass:.6g})"
        )


# ---------------------------------------------------------------------------
# Predicate regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Ball:
    """Closed ball: euclidean when ``matrix`` is None, otherwise the ellipse

    ``{ y : |matrix^{-1}(y - center)| <= radius }``.

    The matrix is the anisotropy evaluated at the center, i.e. the ellipse is
    ``center + matrix . B(0, radius)``.
    """

    center: np.ndarray
    radius: float
    matrix: np.ndarray | None = None
    _inv: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(-1)
        object.__setattr__(self, "center", _freeze(c))
        if not self.radius > 0.0:
            raise ContractError(f"ball radius must be positive, got {self.radius}")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (c.size, c.size):
                raise ContractError("ellipse matrix shape must match center")
            det = np.linalg.det(m)
            if abs(det) < _AFFINE_DET_FLOOR:
                raise SingularMatrixError("ellipse matrix is singular")
            object.__setattr__(self, "matrix", _freeze(m))
            object.__setattr__(self, "_inv", _freeze(np.linalg.inv(m)))

    @property
    def dim(self):
        return self.center.size

    def contains(self, points):
        """Boolean mask of points inside the closed ball (tie-tolerant)."""
        dist = lambda_distances(points, self.center, self._inv)[1]
        return dist <= self.radius * (1.0 + TIE_TOL)


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space { y : <normal, y> <= offset }."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(-1)
        if np.linalg.norm(n) == 0.0:
            raise ContractError("half-space normal must be nonzero")
        object.__setattr__(self, "normal", _freeze(n))

    def contains(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.normal <= self.offset


# ---------------------------------------------------------------------------
# Affine maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """Invertible affine map y |-> matrix @ y + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        b = np.asarray(self.offset, dtype=float).reshape(-1)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != b.size:
            raise ContractError("affine map needs square matrix and matching offset")
        if abs(np.linalg.det(m)) < _AFFINE_DET_FLOOR:
            raise SingularMatrixError("affine map has singular linear part")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "offset", _freeze(b))

    @classmethod
    def linear(cls, matrix):
        matrix = np.asarray(matrix, dtype=float)
        return cls(matrix, np.zeros(matrix.shape[0]))

    @classmethod
    def translate_scale(cls, a, r):
        """The rescaling y |-> (y - a) / r about the point ``a``."""
        a = np.asarray(a, dtype=float).reshape(-1)
        if not r > 0.0:
            raise ContractError("scale must be positive")
        return cls(np.eye(a.size) / r, -a / r)

    @property
    def dim(self):
        return self.offset.size

    def apply(self, points):
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T + self.offset


# ---------------------------------------------------------------------------
# Matrix (ellipse) fields
# ---------------------------------------------------------------------------

class EllipseField:
    """A map a |-> M(a) in GL(n, R) defining the ellipses M(a) B(0, r).

    One batch evaluator defines the field.  Every matrix it yields passes
    the shape check and the finite |det| >= ``_FIELD_DET_FLOOR`` check
    (numerics need quantitative nondegeneracy).  `matrix` and `inverse` are
    the cached one-point case of `matrices`, so both paths give equal bits.

    Parameters
    ----------
    evaluator : callable
        Maps a (K, n) array of points to a (K, n, n) array of matrices.
    dim : int
        Ambient dimension n.
    """

    def __init__(self, evaluator, dim):
        if dim < 1:
            raise ContractError("dimension must be >= 1")
        self._evaluator = evaluator
        self.dim = int(dim)
        self._cache = {}

    @classmethod
    def constant(cls, matrix):
        """Field returning the same matrix everywhere."""
        m = np.asarray(matrix, dtype=float)
        return cls(lambda pts: np.broadcast_to(m, (len(pts),) + m.shape),
                   m.shape[0])

    @classmethod
    def identity(cls, dim):
        return cls.constant(np.eye(dim))

    def matrices(self, points):
        """M at each row of a (K, n) array of points, validated; no caching."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"field in R^{self.dim} evaluated at points {pts.shape}")
        # A copy: an evaluator may return a view of its own state.
        out = np.array(self._evaluator(pts), dtype=float)
        if out.shape != (pts.shape[0], self.dim, self.dim):
            raise ContractError(
                f"field evaluator returned shape {out.shape}, expected "
                f"({pts.shape[0]}, {self.dim}, {self.dim})")
        with np.errstate(over="ignore", invalid="ignore"):
            det = np.abs(np.linalg.det(out))
        bad = np.flatnonzero(~((det >= _FIELD_DET_FLOOR) & (det < np.inf)))
        if bad.size:
            raise SingularMatrixError(
                f"field matrix at {pts[bad[0]]} has |det| = {det[bad[0]]:.3g}, "
                f"not in [{_FIELD_DET_FLOOR:.3g}, inf)")
        return out

    def _entry(self, a):
        a = np.asarray(a, dtype=float).reshape(-1)
        key = a.tobytes()
        hit = self._cache.get(key)
        if hit is None:
            m = self.matrices(a[None, :])[0]
            hit = (_freeze(m), _freeze(np.linalg.inv(m)))
            if len(self._cache) >= _FIELD_CACHE_CAP:
                del self._cache[next(iter(self._cache))]
            self._cache[key] = hit
        return hit

    def matrix(self, a):
        """M(a): the one-point case of `matrices`, cached."""
        return self._entry(a)[0]

    def inverse(self, a):
        """Cached M(a)^{-1}."""
        return self._entry(a)[1]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def lambda_distances(points, center, inv=None):
    """Rows u = inv (y - center) for the rows y of ``points`` (u = y - center
    when ``inv`` is None) and their norms |u|: the one place the package
    computes a Lambda(a)-distance.  Scans compute it once per base point."""
    u = np.asarray(points, dtype=float) - center
    if inv is not None:
        u = u @ inv.T
    return u, np.sqrt(np.sum(u * u, axis=-1))


def mass_in(mu, ball):
    """Total mass of ``mu`` inside a closed (euclidean or ellipse) ball."""
    return ball_masses(mu, ball, [ball.radius])[0]


def ball_masses(mu, ball, radii):
    """Masses of ``mu`` in the closed balls with the center and matrix of
    ``ball`` and each radius in ``radii``, from one distance pass; entry i
    equals `mass_in` of the ball of radius ``radii[i]`` bit for bit."""
    if ball.dim != mu.dim:
        raise DimensionMismatchError(
            f"ball in R^{ball.dim} but measure in R^{mu.dim}"
        )
    dist = lambda_distances(mu.points, ball.center, ball._inv)[1]
    return [float(mu.weights[dist <= r * (1.0 + TIE_TOL)].sum())
            for r in radii]


def restrict(mu, region):
    """Restriction of ``mu`` to a predicate region (mass non-increasing)."""
    keep = np.asarray(region.contains(mu.points), dtype=bool)
    return DiscreteMeasure(mu.points[keep], mu.weights[keep], dim=mu.dim)


def pushforward(mu, amap):
    """Image measure under an invertible affine map: points move, mass stays."""
    if amap.dim != mu.dim:
        raise DimensionMismatchError(
            f"map in R^{amap.dim} but measure in R^{mu.dim}"
        )
    return DiscreteMeasure(amap.apply(mu.points), mu.weights, dim=mu.dim)


def lambda_rescale(mu, a, r, field):
    """Anisotropic rescaling y |-> M(a)^{-1}((y - a)/r) as an image measure.

    Implemented as the exact factorization: linear pushforward by M(a)^{-1}
    followed by the plain rescaling about M(a)^{-1} a, so the two routes
    agree point-by-point.  Satisfies

        lambda_rescale(mu, a, r, field)  of  B(0, 1)
            ==  mass of mu in the ellipse  a + M(a) B(0, r).
    """
    if not r > 0.0:
        raise ContractError("rescaling radius must be positive")
    a = np.asarray(a, dtype=float).reshape(-1)
    if a.size != mu.dim:
        raise DimensionMismatchError("center dimension mismatch")
    inv = field.inverse(a)
    linear = pushforward(mu, AffineMap.linear(inv))
    return pushforward(linear, AffineMap.translate_scale(inv @ a, r))


def ellipse_ball(a, r, field):
    """The closed ellipse a + M(a) B(0, r) as a `Ball`."""
    a = np.asarray(a, dtype=float).reshape(-1)
    return Ball(a, r, matrix=field.matrix(a))


def ball_midpoints(centers, r, k):
    """Nodes of the midpoint ball quadrature on B(c, r) for every row c of
    the (P, n) array ``centers``: the midpoints of the k^n grid on the cube
    around each ball that lie in it, from one offsets grid and one distance
    pass.  Returns the (M, n) nodes, center after center, and the (P,) node
    count of each center; each center's nodes are those it would get alone.
    """
    offsets = (np.arange(k) + 0.5) / k * (2 * r) - r
    grids = np.meshgrid(*([offsets] * centers.shape[1]), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1) + centers[:, None, :]
    inside = lambda_distances(pts, centers[:, None, :])[1] <= r
    return pts[inside], inside.sum(axis=1)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

def save_measure_csv(mu, path, header_comment=None):
    """Write ``mu`` as CSV with header x1,...,xn,w (17 significant digits).

    An optional ``# ...`` comment line (e.g. a config hash) precedes the
    header; the loader skips comments.
    """
    with open(path, "w", newline="") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(mu.dim)] + ["w"])
        for p, w in zip(mu.points, mu.weights):
            writer.writerow([f"{v:.17g}" for v in p] + [f"{w:.17g}"])


def load_measure_csv(path, dim=None):
    """Read a measure written by `save_measure_csv`.

    Leading ``#`` comment lines are skipped; when ``dim`` is given the
    column count is validated against it.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        while header and header[0].startswith("#"):
            header = next(reader, None)
        if not header or header[-1] != "w":
            raise ContractError(f"{path}: expected header x1,...,xn,w")
        ncols = len(header)
        if dim is not None and ncols != dim + 1:
            raise ContractError(
                f"{path}: {ncols - 1} coordinate columns, expected {dim}"
            )
        pts, ws = [], []
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            if len(row) != ncols:
                raise ContractError(f"{path}: ragged row {row!r}")
            vals = [float(v) for v in row]
            pts.append(vals[:-1])
            ws.append(vals[-1])
    return DiscreteMeasure(np.array(pts).reshape(len(ws), ncols - 1), ws,
                           dim=ncols - 1)

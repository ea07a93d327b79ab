"""Discrete weighted point measures and the geometric primitives built on them.

A `DiscreteMeasure` is a finite list of points in R^n with nonnegative
weights, standing in for a compactly supported Radon measure.  Everything
else in the package consumes the operations defined here: mass of closed
euclidean/ellipse balls, restriction to a ball or half-space, affine
pushforward, and the anisotropic rescaling

    y  |->  M(a)^{-1} (y - a) / r

driven by a matrix field a |-> M(a).

All objects are immutable values; every operation returns a new measure.
One membership rule decides which atoms of a distance pass a ball, window or
annulus holds: `within` (the closed ball) and `beyond` (the inner edge of a
window or annulus), both with a tie tolerance of ``TIE_TOL`` relative to the
radius so floating-point boundary ties resolve deterministically.  Every
Lambda(a)-distance comes from `lambda_distances`; scans take it once per
base point through `lambda_pass` and mask it per radius, so their masses
equal `mass_in` exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, DimensionMismatchError,
                     SingularMatrixError, require_atom_count, require_finite,
                     require_finite_distances, require_positive_finite)

# Relative tolerance of `within` and `beyond`: |y - a| <= r * (1 + TIE_TOL)
# and |y - a| >= r * (1 - TIE_TOL).
TIE_TOL = 1e-12

# Relative |det| floor below which an affine map or an ellipse matrix is
# rejected as singular (see `_require_invertible`).
_AFFINE_DET_FLOOR = 1e-12

# |det| floor below which a field matrix is rejected as singular.
_FIELD_DET_FLOOR = 1e-9

# Midpoints per axis of the ball quadrature behind field averages and
# oscillations (`ball_means`).
BALL_GRID = 16


def _as_points(points, dim=None):
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        if dim is None:
            raise ContractError("empty point list needs an explicit dim")
        return np.zeros((0, dim), dtype=float)
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
        require_finite(points=pts, weights=w)
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

    def __repr__(self):
        return (
            f"DiscreteMeasure(n={self.dim}, points={self.size}, "
            f"mass={self.total_mass:.6g})"
        )


def _require_invertible(matrix, message):
    """Refuse a square ``matrix`` with a non-finite entry, a zero column, or
    |det| below ``_AFFINE_DET_FLOOR`` times the product of its column norms.
    That product bounds |det| (Hadamard); the ratio is taken as the |det| of
    the column-normalized matrix, so it is 1 for a scaled orthogonal matrix
    and 0 for a singular one at any scale, with no over- or underflow."""
    norms = np.hypot.reduce(matrix, axis=0)  # column norms, no overflow
    if not (np.isfinite(norms).all() and norms.all()
            and abs(np.linalg.det(matrix / norms)) >= _AFFINE_DET_FLOOR):
        raise SingularMatrixError(message)


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
    _inv = None  # matrix^{-1}, set by __post_init__ only; None if euclidean

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float).reshape(-1)
        object.__setattr__(self, "center", _freeze(c))
        require_positive_finite("ball radius", self.radius)
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (c.size, c.size):
                raise ContractError("ellipse matrix shape must match center")
            _require_invertible(m, "ellipse matrix is singular")
            inv = np.linalg.inv(m)
            if not np.isfinite(inv).all():
                raise SingularMatrixError("ellipse matrix is singular")
            object.__setattr__(self, "matrix", _freeze(m))
            object.__setattr__(self, "_inv", _freeze(inv))

    @property
    def dim(self):
        return self.center.size

    def contains(self, points):
        """Boolean mask of points inside the closed ball (tie-tolerant); a
        point whose distance overflows is outside."""
        with np.errstate(over="ignore", invalid="ignore"):
            dist = lambda_distances(points, self.center, self._inv)[1]
        return within(dist, self.radius)


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space { y : <normal, y> <= offset }."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(-1)
        require_finite(normal=n, offset=self.offset)
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
        _require_invertible(m, "affine map has singular linear part")
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "offset", _freeze(b))

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
    the one-point case of `matrices`, so both paths give equal bits; the
    field remembers the last point asked for, as a scan reads one base point
    at a time.

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
        self._last = (None, None, None)  # key bytes, M(a), M(a)^{-1}

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
        if key != self._last[0]:
            m = self.matrices(a[None, :])[0]
            self._last = (key, _freeze(m), _freeze(np.linalg.inv(m)))
        return self._last

    def matrix(self, a):
        """M(a): the one-point case of `matrices`."""
        return self._entry(a)[1]

    def inverse(self, a):
        """M(a)^{-1}."""
        return self._entry(a)[2]


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def lambda_distances(points, center, inv=None):
    """Rows u = inv (y - center) for the rows y of ``points`` (u = y - center
    when ``inv`` is None) and their norms |u|: the one place the package
    computes a Lambda(a)-distance.  Scans compute it once per base point.

    For n <= 7 the squares are added column by column, in coordinate order:
    the bits of ``np.sum(u * u, axis=-1)``, which adds fewer than 8 terms in
    sequence, without its per-row reduction cost.  For n >= 8 numpy sums
    pairwise, so ``np.sum`` stays."""
    u = np.asarray(points, dtype=float) - center
    if inv is not None:
        u = u @ inv.T
    sq = u * u
    if u.shape[-1] >= 8:
        return u, np.sqrt(np.sum(sq, axis=-1))
    total = sq[..., 0]
    for k in range(1, u.shape[-1]):
        total = total + sq[..., k]
    return u, np.sqrt(total)


def lambda_pass(points, center, inv=None):
    """The Lambda(a)-distance pass of the (N, n) ``points`` about ``center``:
    the rows u = inv (y - center) and their norms, from `lambda_distances`.
    A center of the wrong dimension, one that is not finite, or one whose
    distances overflow is refused here, once per base point."""
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.size != points.shape[1]:
        raise DimensionMismatchError(
            f"center in R^{center.size} but measure in R^{points.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        u, dist = lambda_distances(points, center, inv)
    require_finite_distances(dist, center)
    return u, dist


def within(dist, r):
    """Rows of a distance pass in the closed ball of radius ``r``."""
    return dist <= r * (1.0 + TIE_TOL)


def beyond(dist, r):
    """Rows of a distance pass on or outside the sphere of radius ``r``, the
    inner edge of a window or annulus; ``~beyond(dist, R)`` is the inside of
    an open outer edge R.  An atom in the tie band of a sphere is both
    `within` and `beyond` it."""
    return dist >= r * (1.0 - TIE_TOL)


def mass_in(mu, ball):
    """Total mass of ``mu`` inside a closed (euclidean or ellipse) ball."""
    dist = lambda_pass(mu.points, ball.center, ball._inv)[1]
    return ball_masses(mu.weights, dist, [ball.radius])[0]


def ball_masses(weights, dist, radii):
    """Masses of the closed balls of each radius in ``radii`` about the
    center of one distance pass ``dist`` (`lambda_pass`); entry i equals
    `mass_in` of the ball of radius ``radii[i]`` bit for bit."""
    return [float(weights[within(dist, r)].sum()) for r in radii]


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
    """Anisotropic rescaling y |-> M(a)^{-1}(y - a) / r as an image measure:
    the rows u of the Lambda(a)-distance pass divided by r, the bits of a
    blowup rung's points.  Satisfies

        lambda_rescale(mu, a, r, field)  of  B(0, 1)
            ==  mass of mu in the ellipse  a + M(a) B(0, r).
    """
    require_positive_finite("rescaling radius", r)
    u = lambda_pass(mu.points, a, field.inverse(a))[0]
    return DiscreteMeasure(u / r, mu.weights, dim=mu.dim)


def ellipse_ball(a, r, field):
    """The closed ellipse a + M(a) B(0, r) as a `Ball`."""
    a = np.asarray(a, dtype=float).reshape(-1)
    return Ball(a, r, matrix=field.matrix(a))


def ball_means(field, centers, r, grid=BALL_GRID):
    """Midpoint ball quadrature of ``field`` on B(c, r) for every row c of
    the (P, n) array ``centers``: yields, center after center, the matrices
    at the midpoints of the grid^n grid on the cube around the ball that lie
    in it, and their mean (the matrix itself when all of them are equal, as
    the mean of N copies of one matrix need not be that matrix).

    The nodes of a batch of centers, at most ``BALL_GRID ** 4`` grid points,
    come from one distance pass and go to the field in one call; each
    center's matrices are its own contiguous slice of the result, so they
    have the bits of a quadrature of that center alone.  A ball left without
    nodes (non-finite center, overflow) is refused, and so is a grid^n grid
    above the sample cap (`require_atom_count`), before it is allocated.
    """
    n = centers.shape[1]
    batch = max(1, BALL_GRID ** 4 // require_atom_count(
        grid ** n, f"per-ball grid of {grid}^n points in dimension n = {n}"))
    index = np.indices((grid,) * n).reshape(n, -1).T
    for k in range(0, len(centers), batch):
        ball = centers[k:k + batch, None, :]
        with np.errstate(over="ignore", invalid="ignore"):
            pts = ((np.arange(grid) + 0.5) / grid * (2 * r) - r)[index] + ball
            inside = lambda_distances(pts, ball)[1] <= r
        if not inside.any(axis=1).all():
            raise ContractError(f"radius {r} leaves a probe ball without "
                                f"quadrature nodes")
        mats = field.matrices(pts[inside])
        for block in np.split(mats, np.cumsum(inside.sum(axis=1))[:-1]):
            yield block, (block[0] if (block == block[0]).all()
                          else block.mean(axis=0))


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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"x{i + 1}" for i in range(mu.dim)] + ["w"])
        for p, w in zip(mu.points, mu.weights):
            writer.writerow([f"{v:.17g}" for v in p] + [f"{w:.17g}"])


def load_measure_csv(path, dim=None):
    """Read a measure written by `save_measure_csv`.

    Leading ``#`` comment lines are skipped; when ``dim`` is given the
    column count is validated against it.  A file that is not UTF-8 text,
    a row the CSV reader refuses and a cell that is not a number are refused
    by path, and a cell also by row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
                try:
                    vals = [float(v) for v in row]
                except ValueError as exc:
                    raise ContractError(
                        f"{path}: row {reader.line_num}: {exc}") from None
                pts.append(vals[:-1])
                ws.append(vals[-1])
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ContractError(f"{path}: {exc}") from None
    return DiscreteMeasure(np.array(pts).reshape(len(ws), ncols - 1), ws,
                           dim=ncols - 1)

"""Anisotropic Riesz-type kernels, truncated principal values, and the
constant-coefficient elliptic kernels with their factorization identities.

Three kernel flavors act on pairs (x, y), all singular at y = x:

* ``riesz``:    M(x)^{-1}(y-x) / |M(x)^{-1}(y-x)|^{m+1} for an anisotropy
                field M, the codimension-m transform driving the
                rectifiability diagnostics;
* ``theta``:    the gradient of the constant-coefficient fundamental solution
                A^{-1}(y-x) / (det(A)^{1/2} <A^{-1}(y-x), y-x>^{n/2}), with
                the dimensional normalizing constant fixed to 1 (every
                identity checked here is stated so it cancels);
* ``finsler``:  A^{-1}(y-x) / <A^{-1}(y-x), y-x>^{(m+1)/2}, the kernel of the
                Finsler p-Laplacian layer potential, equal to L^{-1} applied
                to the riesz kernel of the square root L of A.

Truncated sums integrate a kernel against a discrete measure over the
ellipse window eps <= |L(x)^{-1}(y-x)| < R.  The convergence scan
masks one pass of kernel rows and window distances per eps, as `truncated_pv`
does, and classifies the ladder as converged / oscillating / diverging.
``frozen_discrepancy``, the engine of the variable-coefficient comparison,
measures how far the theta kernel frozen at a ball average drifts from the
one frozen at the center; theta is homogeneous, so unit directions suffice.

Summation order: each window sum adds its weighted kernel terms in atom
order, one after another from +0.0; the terms are stored as contiguous
(dim, N) rows, so a window is one column gather and one running sum.  Any
reordering (by distance, by prefix sums) moves the last bits of the
printed principal values.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, DimensionMismatchError,
                     ResolutionGuardError, require_finite,
                     require_nonnegative_finite, require_positive_finite)
from .measures import (EllipseField, ball_means, beyond, lambda_distances,
                       lambda_pass)
from .reports import ScanReport

_SQRT_RESIDUAL_TOL = 1e-10

# Convergence-scan thresholds.
PV_CONVERGED_REL = 1e-2
PV_DIVERGING_RATIO = 1.2


def spd_sqrt(matrix):
    """Unique symmetric positive-definite square root, via eigendecomposition."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError("matrix must be square")
    require_finite(matrix=a)
    if np.abs(a - a.T).max() > 1e-10 * (1 + np.abs(a).max()):
        raise ContractError("matrix must be symmetric")
    evals, evecs = np.linalg.eigh(a)
    if evals.min() <= 0:
        raise ContractError("matrix must be positive definite")
    root = (evecs * np.sqrt(evals)) @ evecs.T
    if np.abs(root @ root - a).max() > _SQRT_RESIDUAL_TOL * (1 + np.abs(a).max()):
        raise ContractError("square-root residual above tolerance")
    return root


@dataclass(frozen=True)
class KernelSpec:
    """Kernel flavor plus its anisotropy data.

    ``riesz`` uses the matrix field and codimension m; ``theta`` uses the SPD
    matrix (m ignored, the exponent is n/2); ``finsler`` uses the SPD matrix
    and m.  For theta/finsler the inverse SPD square root is computed once and
    reused for the ellipse truncation window.
    """

    flavor: str
    dim: int
    m: int | None = None
    anisotropy: EllipseField | None = None
    matrix: np.ndarray | None = None
    _sqrt_inv = _inv = _det_root = None  # theta/finsler: set by __post_init__

    def __post_init__(self):
        if self.flavor not in ("riesz", "theta", "finsler"):
            raise ContractError(f"unknown kernel flavor {self.flavor!r}")
        n = self.dim
        if self.flavor in ("riesz", "finsler"):
            if self.m is None or not 1 <= self.m <= n - 1:
                raise ContractError(
                    f"codimension parameter m must lie in 1..{n - 1}"
                )
        if self.flavor == "riesz":
            if self.anisotropy is None or self.anisotropy.dim != n:
                raise ContractError("riesz flavor needs an anisotropy field")
        else:
            if self.matrix is None:
                raise ContractError(f"{self.flavor} flavor needs an SPD matrix")
            a = np.asarray(self.matrix, dtype=float)
            if a.shape != (n, n):
                raise ContractError("matrix shape must match dim")
            object.__setattr__(self, "matrix", a)
            object.__setattr__(self, "_sqrt_inv", np.linalg.inv(spd_sqrt(a)))
            object.__setattr__(self, "_inv", np.linalg.inv(a))
            object.__setattr__(self, "_det_root",
                               float(np.sqrt(np.linalg.det(a))))


def riesz_kernel(anisotropy, m):
    return KernelSpec("riesz", anisotropy.dim, m=m, anisotropy=anisotropy)


def theta_kernel(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return KernelSpec("theta", matrix.shape[0], matrix=matrix)


def finsler_kernel(matrix, m):
    matrix = np.asarray(matrix, dtype=float)
    return KernelSpec("finsler", matrix.shape[0], matrix=matrix, m=m)


def _kernel_rows(spec, x, targets):
    """Kernel vectors K(x, y) for all rows y of ``targets``, vectorized.

    Returns (values, window_radii): the truncation variable is the
    Lambda-distance |L^{-1}(y - x)| of `lambda_pass`, which refuses a base
    point that is not finite or whose distances overflow, with L the
    anisotropy at x (riesz) or the SPD square root (theta/finsler).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if spec.flavor == "riesz":
        w, t = lambda_pass(targets, x, spec.anisotropy.inverse(x))
    else:
        t = lambda_pass(targets, x, spec._sqrt_inv)[1]
        w = lambda_distances(targets, x, spec._inv)[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = (spec._det_root * t ** spec.dim if spec.flavor == "theta"
                 else t ** (spec.m + 1))
        return w / denom[:, None], t


def kernel_eval(spec, x, y):
    """Kernel vector at a single pair; raises at the singularity y = x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != spec.dim or y.size != spec.dim:
        raise DimensionMismatchError("kernel arguments dimension mismatch")
    if np.array_equal(x, y):
        raise ContractError("kernel is singular at y = x")
    vals, _ = _kernel_rows(spec, x, y[None, :])
    return vals[0]


def _window_sums(spec, mu, x, eps_list, R):
    """Truncated sums for every eps in ``eps_list`` from one kernel-row pass:
    the weighted terms are computed once and each window's columns summed in
    atom order from +0.0, the bits of a row-by-row
    ``(w[k, None] * vals[k]).sum(axis=0)`` (a window of -0.0 terms gives
    +0.0)."""
    outer = np.inf if R is None else float(R)
    for eps in eps_list:
        if not 0 < eps < outer:
            raise ContractError(f"need 0 < eps < R, got ({eps}, {outer})")
    if mu.dim != spec.dim:
        raise DimensionMismatchError("measure dimension mismatch")
    vals, t = _kernel_rows(spec, x, mu.points)
    # An atom at or next to x has a non-finite kernel value, and a zero
    # weight times an infinite one is nan; no window reads its term.
    with np.errstate(invalid="ignore", over="ignore"):
        terms = np.ascontiguousarray((mu.weights[:, None] * vals).T)
    # Tie-tolerant half-open window [eps, R): mirror-symmetric samples whose
    # float distances straddle a cut by an ulp must land on the same side, or
    # odd-kernel cancellation breaks at the boundary spheres.
    inner = ~beyond(t, outer)
    sums = []
    for eps in eps_list:
        part = np.compress(beyond(t, eps) & inner, terms, axis=1)
        sums.append(np.add.accumulate(part, axis=1)[:, -1] + 0.0
                    if part.shape[1] else np.zeros(spec.dim))
    return sums


def truncated_pv(spec, mu, x, eps, R=None):
    """Weighted kernel sum over the ellipse window eps <= |L^{-1}(y - x)| < R.

    Atoms at x itself are excluded by the truncation.
    """
    return _window_sums(spec, mu, x, [eps], R)[0]


def pv_convergence_scan(spec, mu, x, eps_ladder, spacing, R=None):
    """Cauchy-criterion diagnosis of the truncated sums along an eps-ladder.

    The ladder must be strictly decreasing with ratio 2, hold at least four
    rungs, and stay at or above 5 * spacing (the resolution guard; below it
    discretization noise swamps the thresholds).  The spacing must be
    nonnegative and finite.

    Verdicts: ``converged`` when the last three successive differences are
    each below 1e-2 * (1 + |last value|); ``diverging`` when the norms grow
    monotonically with per-rung ratio >= 1.2; ``oscillating`` otherwise.
    """
    require_nonnegative_finite("spacing", spacing)
    ladder = [float(e) for e in eps_ladder]
    if len(ladder) < 4:
        raise ContractError("eps ladder needs at least 4 rungs")
    for prev, nxt in zip(ladder, ladder[1:]):
        if not nxt < prev:
            raise ContractError("eps ladder must be strictly decreasing")
        if abs(nxt / prev - 0.5) > 1e-9:
            raise ContractError("eps ladder must halve at each rung")
    if ladder[-1] < 5.0 * spacing:
        raise ResolutionGuardError(
            f"bottom rung {ladder[-1]} below 5 * spacing = {5 * spacing}"
        )

    values = np.array(_window_sums(spec, mu, x, ladder, R))
    diffs = np.linalg.norm(np.diff(values, axis=0), axis=1)
    norms = np.linalg.norm(values, axis=1)

    last = norms[-1]
    tol = PV_CONVERGED_REL * (1.0 + last)
    if np.all(diffs[-3:] <= tol):
        verdict = "converged"
    else:
        growing = np.all(np.diff(norms) > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = norms[1:] / norms[:-1]
        if growing and np.all(ratios >= PV_DIVERGING_RATIO):
            verdict = "diverging"
        else:
            verdict = "oscillating"

    columns = {"eps": ladder}
    for k in range(spec.dim):
        columns[f"v{k + 1}"] = values[:, k].tolist()
    columns["successive_diff"] = [np.nan] + diffs.tolist()
    meta = {"max_diff": float(diffs.max()), "norms": norms.tolist()}
    if verdict == "converged":
        meta["limit"] = values[-1].tolist()
        meta["limit_norm"] = float(last)
    return ScanReport(columns=columns, verdict=verdict, meta=meta)


def layer_potential_identity_residual(A, mu, x, eps):
    """Residual of the exact layer-potential factorization at fixed truncation.

    With L the SPD square root of A,

        L^{-1} . (riesz sum, m = n-1)  ==  det(A)^{1/2} . (theta sum)

    over the same eps-ellipse window; the residual is float noise (<= 1e-10).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    root = spd_sqrt(A)
    field = EllipseField.constant(root)
    riesz_sum = truncated_pv(riesz_kernel(field, n - 1), mu, x, eps)
    theta_sum = truncated_pv(theta_kernel(A), mu, x, eps)
    lhs = np.linalg.inv(root) @ riesz_sum
    rhs = float(np.sqrt(np.linalg.det(A))) * theta_sum
    return float(np.linalg.norm(lhs - rhs))


# ---------------------------------------------------------------------------
# Frozen-coefficient discrepancy
# ---------------------------------------------------------------------------

def ball_average(field, center, r):
    """Midpoint-grid average of a matrix field over the ball B(center, r),
    the mean of `ball_means` on `BALL_GRID` midpoints per axis.  Supported
    for dim <= 3.
    """
    center = np.asarray(center, dtype=float).reshape(-1)
    if center.size > 3:
        raise ContractError("ball averages implemented for dim <= 3 only")
    return next(ball_means(field, center[None, :], r))[1]


@functools.cache
def _directions(n):
    """96 unit directions, read-only and built once per n: equal angles for
    n = 2, a Fibonacci sphere for n = 3; any other n is refused by name."""
    k = np.arange(96)
    if n == 2:
        th = k * (2 * np.pi / 96)
        dirs = np.column_stack([np.cos(th), np.sin(th)])
    elif n == 3:
        z = -1.0 + 2.0 * (k + 0.5) / 96
        phi = k * np.pi * (3.0 - np.sqrt(5.0))
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        dirs = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    else:
        raise ContractError(f"frozen discrepancy needs dim 2 or 3, got {n}")
    dirs.flags.writeable = False
    return dirs


def _theta_rows(stack, dirs):
    """theta_M(g) = M^{-1} g / (det(M)^{1/2} <M^{-1} g, g>^{n/2}) for each M
    of the (k, n, n) SPD ``stack`` and each row g of ``dirs``: (k, D, n)."""
    w = dirs @ np.linalg.inv(stack).transpose(0, 2, 1)
    q = np.sum(w * dirs, axis=2) ** (0.5 * dirs.shape[1])
    return w / (np.sqrt(np.linalg.det(stack))[:, None] * q)[:, :, None]


def frozen_discrepancy(field, a, r):
    """Sup over y != a of the scale-normalized frozen-kernel drift

        | theta(y - a; avg of A over B(a, 1.5 r)) - theta(y - a; A(a)) |
            * |y - a|^{n-1}

    (theta as in `theta_kernel`, n = 2 or 3).  theta is homogeneous of
    degree 1 - n, so the drift is constant along each ray from a: the sup is
    taken over the 96 unit directions of `_directions`, and r enters only
    through the ball average.  Zero for constant fields; decreasing in r
    wherever the field is continuous at ``a`` (trend check only).
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    n = a.size
    if field.dim != n:
        raise DimensionMismatchError("field/center dimension mismatch")
    require_positive_finite("radius", r)
    dirs = _directions(n)

    avg = ball_average(field, a, 1.5 * r)
    avg = 0.5 * (avg + avg.T)
    local = np.asarray(field.matrix(a), dtype=float)
    stack = np.stack([avg, local])
    low = np.linalg.eigvalsh(stack).min(axis=1)
    if low[0] <= 0:
        raise ContractError("ball average of the field is not SPD")
    if low[1] <= 0 or not np.array_equal(local, local.T):
        spd_sqrt(local)  # its refusals: asymmetric beyond 1e-10, not PD
    theta = _theta_rows(stack, dirs)
    return float(np.sqrt(np.sum((theta[0] - theta[1]) ** 2, axis=1)).max())

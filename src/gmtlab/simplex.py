"""Dense primal simplex for box-bounded linear programs.

Solves

    max  c . x   subject to   A x <= b,   lo <= x <= hi,

for instances whose all-lower-bound point is feasible (``A @ lo <= b``), which
holds structurally for every Lipschitz-potential program in this package:
pair constraints have right-hand side |x_i - x_j| and the boundary caps are
1-Lipschitz, so starting every variable at its lower bound never violates a
pair row.  No phase-1 is needed.

The tableau is kept dense; entering variables are chosen by largest reduced
cost with a deterministic lowest-index tie-break, switching to Bland's rule
after a run of degenerate pivots so cycling is impossible.  All comparisons
have fixed order, so results are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SolverError

# Reduced-cost threshold: smaller gains are treated as optimal.
_TOL_COST = 1e-9
# Pivot element / ratio-test threshold.
_TOL_PIVOT = 1e-10
# Consecutive degenerate pivots before switching to Bland's rule.
_DEGENERATE_SWITCH = 40


class SimplexError(ContractError):
    """Instance outside the supported family (infeasible start, unbounded).

    Numerical failures on a supported instance (the iteration limit, a
    drifted final point) raise `gmtlab.errors.SolverError` instead.
    """


@dataclass
class SimplexResult:
    value: float
    x: np.ndarray
    iterations: int


def simplex_max_bounded(A, b, c, lo, hi, max_iter=None):
    """Maximize ``c . x`` over ``A x <= b``, ``lo <= x <= hi``.

    ``A`` may have zero rows (pure bound optimization).  Upper bounds may be
    ``+inf``; lower bounds must be finite.  Requires ``A @ lo <= b``.
    """
    A = np.asarray(A, dtype=float).reshape(-1, len(lo)) if np.size(A) else \
        np.zeros((0, len(lo)))
    b = np.asarray(b, dtype=float).reshape(-1)
    c = np.asarray(c, dtype=float).reshape(-1)
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    m, n = A.shape
    if b.shape[0] != m or c.shape[0] != n or hi.shape[0] != n:
        raise ContractError("inconsistent LP shapes")
    if not np.all(np.isfinite(lo)):
        raise ContractError("lower bounds must be finite")
    if np.any(hi < lo):
        raise ContractError("needs lo <= hi")

    if m == 0:
        x = np.where(c > 0, hi, lo)
        if not np.all(np.isfinite(x)):
            raise SimplexError("unbounded: positive cost on an unbounded variable")
        return SimplexResult(float(c @ x), x, 0)

    slack0 = b - A @ lo
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    if slack0.min() < -1e-9 * scale:
        raise SimplexError("all-lower-bound start is infeasible for this instance")
    slack0 = np.maximum(slack0, 0.0)

    ntot = n + m
    # Columns [0, n) structural, [n, n+m) slack.
    T = np.hstack([A, np.eye(m)])
    cost = np.concatenate([c, np.zeros(m)])
    lo_full = np.concatenate([lo, np.zeros(m)])
    hi_full = np.concatenate([hi, np.full(m, np.inf)])
    span = hi_full - lo_full

    basis = np.arange(n, ntot)
    # Nonbasic status: -1 at lower bound, +1 at upper bound, 0 basic.
    status = np.full(ntot, -1, dtype=np.int8)
    status[basis] = 0
    xB = slack0.copy()

    if max_iter is None:
        max_iter = 200 * (m + n) + 2000

    degenerate_run = 0
    it = 0
    while True:
        it += 1
        if it > max_iter:
            raise SolverError(f"simplex exceeded {max_iter} iterations")

        y = cost[basis] @ T
        z = cost - y
        at_lower = status == -1
        at_upper = status == 1
        gain = np.where(at_lower, z, np.where(at_upper, -z, -np.inf))
        gain[span <= 0.0] = -np.inf

        if degenerate_run >= _DEGENERATE_SWITCH:
            eligible = np.flatnonzero(gain > _TOL_COST)
            if eligible.size == 0:
                break
            j = int(eligible[0])  # Bland: lowest index
        else:
            j = int(np.argmax(gain))
            if gain[j] <= _TOL_COST:
                break

        sigma = 1.0 if status[j] == -1 else -1.0
        d = T[:, j]
        rate = sigma * d

        # Basic variable i hits a bound at step (xB - bound) / rate.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = np.where(rate > _TOL_PIVOT,
                            (xB - lo_full[basis]) / rate, np.inf)
            t_hi = np.where(rate < -_TOL_PIVOT,
                            (xB - hi_full[basis]) / rate, np.inf)
        t_rows = np.minimum(t_lo, t_hi)
        t_rows = np.maximum(t_rows, 0.0)
        r = int(np.argmin(t_rows))
        t_star = float(t_rows[r])
        t_flip = float(span[j])

        if t_flip <= t_star:
            if not np.isfinite(t_flip):
                raise SimplexError("unbounded direction in bounded-variable simplex")
            # Bound flip: the entering variable crosses to its other bound.
            xB = xB - rate * t_flip
            status[j] = -status[j]
            degenerate_run = degenerate_run + 1 if t_flip <= _TOL_PIVOT else 0
            continue

        if not np.isfinite(t_star):
            raise SimplexError("unbounded direction in bounded-variable simplex")

        # Deterministic leaving choice among near-ties: most stable pivot.
        ties = np.flatnonzero(t_rows <= t_star + _TOL_PIVOT)
        if ties.size > 1:
            if degenerate_run >= _DEGENERATE_SWITCH:
                r = int(ties[np.argmin(basis[ties])])
            else:
                r = int(ties[np.argmax(np.abs(d[ties]))])
            t_star = float(t_rows[r])

        leaving = int(basis[r])
        status[leaving] = -1 if rate[r] > 0 else 1
        entering_value = (lo_full[j] if sigma > 0 else hi_full[j]) + sigma * t_star

        xB = xB - rate * t_star
        piv = T[r, j]
        T[r] = T[r] / piv
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])
        T[:, j] = 0.0
        T[r, j] = 1.0
        xB[r] = entering_value
        basis[r] = j
        status[j] = 0
        degenerate_run = degenerate_run + 1 if t_star <= _TOL_PIVOT else 0

    x_full = np.where(status == -1, lo_full,
                      np.where(status == 1, hi_full, 0.0))
    x_full[basis] = xB
    x = x_full[:n]

    # Defensive feasibility audit; violations mean numerical drift.
    resid = A @ x - b
    if resid.max(initial=0.0) > 1e-6 * scale:
        raise SolverError("simplex returned an infeasible point (drift)")
    return SimplexResult(float(c @ x), x, it)

"""Bounded-Lipschitz distances between discrete measures, solved exactly.

``f_ball(mu, nu, r)`` computes

    F_r(mu, nu) = sup { integral of f d(mu - nu) :
                        Lip(f) <= 1,  f continuous, supported in B(0, r) }

as a finite linear program over the potential values f_i at the union of the
two supports inside the ball: pairwise constraints |f_i - f_j| <= |x_i - x_j|
and boundary caps |f_i| <= r - |x_i|.  A McShane extension of any feasible
site vector is a feasible continuum potential, so the LP optimum equals the
continuum supremum for discrete measures.

The metric series F(mu, nu) = sum over integer radii l of 2^{-l} min(1, F_l)
is truncated after ``max_terms`` terms with the rigorous tail bound
2^{-max_terms} reported separately.  It solves only the terms whose answer
is not already known.  A term saturates when its value, or the closed-form
lower bound |sum(mass * caps)| (the potentials +-caps are feasible), clears
the bar 1 + SOLVER_TOL * (1 + sum(|mass| * caps)); such a term would solve
to >= 1, so min(1, F_l) is exactly 1.  F_l is nondecreasing in l, so every
term after a saturated one is 1 too and is neither assembled nor solved.
The sum is bit for bit the one with every term solved.

Mixed-sign programs are solved by one exact solver, the transportation
simplex on the boundary form of the LP dual (`gmtlab.transport`), whose duals
certify the value; one-signed programs have a closed form.  A maximizing
potential (`solve_ball_lp_potential`) is read off the same transport duals by
one c-transform and audited against the value.  Instances above ``SITE_CAP``
sites are rejected rather than silently approximated.

Assembly merges exact duplicate sites with one stable lexicographic sort and
a mask of the runs of equal rows (`_merge_duplicates`), giving the sites,
order and merged masses of ``np.unique(axis=0)`` with ``np.add.at``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ContractError, DimensionMismatchError, LpSizeError,
                     SolverError, require_positive_finite)
from .measures import DiscreteMeasure, within
from .transport import lipschitz_dual_value, lipschitz_potential

# Largest Lipschitz LP this module will solve exactly.
SITE_CAP = 500

# Objective tolerance of the solver, per unit of 1 + sum(|mass| * cap), which
# bounds every objective; downstream contracts quote 1e-7 to absorb
# conditioning.
SOLVER_TOL = 1e-9


class SeriesResult(NamedTuple):
    """Partial metric series value plus its rigorous truncation bound."""

    value: float
    tail_bound: float


@dataclass(frozen=True)
class LipschitzBallLP:
    """Assembled potential program for F_r on the closed ball B(0, r).

    ``sites`` are the union of both supports inside the ball with exact
    duplicates merged; ``signed_mass`` holds mu_i - nu_i; ``caps`` the
    distances r - |x_i| to the complement of the ball.
    """

    sites: np.ndarray
    signed_mass: np.ndarray
    caps: np.ndarray

    @property
    def size(self):
        return self.sites.shape[0]


def _merge_duplicates(pts, mass):
    """Sites in lexicographic order, exact duplicates merged, zeros dropped.

    One stable `np.lexsort` (first coordinate first) puts equal rows in runs;
    each run's masses are summed in input order (`np.bincount`), so shared
    atoms cancel exactly.  The rows, their order and the merged masses are
    those of ``np.unique(pts, axis=0)`` with ``np.add.at``.  Rows that
    differ only in the sign of a zero coordinate compare equal there too;
    the first of them in input order is kept (``np.unique`` keeps whichever
    its unstable sort puts first), which moves no distance or cap bit.
    """
    order = np.lexsort(pts.T[::-1])
    pts, mass = pts[order], mass[order]
    first = np.ones(pts.shape[0], dtype=bool)
    np.any(pts[1:] != pts[:-1], axis=1, out=first[1:])
    merged = np.bincount(np.cumsum(first) - 1, weights=mass)
    keep = merged != 0.0
    return pts[first][keep], merged[keep]


def ball_mask(pts, r):
    """Rows of ``pts`` in the closed ball B(0, r) (`measures.within`); a row
    whose |x|^2 overflows is outside, without a warning."""
    with np.errstate(over="ignore"):
        return within(np.sqrt(np.sum(pts * pts, axis=1)), r)


def assemble_ball_lp(mu, nu, r):
    """Build the F_r program for a pair of measures (nu may be the zero measure)."""
    if mu.dim != nu.dim:
        raise DimensionMismatchError(
            f"measures in R^{mu.dim} and R^{nu.dim}"
        )
    require_positive_finite("ball radius", r)
    pts = np.vstack([mu.points, nu.points])
    mass = np.concatenate([mu.weights, -nu.weights])
    if pts.shape[0]:
        inside = ball_mask(pts, r)
        pts, mass = pts[inside], mass[inside]
    if pts.shape[0]:
        pts, mass = _merge_duplicates(pts, mass)
    mixed = pts.shape[0] and mass.min() < 0.0 < mass.max()
    if mixed and pts.shape[0] > SITE_CAP:
        # One-signed programs have a closed form at any size; only genuine
        # pair-constraint LPs are capped.
        raise LpSizeError(
            f"Lipschitz LP has {pts.shape[0]} sites, cap is {SITE_CAP}"
        )
    caps = np.maximum(r - np.sqrt(np.sum(pts * pts, axis=1)), 0.0)
    return LipschitzBallLP(pts, mass, caps)


def _one_signed(lp):
    """Value and maximizing potential of a program whose masses share one
    sign (an empty one counts as nonnegative), else None.  The caps are a
    feasible potential (distance to the ball complement is 1-Lipschitz) and
    dominate every other, so sign * caps attains sum(|mass| * caps)."""
    for sign in (1.0, -1.0):
        if np.all(sign * lp.signed_mass >= 0.0):
            return float(sign * (lp.signed_mass @ lp.caps)), sign * lp.caps
    return None


def solve_ball_lp(lp, warm=None):
    """Optimal value of an assembled F_r program.

    One-signed mass is solved in closed form (`_one_signed`).  Mixed signs
    go through the transportation form of the dual; ``warm`` is an optional
    `gmtlab.transport.WarmStart` holder for a chain of such solves: the
    solve starts from the kept basis whose marginals match and whose key
    (set by the caller) is nearest, and adds its own optimal basis under the
    current key.
    """
    closed = _one_signed(lp)
    if closed is not None:
        return closed[0]
    return lipschitz_dual_value(lp.sites, lp.signed_mass, lp.caps, warm=warm)


def solve_ball_lp_potential(lp):
    """Optimal value and a maximizing site potential of an assembled program.

    Solves the transportation problem of `solve_ball_lp`, so the value is
    bit-identical, and reads the potential off its duals by one c-transform
    (`gmtlab.transport.lipschitz_potential`).  One-signed programs return
    the closed form of `_one_signed`.  Raises `SolverError` when
    ``sum(mass * f)`` misses the value by more than ``SOLVER_TOL``.
    """
    closed = _one_signed(lp)
    if closed is not None:
        return closed
    value, f = lipschitz_potential(lp.sites, lp.signed_mass, lp.caps)
    scale = 1.0 + float(np.abs(lp.signed_mass) @ lp.caps)
    if abs(float(lp.signed_mass @ f) - value) > SOLVER_TOL * scale:
        raise SolverError("c-transform potential misses the transport value")
    return value, f


def f_ball(mu, nu, r, warm=None):
    """F_r(mu, nu): bounded-Lipschitz distance on the closed ball B(0, r).

    ``warm`` is passed on to `solve_ball_lp`.
    """
    return solve_ball_lp(assemble_ball_lp(mu, nu, r), warm=warm)


def f_ball_potential(mu, nu, r):
    """F_r value together with the optimal site potential (for diagnostics)."""
    lp = assemble_ball_lp(mu, nu, r)
    value, f = solve_ball_lp_potential(lp)
    return value, lp.sites, f


def f_series(mu, nu, max_terms):
    """Truncated metric series sum_l 2^{-l} min(1, F_l(mu, nu)).

    Returns the partial sum through ``l = max_terms`` and the rigorous tail
    bound 2^{-max_terms} as a `SeriesResult`.  The weight 2^{-l} of a term
    past l = 1074 rounds to 0.0, so the sum stops there with every bit kept
    and a huge ``max_terms`` costs no more than 1074 terms.

    A term whose answer is already known is not solved.  Its bar is
    ``1 + SOLVER_TOL * (1 + sum(|mass| * caps))``: a term whose value, or a
    lower bound on it, clears the bar would solve to >= 1, so ``min(1, .)``
    gives exactly 1.  The potentials +-caps are feasible, so
    F_l >= |sum(mass * caps)|, and a term whose bound clears its bar
    saturates without a solve.  F_l is nondecreasing in l (a potential
    feasible in B(0, l), extended by 0, is feasible in every larger ball),
    so once a term saturates, each later one adds exactly 2^{-l} and is not
    assembled: a later ball over ``SITE_CAP`` sites raises no
    `LpSizeError`.  A term solved to a value in [1, bar] counts as 1 and
    does not carry forward.  The value is bit for bit the sum with every
    term solved.
    """
    if max_terms < 1:
        raise ContractError("max_terms must be >= 1")
    total, saturated = 0.0, False
    for ell in range(1, min(max_terms, 1074) + 1):
        term = 1.0
        if not saturated:
            lp = assemble_ball_lp(mu, nu, float(ell))
            bar = 1.0 + SOLVER_TOL * (
                1.0 + float(np.abs(lp.signed_mass) @ lp.caps))
            value = abs(float(lp.signed_mass @ lp.caps))
            if value <= bar:
                value = solve_ball_lp(lp)
                term = min(1.0, value)
            saturated = value > bar
        total += 2.0 ** (-ell) * term
    return SeriesResult(total, math.ldexp(1.0, -max_terms))


def f_scaling_residual(mu, nu, r):
    """| F_r(mu, nu) - r * F_1(mu/r, nu/r) | for the rescaling y -> y/r.

    The two sides are the same program up to an exact change of variables, so
    the residual is solver noise: <= 1e-7 * (1 + F_r).  The points are
    rescaled as ``points * (1 / r)``.  At r = 1 that is the identity, so the
    one solve serves both sides and the residual is exactly 0.0.  A scale
    whose 1/r overflows is refused before the first solve.
    """
    require_positive_finite("scale", r)
    inv = 1.0 / float(r)
    if not inv < np.inf:
        raise ContractError(f"scale {r} is too small: 1/r is not finite")
    direct = f_ball(mu, nu, r)
    if r == 1.0:
        return 0.0
    mu_r = DiscreteMeasure(mu.points * inv, mu.weights, dim=mu.dim)
    nu_r = DiscreteMeasure(nu.points * inv, nu.weights, dim=nu.dim)
    return abs(direct - r * f_ball(mu_r, nu_r, 1.0))

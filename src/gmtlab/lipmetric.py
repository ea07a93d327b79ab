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
2^{-max_terms} reported separately.

Mixed-sign programs are solved by one exact solver, the transportation
simplex on the boundary form of the LP dual (`gmtlab.transport`), whose duals
certify the value; one-signed programs have a closed form.  A maximizing
potential (`solve_ball_lp_potential`) is read off the same transport duals by
one c-transform and audited against the value.  Instances above ``SITE_CAP``
sites are rejected rather than silently approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ContractError, DimensionMismatchError, LpSizeError,
                     SolverError)
from .measures import TIE_TOL, AffineMap, pushforward
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


def assemble_ball_lp(mu, nu, r):
    """Build the F_r program for a pair of measures (nu may be the zero measure)."""
    if mu.dim != nu.dim:
        raise DimensionMismatchError(
            f"measures in R^{mu.dim} and R^{nu.dim}"
        )
    if not 0.0 < r < np.inf:
        raise ContractError(f"ball radius must be positive and finite, "
                            f"got {r}")
    pts = np.vstack([mu.points, nu.points])
    mass = np.concatenate([mu.weights, -nu.weights])
    if pts.shape[0]:
        inside = np.sqrt(np.sum(pts * pts, axis=1)) <= r * (1.0 + TIE_TOL)
        pts, mass = pts[inside], mass[inside]
    if pts.shape[0]:
        # Merge exact coordinate duplicates; shared atoms cancel.
        uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
        merged = np.zeros(uniq.shape[0])
        np.add.at(merged, inverse, mass)
        keep = merged != 0.0
        pts, mass = uniq[keep], merged[keep]
    mixed = pts.shape[0] and mass.min() < 0.0 < mass.max()
    if mixed and pts.shape[0] > SITE_CAP:
        # One-signed programs have a closed form at any size; only genuine
        # pair-constraint LPs are capped.
        raise LpSizeError(
            f"Lipschitz LP has {pts.shape[0]} sites, cap is {SITE_CAP}"
        )
    caps = np.maximum(r - np.sqrt(np.sum(pts * pts, axis=1)), 0.0)
    return LipschitzBallLP(pts, mass, caps)


def solve_ball_lp(lp, warm=None):
    """Optimal value of an assembled F_r program.

    One-signed mass is solved in closed form: the caps themselves form a
    feasible potential (distance to the ball complement is 1-Lipschitz) and
    dominate every other, so the optimum is sum(|mass| * caps).  Mixed signs
    go through the transportation form of the dual; ``warm`` is an optional
    `gmtlab.transport.WarmStart` holder for a chain of such solves.
    """
    k = lp.size
    if k == 0:
        return 0.0
    if np.all(lp.signed_mass >= 0.0):
        return float(lp.signed_mass @ lp.caps)
    if np.all(lp.signed_mass <= 0.0):
        return float(-(lp.signed_mass @ lp.caps))
    return lipschitz_dual_value(lp.sites, lp.signed_mass, lp.caps, warm=warm)


def solve_ball_lp_potential(lp):
    """Optimal value and a maximizing site potential of an assembled program.

    Solves the transportation problem of `solve_ball_lp`, so the value is
    bit-identical, and reads the potential off its duals by one c-transform
    (`gmtlab.transport.lipschitz_potential`).  One-signed programs return
    the closed form with the caps (or their negation) as the potential.
    Raises `SolverError` when ``sum(mass * f)`` misses the value by more than
    ``SOLVER_TOL``.
    """
    k = lp.size
    if k == 0:
        return 0.0, np.zeros(0)
    if np.all(lp.signed_mass >= 0.0):
        return float(lp.signed_mass @ lp.caps), lp.caps.copy()
    if np.all(lp.signed_mass <= 0.0):
        return float(-(lp.signed_mass @ lp.caps)), -lp.caps
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
    bound 2^{-max_terms} as a `SeriesResult`.
    """
    if max_terms < 1:
        raise ContractError("max_terms must be >= 1")
    total = 0.0
    for ell in range(1, max_terms + 1):
        total += 2.0 ** (-ell) * min(1.0, f_ball(mu, nu, float(ell)))
    return SeriesResult(total, 2.0 ** (-max_terms))


def f_scaling_residual(mu, nu, r):
    """| F_r(mu, nu) - r * F_1(mu/r, nu/r) | for the rescaling y -> y/r.

    The two sides are the same program up to an exact change of variables, so
    the residual is solver noise: <= 1e-7 * (1 + F_r).
    """
    if not r > 0.0:
        raise ContractError("scale must be positive")
    direct = f_ball(mu, nu, r)
    scale = AffineMap.translate_scale(np.zeros(mu.dim), r)
    rescaled = r * f_ball(pushforward(mu, scale), pushforward(nu, scale), 1.0)
    return abs(direct - rescaled)

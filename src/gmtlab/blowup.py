"""Anisotropic blowup sequences and their per-scale rectifiability diagnostics.

A scale ladder drives three intertwined diagnostics at a base point a:

* ``density_scan``:   the ellipse densities mu(B_M(a, r_i)) / r_i^m per
                      scale, with running max/min as finite-scale stand-ins
                      for the upper and lower densities, and their gap ratio;
* ``blowup_sequence``: the rescaled measures c_i . T^M_{a, r_i}[mu]
                      restricted to a window ball, normalized either by the
                      ellipse mass (c_i = 1/mu(B_M(a, r_i))) or by the power
                      law (c_i = r_i^{-m});
* ``flatness_profile`` and ``sandwich_check``: the trend of the blowups'
                      distances to the flat cone, and the finite-scale
                      density sandwich

        (min window density) * R^m <= nu_i(B_R) <= (max window density) * R^m

                      that holds up to discretization slack whenever the
                      density exists.

Distances are computed once per base point and masked per scale.  A
resolution guard refuses ladders whose smallest radius does not dominate the
sample spacing; refusing beats reporting noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cones import cone_floor, symmetry_defect
from .errors import ContractError, ResolutionGuardError
from .measures import (Ball, ball_masses, ellipse_ball, lambda_rescale,
                       restrict)
from .reports import ScanReport

# Each ellipse must contain at least this many sample cells per tangent
# direction for densities to be trustworthy.
RESOLUTION_GUARD = 20.0

# Blowups are restricted to this ball: large enough for flatness at scale 1
# and the sandwich at R <= 2, small enough to bound LP sites.
WINDOW_RADIUS = 4.0

# Flatness is the cone distance at this scale; the symmetry defect is the
# annulus moment over SYMMETRY_ANNULUS.
FLATNESS_SCALE = 1.0
SYMMETRY_ANNULUS = (0.1, 1.0)


@dataclass(frozen=True)
class ScaleLadder:
    """Geometric radius ladder r_i = r0 * rho^i with a resolution guard."""

    r0: float
    rho: float
    count: int
    spacing: float

    def __post_init__(self):
        if not 0 < self.r0 < np.inf:
            raise ContractError(
                f"ladder top radius must be positive and finite, got {self.r0}")
        if not 0 < self.rho < 1:
            raise ContractError("ladder ratio must lie in (0, 1)")
        if self.count < 1:
            raise ContractError("ladder needs at least one radius")
        if not 0 <= self.spacing < np.inf:
            raise ContractError(
                f"spacing must be nonnegative and finite, got {self.spacing}")
        if self.r_min < RESOLUTION_GUARD * self.spacing:
            raise ResolutionGuardError(
                f"smallest ladder radius {self.r_min:.4g} is below "
                f"{RESOLUTION_GUARD:g} sample spacings "
                f"({RESOLUTION_GUARD * self.spacing:.4g})"
            )

    @property
    def radii(self):
        return self.r0 * self.rho ** np.arange(self.count)

    @property
    def r_min(self):
        return float(self.r0 * self.rho ** (self.count - 1))


def _ellipse_masses(mu, a, anisotropy, radii):
    """The ellipse masses mu(B_M(a, r)), r in radii, from one distance pass."""
    return ball_masses(mu, ellipse_ball(a, min(radii), anisotropy), radii)


def density_scan(mu, a, anisotropy, m, ladder):
    """Per-scale ellipse densities with the running gap ratio.

    A point outside the support neighborhood yields all-zero densities; the
    report flags that rather than failing.
    """
    radii = ladder.radii
    masses = _ellipse_masses(mu, a, anisotropy, radii)
    dens = np.array([mass / r ** m for mass, r in zip(masses, radii)])
    running = []
    top, bot = -np.inf, np.inf
    for v in dens:
        top, bot = max(top, v), min(bot, v)
        running.append(top / bot if bot > 0 else np.inf)
    meta = {"gap_ratio": running[-1], "all_zero": bool(np.all(dens == 0.0))}
    return ScanReport(
        columns={"r": radii.tolist(), "density": dens.tolist(),
                 "gap_ratio_so_far": running},
        meta=meta,
    )


def density_gap_verdict(report, threshold):
    """``small-gap`` when (max/min - 1) < threshold, else ``large-gap``.

    The threshold is a required input: it stands in for the dimensional
    constant of the density-gap rectifiability criterion, whose numeric value
    is not pinned down.
    """
    if not 0 < threshold < np.inf:
        raise ContractError(f"need 0 < threshold < inf, got {threshold}")
    ratio = report.meta["gap_ratio"]
    return "small-gap" if ratio - 1.0 < threshold else "large-gap"


@dataclass(frozen=True)
class BlowupSequence:
    """Normalized rescaled measures per ladder scale.

    ``measures[i]`` is None when mass normalization hit an empty ellipse at
    that scale (index also recorded in ``skipped``).  ``densities`` holds the
    power-law density at each scale (NaN without m), from the very routine
    `density_scan` uses.
    """

    radii: np.ndarray
    measures: list
    densities: np.ndarray
    mode: str
    m: int | None
    skipped: list = field(default_factory=list)
    window_radius: float = WINDOW_RADIUS


def blowup_sequence(mu, a, anisotropy, ladder, mode="power", m=None):
    """Blowups c_i . T^M_{a, r_i}[mu] restricted to the window ball.

    ``power`` mode uses c_i = r_i^{-m} (needs m); ``mass`` mode uses
    c_i = 1/mu(B_M(a, r_i)), unit mass on B(0, 1), and skips the scales
    where that ellipse carries no mass before rescaling them.
    """
    if mode not in ("power", "mass"):
        raise ContractError(f"unknown normalization mode {mode!r}")
    if mode == "power" and m is None:
        raise ContractError("power mode needs the dimension parameter m")
    radii = ladder.radii
    masses = _ellipse_masses(mu, a, anisotropy, radii)
    window = Ball(np.zeros(mu.dim), WINDOW_RADIUS)
    measures, skipped = [], []
    for i, (r, mass) in enumerate(zip(radii, masses)):
        if mode == "power":
            factor = float(r) ** (-m)
        elif mass > 0.0:
            factor = 1.0 / mass
        else:
            measures.append(None)
            skipped.append(i)
            continue
        resc = lambda_rescale(mu, a, float(r), anisotropy)
        measures.append(restrict(resc, window).scaled(factor))
    densities = (np.full(radii.size, np.nan) if m is None else
                 np.array([mass / r ** m for mass, r in zip(masses, radii)]))
    return BlowupSequence(radii=radii, measures=measures, densities=densities,
                          mode=mode, m=m, skipped=skipped)


def flatness_profile(radii, flatness, m):
    """Trend verdict of the per-scale flatness of a blowup sequence.

    ``flatness[i]`` is the cone distance at `FLATNESS_SCALE` of the blowup
    at ``radii[i]`` to the m-flats (``d_cone_flat(nu_i, m, FLATNESS_SCALE)``).
    Verdicts (floor = the cone discretization floor), checked in this order:
    ``flat`` when every value is <= floor (values inside the floor carry no
    trend); ``decreasing`` when the last value is at most half the first and
    the sequence is monotone within 20% noise; ``non-vanishing`` when every
    value stays >= 2x floor; ``inconclusive`` otherwise.
    """
    radii = [float(r) for r in radii]
    vals = [float(v) for v in flatness]
    if not vals:
        raise ContractError("no blowups to profile")
    floor = cone_floor(FLATNESS_SCALE, m)
    first, last = vals[0], vals[-1]
    monotone = all(nxt <= prev * 1.2 for prev, nxt in zip(vals, vals[1:]))
    if max(vals) <= floor:
        verdict = "flat"
    elif last <= 0.5 * first and monotone:
        verdict = "decreasing"
    elif min(vals) >= 2.0 * floor:
        verdict = "non-vanishing"
    else:
        verdict = "inconclusive"
    return ScanReport(
        columns={"r": radii, "flatness": vals},
        verdict=verdict,
        meta={"floor": floor, "final": last},
    )


def sandwich_check(mu, a, anisotropy, m, ladder, R_list):
    """Finite-scale density sandwich for power-normalized blowups.

    For each scale i and each R, checks

        dmin * R^m <= nu_i(B_R) <= dmax * R^m

    where dmin/dmax are the extreme densities over the scanned window and
    nu_i(B_R) = r_i^{-m} mu(B_M(a, r_i R)) is read off the densities' one
    distance pass.  The worst signed violation (in density units) is compared
    against the slack 3 h / (r_min * rho); violations beyond it mean the
    density-existence hypothesis fails and the report says ``inconclusive``.
    """
    R_list = [float(R) for R in R_list]
    if not R_list or not all(0 < R <= WINDOW_RADIUS for R in R_list):
        raise ContractError(f"R list must lie in (0, {WINDOW_RADIUS}], "
                            f"got {R_list}")
    radii = ladder.radii
    masses = _ellipse_masses(mu, a, anisotropy, list(radii) + [
        r * R for r in radii for R in R_list])
    dens = np.array([mass / r ** m for mass, r in zip(masses, radii)])
    if np.min(dens) <= 0.0:
        raise ContractError("sandwich needs positive densities on the window")
    dmin, dmax = float(dens.min()), float(dens.max())

    rows_r, rows_R, viol = [], [], []
    shells = iter(masses[radii.size:])
    for r in radii:
        for R in R_list:
            val = next(shells) * float(r) ** -m / R ** m
            rows_r.append(float(r))
            rows_R.append(R)
            viol.append(max(dmin - val, val - dmax, 0.0))
    slack = 3.0 * ladder.spacing / (ladder.r_min * ladder.rho)
    worst = float(max(viol))
    return ScanReport(
        columns={"r": rows_r, "R": rows_R, "violation": viol},
        verdict="ok" if worst <= slack else "inconclusive",
        meta={"worst_violation": worst, "slack": slack,
              "density_window": (dmin, dmax)},
    )


def blowup_symmetry_defect(blowup, m=1):
    """Symmetry defect of a blowup at the origin over `SYMMETRY_ANNULUS`."""
    return symmetry_defect(blowup, np.zeros(blowup.dim), *SYMMETRY_ANNULUS, m)

"""Anisotropic blowup sequences and their per-scale rectifiability diagnostics.

A scale ladder drives three intertwined diagnostics at a base point a:

* ``density_scan``:   the ellipse densities mu(B_M(a, r_i)) / r_i^m per
                      scale, with running max/min as finite-scale stand-ins
                      for the upper and lower densities, and their gap ratio;
* ``blowup_sequence``: the rescaled measures r_i^{-m} T^M_{a, r_i}[mu]
                      restricted to a window ball, normalized by the power
                      law that the densities use;
* ``flatness_profile`` and ``sandwich_check``: the trend of the blowups'
                      distances to the flat cone, and the finite-scale
                      density sandwich

        (min window density) * R^m <= nu_i(B_R) <= (max window density) * R^m

                      that holds up to discretization slack whenever the
                      density exists.

``blowup_report`` is the ``blowup`` command's table: per rung the flatness,
the symmetry defect and the worst sandwich violation, from one distance pass.

Distances are computed once per base point and masked per scale.  Every
density comes from `_densities`, which refuses an exponent m outside 1..n and
a radius whose r^m, r^-m or density leaves the floating-point range.  A
resolution guard refuses ladders whose smallest radius does not dominate the
sample spacing; refusing beats reporting noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cones import cone_floor, d_cone_flat, symmetry_defect
from .errors import (ContractError, ResolutionGuardError, require_atom_count,
                     require_nonnegative_finite, require_positive_finite)
from .measures import DiscreteMeasure, ball_masses, lambda_pass, within
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
        require_positive_finite("ladder top radius", self.r0)
        if not 0 < self.rho < 1:
            raise ContractError("ladder ratio must lie in (0, 1)")
        if self.count < 1:
            raise ContractError("ladder needs at least one radius")
        require_atom_count(self.count, "scale ladder")
        require_nonnegative_finite("spacing", self.spacing)
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


def _densities(masses, radii, m, n):
    """The densities mass / r^m at the exponent m, which must lie in 1..n
    for a measure in R^n.  A radius whose r^m, r^-m (a power blowup's
    normalization) or density is not finite is refused: its density would
    read inf, nan or a false 0.  (A finite r^-m means that r^m has not
    underflowed to 0.)"""
    if not 1 <= m <= n:
        raise ContractError(f"density exponent m = {m} must lie in 1..{n}")
    with np.errstate(all="ignore"):
        dens = np.array([mass / r ** m for mass, r in zip(masses, radii)])
        for r, d in zip(radii, dens):
            if not (r ** m < np.inf and r ** -m < np.inf and d < np.inf):
                raise ResolutionGuardError(
                    f"radius {r:.4g} at density exponent m = {m} puts r^m, "
                    f"r^-m or the density out of floating-point range")
    return dens


def density_scan(mu, a, anisotropy, m, ladder):
    """Per-scale ellipse densities with the running gap ratio.

    A point outside the support neighborhood yields all-zero densities; the
    report flags that rather than failing.  The running ratio max/min is
    nan while every density so far is 0 (no ratio exists) and inf once a
    positive density has met a zero one.
    """
    radii = ladder.radii
    dist = lambda_pass(mu.points, a, anisotropy.inverse(a))[1]
    dens = _densities(ball_masses(mu.weights, dist, radii), radii, m, mu.dim)
    running = []
    top, bot = -np.inf, np.inf
    for v in dens:
        top, bot = max(top, v), min(bot, v)
        running.append(top / bot if bot > 0 else np.inf if top > 0 else np.nan)
    meta = {"gap_ratio": running[-1], "all_zero": bool(np.all(dens == 0.0))}
    return ScanReport(
        columns={"r": radii.tolist(), "density": dens.tolist(),
                 "gap_ratio_so_far": running},
        meta=meta,
    )


def density_gap_verdict(report, threshold):
    """``zero-density`` when every density of the scan is 0 (a center off
    the support), else ``small-gap`` when (max/min - 1) < threshold, else
    ``large-gap``.

    The threshold is a required input: it stands in for the dimensional
    constant of the density-gap rectifiability criterion, whose numeric value
    is not pinned down.
    """
    require_positive_finite("threshold", threshold)
    if report.meta["all_zero"]:
        return "zero-density"
    ratio = report.meta["gap_ratio"]
    return "small-gap" if ratio - 1.0 < threshold else "large-gap"


@dataclass(frozen=True)
class BlowupSequence:
    """Power-normalized rescaled measures per ladder scale, with the density
    at each scale from the very routine `density_scan` uses."""

    radii: np.ndarray
    measures: list
    densities: np.ndarray


def _power_rungs(mu, u, dist, radii, m):
    """Rung i holds the atoms of mu(B_M(a, WINDOW_RADIUS r_i)) at u / r_i
    with mass scaled by r_i^{-m}, for ``u, dist`` of one `lambda_pass`."""
    keeps = [within(dist, WINDOW_RADIUS * r) for r in radii]
    return [DiscreteMeasure(u[keep] / r, mu.weights[keep] * float(r) ** (-m),
                            dim=mu.dim) for r, keep in zip(radii, keeps)]


def blowup_sequence(mu, a, anisotropy, ladder, mode="power", m=None):
    """Blowups r_i^{-m} T^M_{a, r_i}[mu] restricted to the window ball, with
    u and the masses from one Lambda(a)-distance pass.

    The exponent m is required.  ``mode`` admits only ``"power"``, the one
    normalization; the keyword stays for callers that pass it.
    """
    if mode != "power" or m is None:
        raise ContractError(f"no power blowup at mode = {mode!r}, m = {m}")
    radii = ladder.radii
    u, dist = lambda_pass(mu.points, a, anisotropy.inverse(a))
    densities = _densities(ball_masses(mu.weights, dist, radii), radii, m,
                           mu.dim)
    return BlowupSequence(radii, _power_rungs(mu, u, dist, radii, m),
                          densities)


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
    An R at which some nu_i(B_R) / R^m is not finite, such as an R whose R^m
    underflows, raises `ResolutionGuardError`.
    """
    dist = lambda_pass(mu.points, a, anisotropy.inverse(a))[1]
    return _sandwich(mu, dist, m, ladder, R_list)


def _sandwich(mu, dist, m, ladder, R_list):
    """`sandwich_check` of mu read off its distance pass ``dist``."""
    R_list = [float(R) for R in R_list]
    if not R_list or not all(0 < R <= WINDOW_RADIUS for R in R_list):
        raise ContractError(f"R list must lie in (0, {WINDOW_RADIUS}], "
                            f"got {R_list}")
    radii = ladder.radii
    masses = ball_masses(mu.weights, dist, list(radii) + [
        r * R for r in radii for R in R_list])
    dens = _densities(masses, radii, m, mu.dim)
    if np.min(dens) <= 0.0:
        raise ContractError("sandwich needs positive densities on the window")
    dmin, dmax = float(dens.min()), float(dens.max())

    rows_r, rows_R, viol = [], [], []
    shells = iter(masses[radii.size:])
    for r in radii:
        for R in R_list:
            norm = R ** m
            val = next(shells) * float(r) ** -m / norm if norm else np.inf
            if not val < np.inf:
                raise ResolutionGuardError(
                    f"sandwich radius R = {R} at density exponent m = {m} "
                    f"puts nu_i(B_R) / R^m out of floating-point range")
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


def blowup_report(mu, a, field, m, ladder, R_list):
    """The blowup table at a: per ladder radius r, the flatness
    (``d_cone_flat`` at `FLATNESS_SCALE`) and the symmetry defect of the
    power-normalized blowup, and its worst sandwich violation over R_list.

    One Lambda(a)-distance pass gives the rungs and the sandwich masses.  The
    verdict is the sandwich's; ``meta`` holds the `flatness_profile` trend
    as ``flatness_verdict`` and its cone floor as ``flatness_floor``.
    """
    u, dist = lambda_pass(mu.points, a, field.inverse(a))
    sandwich = _sandwich(mu, dist, m, ladder, R_list)
    rungs = _power_rungs(mu, u, dist, ladder.radii, m)
    radii = [float(r) for r in ladder.radii]
    profile = flatness_profile(
        radii, [d_cone_flat(nu, m, FLATNESS_SCALE) for nu in rungs], m)
    viol = np.reshape(sandwich.columns["violation"], (len(rungs), -1))
    return ScanReport(
        columns={
            "r": radii,
            "flatness": profile.columns["flatness"],
            "symmetry_defect": [blowup_symmetry_defect(nu, m) for nu in rungs],
            "sandwich_violation": viol.max(axis=1).tolist(),
        },
        verdict=sandwich.verdict,
        meta={"flatness_verdict": profile.verdict,
              "flatness_floor": profile.meta["floor"]},
    )


def blowup_symmetry_defect(blowup, m=1):
    """Symmetry defect of a blowup at the origin over `SYMMETRY_ANNULUS`."""
    return symmetry_defect(blowup, np.zeros(blowup.dim), *SYMMETRY_ANNULUS, m)

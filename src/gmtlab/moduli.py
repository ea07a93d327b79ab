"""Mean-oscillation moduli of matrix-valued coefficient fields.

``omega_profile`` estimates the modulus

    omega(r) = sup_x  mean over B(x, r) of |A(z) - (mean of A over B(x, r))|

with the sup over a finite probe set (a documented lower bound on the true
sup) and ball means by the midpoint quadrature of `measures.ball_means`,
with half-resolution error bars.  A constant field reads exactly 0.

``dini_small`` and ``dini_large`` are the weighted tail integrals

    I_theta(r)   = integral_0^r theta(t) dt/t
    L^d_theta(r) = r^d integral_r^inf theta(t) dt/t^{d+1}

by log-spaced midpoint quadrature; the small-scale integral warns when the
integrand has not decayed at its lower cutoff (divergence suspected), and the
large-scale one flat-extends theta beyond ``T_MAX`` where corpus fields are
constant.  ``tau_moduli`` combines them into the composite moduli used by the
frozen-coefficient comparison, ``doubling_constant`` estimates the
doubling constant of a sampled modulus on a dyadic ladder, and
``dmo_report`` tabulates omega, tau and the divergence warnings per radius.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ContractError, DiniDivergenceWarning,
                     require_atom_count, require_nonnegative_finite,
                     require_positive_finite)
from .measures import BALL_GRID, ball_means
from .reports import ScanReport

# Log-spaced quadrature resolution for the Dini integrals.
NODES_PER_DECADE = 200

# The small-scale Dini integral starts at this fraction of its radius.
T_MIN_FACTOR = 1e-6

# theta is flat-extended above this radius (corpus fields are constant far
# out).
T_MAX = 10.0

# Probe centers fill the cube [-PROBE_BOX, PROBE_BOX]^dim.
PROBE_BOX = 2.0


@dataclass
class OscillationProfile:
    """Per-radius oscillation estimates with quadrature error bars."""

    radii: np.ndarray
    omega: np.ndarray
    errors: np.ndarray
    kappa_hat: float

    def __post_init__(self):
        if np.any(self.omega < 0):
            raise ContractError("oscillation values must be nonnegative")
        if self.kappa_hat < 1.0:
            raise ContractError("doubling constant must be >= 1")

    def interpolator(self):
        return _interpolator(self.radii, self.omega)


def _interpolator(radii, omega):
    """theta(t): log-linear interpolation of a profile omega on ``radii``.

    Below the ladder the profile is extended by the power law fitted to
    the two smallest radii (clipped to nonnegative exponents) so that
    Holder-type decay is preserved; above it is flat-extended.  A
    one-radius profile is flat-extended on both sides.
    """
    radii = np.asarray(radii, dtype=float)
    omega = np.asarray(omega, dtype=float)
    order = np.argsort(radii)
    radii, omega = radii[order], omega[order]
    log_r = np.log(radii)
    lo_r, lo_w = radii[0], omega[0]
    hi_w = omega[-1]
    if lo_w > 0 and omega.size > 1 and omega[1] > 0 and radii[1] > lo_r:
        beta = (np.log(omega[1]) - np.log(lo_w)) / (np.log(radii[1]) - np.log(lo_r))
        beta = float(np.clip(beta, 0.0, 8.0))
    else:
        beta = 0.0 if lo_w > 0 else 1.0

    def theta(t):
        t = np.asarray(t, dtype=float)
        out = np.interp(np.log(np.maximum(t, 1e-300)), log_r, omega,
                        left=np.nan, right=hi_w)
        below = t < lo_r
        if np.any(below):
            out = np.where(below, lo_w * (t / lo_r) ** beta, out)
        return out

    return theta


def seeded_probes(dim, count=64, seed=0):
    """Deterministic probe centers filling [-PROBE_BOX, PROBE_BOX]^dim.  A
    negative seed is refused by name, and a count above the sample cap
    (`require_atom_count`) before the probes are allocated."""
    require_nonnegative_finite("probe seed", seed)
    rng = np.random.default_rng(seed)
    return rng.uniform(-PROBE_BOX, PROBE_BOX,
                       size=(require_atom_count(count, "probe count"), dim))


def _omega_maxima(field, probe_centers, radii, grid=BALL_GRID):
    """The sorted radii and, per radius r, the largest over the probes p of
    the mean over B(p, r) of |A - mean(A)|_F at ``grid`` midpoints per axis."""
    probes = np.asarray(probe_centers, dtype=float)
    radii = np.asarray(sorted(float(r) for r in radii))
    if probes.ndim != 2 or probes.shape[0] == 0 or radii.size == 0:
        raise ContractError("need nonempty probes and radii")
    if probes.shape[1] != field.dim:
        raise ContractError("probe dimension does not match the field")
    for r in radii:
        require_positive_finite("radius", r)
    omega = [max(float(np.sqrt(np.sum((m - mean) ** 2, axis=(1, 2))).mean())
                 for m, mean in ball_means(field, probes, r, grid))
             for r in radii]
    return radii, np.array(omega)


def omega_profile(field, probe_centers, radii):
    """Oscillation modulus on a radius ladder, maximized over the probes.

    The sup over all centers is replaced by the finite probe set, so the
    profile is a lower bound on the true modulus.  Ball means use `BALL_GRID`
    midpoints per axis; error bars compare them with half that resolution.
    """
    radii, omega = _omega_maxima(field, probe_centers, radii)
    half = _omega_maxima(field, probe_centers, radii, BALL_GRID // 2)[1]
    kappa = doubling_constant(radii, omega) if radii.size >= 2 else 1.0
    return OscillationProfile(radii=radii, omega=omega,
                              errors=np.abs(omega - half),
                              kappa_hat=max(kappa, 1.0))


def _log_quadrature(theta, t_lo, t_hi, weight=None):
    """Midpoint rule in log space for integral theta(t) * weight(t) dt/t."""
    decades = np.log10(t_hi / t_lo)
    count = max(int(np.ceil(decades * NODES_PER_DECADE)), 4)
    edges = np.linspace(np.log(t_lo), np.log(t_hi), count + 1)
    mids = np.exp(0.5 * (edges[:-1] + edges[1:]))
    dlog = np.diff(edges)
    vals = np.asarray(theta(mids), dtype=float)
    if np.any(vals < -1e-14):
        raise ContractError("theta must be nonnegative")
    vals = np.maximum(vals, 0.0)
    if weight is not None:
        vals = vals * weight(mids)
    return float(np.sum(vals * dlog)), vals


def dini_small(theta, r):
    """Small-scale Dini integral of theta up to r, with divergence warning.

    Integrates theta(t) dt/t over (t_min, r] with t_min = T_MIN_FACTOR * r;
    warns when theta has not decayed at t_min relative to its maximum on the
    quadrature grid (the integral is then suspected divergent).
    """
    require_positive_finite("radius", r)
    if not T_MIN_FACTOR * r > 0:
        raise ContractError(f"radius {r} is too small for its lower cutoff")
    value, vals = _log_quadrature(theta, T_MIN_FACTOR * r, r)
    peak = vals.max(initial=0.0)
    if peak > 0 and vals[0] > 1e-3 * peak:
        warnings.warn(
            "small-scale Dini integrand has not decayed at the lower cutoff; "
            "divergence suspected",
            DiniDivergenceWarning,
            stacklevel=2,
        )
    return value


def dini_large(theta, d, r):
    """Large-scale Dini integral r^d * integral_r^inf theta dt/t^{d+1}.

    theta is flat-extended beyond ``T_MAX``, making the tail exact:
    theta(T_MAX) * (r / T_MAX)^d / d.  Nonincreasing in d.
    """
    if d < 1:
        raise ContractError("d must be >= 1")
    require_positive_finite("radius", r)
    tail_level = float(np.asarray(theta(np.array([T_MAX])), dtype=float)[0])
    if tail_level < -1e-14:
        raise ContractError("theta must be nonnegative")
    tail_level = max(tail_level, 0.0)
    if r >= T_MAX:
        # Entirely in the flat-extended region.
        return tail_level / d
    weight = lambda t: (r / t) ** d
    value, _ = _log_quadrature(theta, r, T_MAX, weight=weight)
    return value + tail_level * (r / T_MAX) ** d / d


@dataclass(frozen=True)
class TauModuli:
    """Composite small+large moduli."""

    tau: float
    tau_hat: float

    def __iter__(self):
        return iter((self.tau, self.tau_hat))


def tau_moduli(field, probes, r):
    """tau(r) = I_omega(r) + L^{n-1}_omega(r) and the companion
    tau_hat(r) = I_omega(r) + L^{n-2}_omega(r).

    The oscillation maxima are measured at full resolution only (no error
    bars, no doubling constant) on a dyadic ladder spanning two decades below
    r up to T_MAX and interpolated as `OscillationProfile.interpolator` does;
    both moduli reuse exactly the Dini quadratures of `dini_small` /
    `dini_large`.  A radius so small that T_MAX / (r/100) is not finite is
    rejected with `ContractError`.
    """
    require_positive_finite("radius", r)
    with np.errstate(divide="ignore", over="ignore"):
        octaves = np.log2(np.float64(T_MAX) / (r / 100.0))
    if not octaves < np.inf:
        raise ContractError(f"radius {r} is too small for the oscillation "
                            f"ladder down to r/100")
    count = int(np.ceil(octaves)) + 1
    ladder = T_MAX * 0.5 ** np.arange(count)[::-1]
    if ladder.size < 4:
        raise ContractError("oscillation ladder too short (need >= 4 radii)")
    assert ladder[0] <= r / 10 and ladder[-1] == T_MAX

    theta = _interpolator(*_omega_maxima(field, probes, ladder))
    return tau_of_modulus(theta, field.dim, r)


def tau_of_modulus(theta, n, r):
    """`TauModuli` of a modulus theta in R^n: I_theta(r) + L^{n-1}_theta(r)
    and I_theta(r) + L^{n-2}_theta(r), Dini exponents clamped at 1.

    A `DiniDivergenceWarning` from `dini_small` passes through.
    """
    small = dini_small(theta, r)
    return TauModuli(
        tau=small + dini_large(theta, max(n - 1, 1), r),
        tau_hat=small + dini_large(theta, max(n - 2, 1), r),
    )


def dmo_report(field, probes, radii):
    """The ``dmo`` table: per radius r, ascending, the oscillation omega(r)
    of `omega_profile`, tau(r) and tau_hat(r) of `tau_of_modulus` on its
    interpolated profile, the doubling constant, and ``divergence_warning``,
    1 where the Dini integral at r warned of divergence and 0 elsewhere.
    The warnings are recorded in that column, not raised."""
    profile = omega_profile(field, probes, radii)
    theta = profile.interpolator()
    radii = sorted(radii)
    taus, warned = [], []
    for r in radii:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            taus.append(tau_of_modulus(theta, field.dim, r))
        warned.append(1.0 if caught else 0.0)
    return ScanReport(columns={
        "r": radii,
        "omega": profile.omega.tolist(),
        "tau": [t.tau for t in taus],
        "tau_hat": [t.tau_hat for t in taus],
        "kappa_hat": [profile.kappa_hat] * len(radii),
        "divergence_warning": warned,
    })


def doubling_constant(radii, values):
    """Smallest kappa with theta(t) <= kappa * theta(s) for s in [t/2, t],
    estimated on the sampled ladder.

    Pairs with theta(t) = 0 contribute 1; a zero below a positive value
    yields infinity (not doubling on this ladder).
    """
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.shape != values.shape or radii.size < 2:
        raise ContractError("need matching radii/value ladders of length >= 2")
    order = np.argsort(radii)
    radii, values = radii[order], values[order]
    kappa = 1.0
    for i, t in enumerate(radii):
        window = (radii >= t / 2 - 1e-12 * t) & (radii <= t)
        if not window.any():
            continue
        floor = values[window].min()
        if values[i] == 0.0:
            continue
        if floor == 0.0:
            return float("inf")
        kappa = max(kappa, values[i] / floor)
    return float(kappa)

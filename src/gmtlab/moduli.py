"""Mean-oscillation moduli of matrix-valued coefficient fields.

``omega_profile`` estimates the modulus

    omega(r) = sup_x  mean over B(x, r) of |A(z) - (mean of A over B(x, r))|

with the sup over a finite probe set (a documented lower bound on the true
sup) and ball means by midpoint quadrature with half-resolution error bars.

``dini_small`` and ``dini_large`` are the weighted tail integrals

    I_theta(r)   = integral_0^r theta(t) dt/t
    L^d_theta(r) = r^d integral_r^inf theta(t) dt/t^{d+1}

by log-spaced midpoint quadrature; the small-scale integral warns when the
integrand has not decayed at its lower cutoff (divergence suspected), and the
large-scale one flat-extends theta beyond ``t_max`` where corpus fields are
constant.  ``tau_moduli`` combines them into the composite moduli used by the
frozen-coefficient comparison, and ``doubling_constant`` estimates the
doubling constant of a sampled modulus on a dyadic ladder.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DiniDivergenceWarning
from .measures import ball_midpoints

# Log-spaced quadrature resolution for the Dini integrals.
NODES_PER_DECADE = 200

# theta is flat-extended above this radius (corpus fields are constant far
# out); configurable per call.
DEFAULT_T_MAX = 10.0


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

    def interpolator(self, extrapolate_power=True):
        """theta(t): log-linear interpolation of the profile.

        Below the ladder the profile is extended by the power law fitted to
        the two smallest radii (clipped to nonnegative exponents) so that
        Holder-type decay is preserved; above it is flat-extended.
        """
        radii = np.asarray(self.radii, dtype=float)
        omega = np.asarray(self.omega, dtype=float)
        order = np.argsort(radii)
        radii, omega = radii[order], omega[order]
        log_r = np.log(radii)
        lo_r, lo_w = radii[0], omega[0]
        hi_w = omega[-1]
        if extrapolate_power and lo_w > 0 and omega[1] > 0 and radii[1] > lo_r:
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


def seeded_probes(dim, count=64, seed=0, box=2.0):
    """Deterministic probe centers filling [-box, box]^dim."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(count, dim))


def _ball_oscillation(field, center, r, grid):
    """Mean over B(center, r) of |A - mean(A)| in Frobenius norm."""
    mats = field.matrices(ball_midpoints(center, r, grid))
    mean = mats.mean(axis=0)
    dev = mats - mean
    return float(np.sqrt(np.sum(dev * dev, axis=(1, 2))).mean())


def omega_profile(field, probe_centers, radii, grid=16):
    """Oscillation modulus on a radius ladder, maximized over the probes.

    The sup over all centers is replaced by the finite probe set, so the
    profile is a lower bound on the true modulus.  Error bars come from a
    half-resolution quadrature comparison.
    """
    probes = np.asarray(probe_centers, dtype=float)
    radii = np.asarray(sorted(float(r) for r in radii))
    if probes.ndim != 2 or probes.shape[0] == 0 or radii.size == 0:
        raise ContractError("need nonempty probes and radii")
    if probes.shape[1] != field.dim:
        raise ContractError("probe dimension does not match the field")
    if grid < 8:
        raise ContractError("quadrature grid must be >= 8 points per axis")
    omega = np.zeros(radii.size)
    errs = np.zeros(radii.size)
    for k, r in enumerate(radii):
        full = max(_ball_oscillation(field, p, r, grid) for p in probes)
        half = max(_ball_oscillation(field, p, r, grid // 2) for p in probes)
        omega[k] = full
        errs[k] = abs(full - half)
    kappa = doubling_constant(radii, omega) if radii.size >= 2 else 1.0
    return OscillationProfile(radii=radii, omega=omega, errors=errs,
                              kappa_hat=max(kappa, 1.0))


def _log_quadrature(theta, t_lo, t_hi, weight=None, nodes_per_decade=NODES_PER_DECADE):
    """Midpoint rule in log space for integral theta(t) * weight(t) dt/t."""
    decades = np.log10(t_hi / t_lo)
    count = max(int(np.ceil(decades * nodes_per_decade)), 4)
    edges = np.linspace(np.log(t_lo), np.log(t_hi), count + 1)
    mids = np.exp(0.5 * (edges[:-1] + edges[1:]))
    dlog = np.diff(edges)
    vals = np.asarray(theta(mids), dtype=float)
    if np.any(vals < -1e-14):
        raise ContractError("theta must be nonnegative")
    vals = np.maximum(vals, 0.0)
    if weight is not None:
        vals = vals * weight(mids)
    return float(np.sum(vals * dlog)), mids, vals


def dini_small(theta, r, t_min_factor=1e-6, return_error=False):
    """Small-scale Dini integral of theta up to r, with divergence warning.

    Integrates theta(t) dt/t over (t_min, r] with t_min = t_min_factor * r;
    warns when theta has not decayed at t_min relative to its maximum on the
    quadrature grid (the integral is then suspected divergent).
    """
    if not r > 0:
        raise ContractError("r must be positive")
    t_min = t_min_factor * r
    value, mids, vals = _log_quadrature(theta, t_min, r)
    half, _, _ = _log_quadrature(theta, t_min, r,
                                 nodes_per_decade=NODES_PER_DECADE // 2)
    err = abs(value - half) / 3.0
    peak = vals.max(initial=0.0)
    if peak > 0 and vals[0] > 1e-3 * peak:
        warnings.warn(
            "small-scale Dini integrand has not decayed at the lower cutoff; "
            "divergence suspected",
            DiniDivergenceWarning,
            stacklevel=2,
        )
    return (value, err) if return_error else value


def dini_large(theta, d, r, t_max=DEFAULT_T_MAX, return_error=False):
    """Large-scale Dini integral r^d * integral_r^inf theta dt/t^{d+1}.

    theta is flat-extended beyond ``t_max``, making the tail exact:
    theta(t_max) * (r / t_max)^d / d.  Nonincreasing in d.
    """
    if d < 1:
        raise ContractError("d must be >= 1")
    if not r > 0:
        raise ContractError("r must be positive")
    tail_level = float(np.asarray(theta(np.array([t_max])), dtype=float)[0])
    if tail_level < -1e-14:
        raise ContractError("theta must be nonnegative")
    tail_level = max(tail_level, 0.0)
    tail = tail_level * (r / t_max) ** d / d
    if r >= t_max:
        # Entirely in the flat-extended region.
        value, err = tail_level / d, 0.0
        return (value, err) if return_error else value
    weight = lambda t: (r / t) ** d
    value, _, _ = _log_quadrature(theta, r, t_max, weight=weight)
    half, _, _ = _log_quadrature(theta, r, t_max, weight=weight,
                                 nodes_per_decade=NODES_PER_DECADE // 2)
    err = abs(value - half) / 3.0
    value += tail
    return (value, err) if return_error else value


@dataclass(frozen=True)
class TauModuli:
    """Composite small+large moduli with propagated quadrature errors."""

    tau: float
    tau_hat: float
    tau_error: float = 0.0
    tau_hat_error: float = 0.0

    def __iter__(self):
        return iter((self.tau, self.tau_hat))


def tau_moduli(field, probes, r, t_max=DEFAULT_T_MAX, ladder=None, grid=16):
    """tau(r) = I_omega(r) + L^{n-1}_omega(r) and the companion
    tau_hat(r) = I_omega(r) + L^{n-2}_omega(r).

    The oscillation profile is measured on a dyadic ladder spanning two
    decades below r up to t_max and interpolated; both moduli reuse exactly
    the Dini quadratures of `dini_small` / `dini_large`.
    """
    n = field.dim
    if not r > 0:
        raise ContractError("r must be positive")
    if ladder is None:
        t_lo = r / 100.0
        count = int(np.ceil(np.log2(t_max / t_lo))) + 1
        ladder = t_max * 0.5 ** np.arange(count)[::-1]
    ladder = np.asarray(sorted(float(t) for t in ladder))
    if ladder.size < 4:
        raise ContractError("oscillation ladder too short (need >= 4 radii)")
    if ladder[0] > r / 10 or ladder[-1] < t_max * (1 - 1e-9):
        raise ContractError("oscillation ladder must cover (r/10, t_max)")

    profile = omega_profile(field, probes, ladder, grid=grid)
    return tau_of_modulus(profile.interpolator(), n, r, t_max=t_max)


def tau_of_modulus(theta, n, r, t_max=DEFAULT_T_MAX):
    """`TauModuli` of a modulus theta in R^n: I_theta(r) + L^{n-1}_theta(r)
    and I_theta(r) + L^{n-2}_theta(r), Dini exponents clamped at 1.

    A `DiniDivergenceWarning` from `dini_small` passes through.
    """
    small, small_err = dini_small(theta, r, return_error=True)
    large_n1, err_n1 = dini_large(theta, max(n - 1, 1), r, t_max=t_max,
                                  return_error=True)
    large_n2, err_n2 = dini_large(theta, max(n - 2, 1), r, t_max=t_max,
                                  return_error=True)
    return TauModuli(
        tau=small + large_n1,
        tau_hat=small + large_n2,
        tau_error=small_err + err_n1,
        tau_hat_error=small_err + err_n2,
    )


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

"""Shared exception and warning types.

Contract violations (bad arguments, dimension mismatches, singular matrices)
raise `ContractError` subclasses; refusals of numerically unsafe requests
(resolution guards, LP size caps, solvers that cannot certify an optimum)
raise `GuardError` subclasses so callers can distinguish "you asked for
something wrong" from "this instance is too coarse or too large to answer
honestly".  Each refusal rule has its one routine here: `require_finite`,
`require_positive_finite` and `require_nonnegative_finite`.
"""

import numpy as np


class GmtLabError(Exception):
    """Base class for all errors raised by gmtlab."""


class ContractError(GmtLabError, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatchError(ContractError):
    """Operands live in different ambient dimensions."""


class SingularMatrixError(ContractError):
    """A matrix that must be invertible has |det| below the configured floor."""


class GuardError(GmtLabError, RuntimeError):
    """A numerical guard refused the request rather than report garbage."""


class ResolutionGuardError(GuardError):
    """Requested scale is too close to the sample spacing."""


class LpSizeError(GuardError):
    """Lipschitz LP instance exceeds the supported site count."""


class SolverError(GuardError):
    """An exact LP solver hit its iteration limit, drifted, failed to converge
    or failed its optimality audit."""


def require_finite(**values):
    """Reject, by keyword name, the first value with a nan or infinite entry."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise ContractError(f"{name} must be finite")


def require_positive_finite(what, value):
    """Reject a radius, scale, spacing or exponent that is not positive and
    finite (NaN included), naming it by ``what``."""
    if not 0 < value < float("inf"):
        raise ContractError(
            f"{what} must be positive and finite, got {value}")


def require_nonnegative_finite(what, value):
    """`require_positive_finite` that also admits 0."""
    if not 0 <= value < float("inf"):
        raise ContractError(
            f"{what} must be nonnegative and finite, got {value}")


def require_finite_distances(dist, center):
    """Refuse a base point that is not finite, or whose distances to the
    sample overflowed (numpy computed them under ``np.errstate(over="ignore",
    invalid="ignore")``).  `measures.lambda_pass` checks once per base
    point, never per window."""
    if not np.isfinite(center).all():
        raise ContractError(
            f"center {tuple(float(c) for c in center)} is not finite")
    if not np.isfinite(dist).all():
        raise ContractError(
            f"center {tuple(float(c) for c in center)} is too far from the "
            "sample: its distances overflow")


# Largest generated sample, in points: admits the unit 2-disc grid at
# h = 0.001 (2001^2 points), refuses one whose coordinates take gigabytes.
MAX_ATOMS = 2 ** 22


def require_atom_count(count, what="generated sample"):
    """``count`` as an int; refuses, before a sample is allocated, a count
    above `MAX_ATOMS` or one that is not finite, naming the sample by
    ``what``."""
    if not count <= MAX_ATOMS:
        raise GuardError(f"{what} needs {count} points, "
                         f"above the cap of {MAX_ATOMS}")
    return int(count)


class DiniDivergenceWarning(UserWarning):
    """The small-scale Dini integrand has not decayed at the lower cutoff."""

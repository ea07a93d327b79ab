"""Hostile inputs refused by name: each by the finite or positive rule of
`gmtlab.errors` that it breaks, before it can turn into a nan result, a numpy
warning, an empty measure or a refusal naming another argument; a derived
input handed to a constructor by `TypeError`.

Below those, one row per library refusal that no other test reaches (a
wrong shape or dimension, an unknown name, a value out of range), so that
`tools/reach.py` finds every ``raise`` of the package run.  The one
exception is `spd_sqrt`'s square-root residual check: it guards against a
failure of the eigendecomposition, and no finite symmetric positive-definite
input is known that makes the eigh-based root miss its tolerance.
"""

import re

import numpy as np
import pytest

from gmtlab.corpus import CorpusEntry, cantor_construction_corners
from gmtlab.errors import ContractError, DimensionMismatchError
from gmtlab.kernels import (KernelSpec, ball_average, finsler_kernel,
                            frozen_discrepancy, kernel_eval, spd_sqrt,
                            theta_kernel, truncated_pv)
from gmtlab.lipmetric import f_scaling_residual
from gmtlab.measures import (AffineMap, Ball, DiscreteMeasure, EllipseField,
                             HalfSpace, lambda_rescale, pushforward, restrict)
from gmtlab.moduli import (OscillationProfile, dini_large, doubling_constant,
                           omega_profile)
from gmtlab.reports import ScanReport
from gmtlab.transport import transport_simplex

NAN, INF = np.nan, np.inf
MU = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])

ROWS = {
    "spd_sqrt-nan": (lambda: spd_sqrt([[NAN, 0.0], [0.0, 1.0]]),
                     ContractError, "matrix must be finite"),
    "theta-nan": (lambda: theta_kernel([[NAN, 0.0], [0.0, 1.0]]),
                  ContractError, "matrix must be finite"),
    "theta-inf": (lambda: theta_kernel([[1.0, INF], [INF, 1.0]]),
                  ContractError, "matrix must be finite"),
    "finsler-nan": (lambda: finsler_kernel([[1.0, 0.0], [0.0, NAN]], 1),
                    ContractError, "matrix must be finite"),
    "finsler-inf": (lambda: finsler_kernel([[INF, 0.0], [0.0, 1.0]], 1),
                    ContractError, "matrix must be finite"),
    "half-space-normal": (lambda: restrict(MU, HalfSpace([NAN, 0.0], 0.0)),
                          ContractError, "normal must be finite"),
    "half-space-offset": (lambda: HalfSpace([1.0, 0.0], NAN),
                          ContractError, "offset must be finite"),
    "scaling-residual-inf": (
        lambda: f_scaling_residual(MU, MU, INF),
        ContractError, "scale must be positive and finite, got inf"),
    "lambda-rescale-inf": (
        lambda: lambda_rescale(MU, [0.0, 0.0], INF, EllipseField.identity(2)),
        ContractError, "rescaling radius must be positive and finite, got inf"),
    "ball-radius-inf": (lambda: Ball([0.0, 0.0], INF), ContractError,
                        "ball radius must be positive and finite, got inf"),
    "ball-hidden-inverse": (
        lambda: Ball([0.0, 0.0], 1.0, _inv=np.diag([2.0, 1.0])),
        TypeError, "_inv"),
    "kernel-hidden-inverse": (
        lambda: KernelSpec("theta", 2, matrix=np.eye(2), _inv=np.eye(2)),
        TypeError, "_inv"),
    # Shapes, dimensions, names and ranges.
    "spd_sqrt-not-square": (lambda: spd_sqrt(np.ones((2, 3))),
                            ContractError, "matrix must be square"),
    "kernel-flavor": (lambda: KernelSpec("gauss", 2), ContractError,
                      "unknown kernel flavor 'gauss'"),
    "kernel-m-out-of-range": (
        lambda: finsler_kernel(np.eye(2), 2),
        ContractError, "codimension parameter m must lie in 1..1"),
    "riesz-without-field": (lambda: KernelSpec("riesz", 2, m=1),
                            ContractError,
                            "riesz flavor needs an anisotropy field"),
    "theta-without-matrix": (lambda: KernelSpec("theta", 2), ContractError,
                             "theta flavor needs an SPD matrix"),
    "kernel-matrix-shape": (lambda: KernelSpec("theta", 3, matrix=np.eye(2)),
                            ContractError, "matrix shape must match dim"),
    "kernel_eval-dim": (
        lambda: kernel_eval(theta_kernel(np.eye(2)), [0.0, 0.0],
                            [1.0, 0.0, 0.0]),
        DimensionMismatchError, "kernel arguments dimension mismatch"),
    "truncated_pv-dim": (
        lambda: truncated_pv(theta_kernel(np.eye(3)), MU, np.zeros(3), 0.1),
        DimensionMismatchError, "measure dimension mismatch"),
    "frozen-dim": (
        lambda: frozen_discrepancy(EllipseField.identity(2), np.zeros(3), 0.1),
        DimensionMismatchError, "field/center dimension mismatch"),
    "ball_average-n4": (
        lambda: ball_average(EllipseField.identity(4), np.zeros(4), 0.1),
        ContractError, "ball averages implemented for dim <= 3 only"),
    "points-empty-without-dim": (lambda: DiscreteMeasure([], []),
                                 ContractError,
                                 "empty point list needs an explicit dim"),
    "points-1d": (lambda: DiscreteMeasure([0.0, 1.0], [1.0]), ContractError,
                  "points must be a (N, dim) array, got shape (2,)"),
    "points-3d": (lambda: DiscreteMeasure(np.zeros((1, 2, 2)), [1.0]),
                  ContractError,
                  "points must be a (N, dim) array, got shape (1, 2, 2)"),
    "points-dim": (lambda: DiscreteMeasure([[0.0, 0.0]], [1.0], dim=3),
                   DimensionMismatchError,
                   "points have dimension 2, expected 3"),
    "points-no-columns": (lambda: DiscreteMeasure.empty(0), ContractError,
                          "ambient dimension must be >= 1"),
    "ball-matrix-shape": (lambda: Ball([0.0, 0.0], 1.0, matrix=np.eye(3)),
                          ContractError,
                          "ellipse matrix shape must match center"),
    "half-space-zero-normal": (lambda: HalfSpace([0.0, 0.0], 0.0),
                               ContractError,
                               "half-space normal must be nonzero"),
    "affine-map-shape": (
        lambda: AffineMap(np.eye(2), np.zeros(3)), ContractError,
        "affine map needs square matrix and matching offset"),
    "field-dim-0": (lambda: EllipseField(lambda pts: pts, 0), ContractError,
                    "dimension must be >= 1"),
    "pushforward-dim": (
        lambda: pushforward(MU, AffineMap(np.eye(3), np.zeros(3))),
        DimensionMismatchError, "map in R^3 but measure in R^2"),
    "probes-empty": (
        lambda: omega_profile(EllipseField.identity(2), np.zeros((0, 2)),
                              [0.1]),
        ContractError, "need nonempty probes and radii"),
    "probes-dim": (
        lambda: omega_profile(EllipseField.identity(2), np.zeros((1, 3)),
                              [0.1]),
        ContractError, "probe dimension does not match the field"),
    "dini_large-d0": (lambda: dini_large(lambda t: t, 0, 0.1), ContractError,
                      "d must be >= 1"),
    "dini_large-negative-theta": (
        lambda: dini_large(lambda t: -np.ones_like(t), 1, 0.1),
        ContractError, "theta must be nonnegative"),
    "doubling-ladders": (
        lambda: doubling_constant([0.1, 0.2], [1.0]), ContractError,
        "need matching radii/value ladders of length >= 2"),
    "oscillation-negative": (
        lambda: OscillationProfile(np.array([0.1]), np.array([-1.0]),
                                   np.zeros(1), 1.0),
        ContractError, "oscillation values must be nonnegative"),
    "oscillation-kappa": (
        lambda: OscillationProfile(np.array([0.1]), np.zeros(1),
                                   np.zeros(1), 0.5),
        ContractError, "doubling constant must be >= 1"),
    "corpus-label": (lambda: CorpusEntry("x", MU, "smooth"), ContractError,
                     "unknown label 'smooth'"),
    "cantor-corners-level": (lambda: cantor_construction_corners(-1),
                             ContractError, "level must be nonnegative"),
    "transport-shapes": (
        lambda: transport_simplex(np.zeros((2, 2)), [1.0], [0.5, 0.5]),
        ContractError, "supply/demand shapes do not match the cost matrix"),
    "transport-negative-demand": (
        lambda: transport_simplex(np.zeros((2, 2)), [1.0, 0.0], [1.5, -0.5]),
        ContractError, "supplies and demands must be nonnegative"),
    "report-ragged": (lambda: ScanReport({"r": [1.0], "v": [1.0, 2.0]}),
                      ValueError, "ragged scan report: column lengths"),
}


@pytest.mark.parametrize("row", ROWS)
def test_hostile_input_is_refused_by_name(row):
    call, error, message = ROWS[row]
    with pytest.raises(error, match=re.escape(message)):
        call()


"""Hostile inputs refused by name: each by the finite or positive rule of
`gmtlab.errors` that it breaks, before it can turn into a nan result, a numpy
warning, an empty measure or a refusal naming another argument; a derived
input handed to a constructor by `TypeError`.
"""

import numpy as np
import pytest

from gmtlab.cones import FlatMeasureSpec
from gmtlab.errors import ContractError
from gmtlab.kernels import KernelSpec, finsler_kernel, spd_sqrt, theta_kernel
from gmtlab.lipmetric import f_scaling_residual
from gmtlab.measures import (Ball, DiscreteMeasure, EllipseField, HalfSpace,
                             lambda_rescale, restrict)

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
    "flat-frame-nan": (lambda: FlatMeasureSpec([[NAN], [0.0]], 1.0, 0.01),
                       ContractError, "frame is not orthonormal"),
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
}


@pytest.mark.parametrize("row", ROWS)
def test_hostile_input_is_refused_by_name(row):
    call, error, message = ROWS[row]
    with pytest.raises(error, match=message):
        call()


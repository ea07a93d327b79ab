"""gmt-lab: rectifiability diagnostics for discrete weighted point measures.

Computable quantities of anisotropic geometric measure theory at desk scale:
ellipse densities and blowups, truncated singular integrals, exact
bounded-Lipschitz metrics via linear programming, distances to flat cones,
symmetry defects, and oscillation moduli of coefficient fields.
"""

from .measures import (
    AffineMap,
    Ball,
    DiscreteMeasure,
    EllipseField,
    HalfSpace,
    ellipse_ball,
    lambda_rescale,
    load_measure_csv,
    mass_in,
    pushforward,
    restrict,
    save_measure_csv,
)
from .lipmetric import SeriesResult, f_ball, f_ball_potential, f_scaling_residual, f_series
from .cones import (
    FlatMeasureSpec,
    cone_floor,
    d_cone_flat,
    sample_flat,
    symmetry_defect,
)
from .kernels import (
    KernelSpec,
    finsler_kernel,
    frozen_discrepancy,
    kernel_eval,
    layer_potential_identity_residual,
    pv_convergence_scan,
    riesz_kernel,
    theta_kernel,
    truncated_pv,
)
from .moduli import (
    OscillationProfile,
    TauModuli,
    dini_large,
    dini_small,
    doubling_constant,
    omega_profile,
    seeded_probes,
    tau_moduli,
)
from .blowup import (
    BlowupSequence,
    ScaleLadder,
    blowup_sequence,
    density_gap_verdict,
    density_scan,
    flatness_profile,
    sandwich_check,
)
from .reports import ScanReport
from . import corpus, errors

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

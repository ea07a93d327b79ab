import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cloud
from gmtlab.corpus import cantor_construction_corners, gen_lambda_field
from gmtlab.errors import (ContractError, ResolutionGuardError,
                           SingularMatrixError)
from gmtlab.kernels import (ball_average, finsler_kernel, frozen_discrepancy,
                            kernel_eval, layer_potential_identity_residual,
                            pv_convergence_scan, riesz_kernel, spd_sqrt,
                            theta_kernel, truncated_pv)
from gmtlab.measures import DiscreteMeasure, EllipseField


def test_riesz_unit_vector(identity2):
    out = kernel_eval(riesz_kernel(identity2, 1), np.zeros(2),
                      np.array([1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0])


def test_theta_direct_substitution():
    out = kernel_eval(theta_kernel(np.diag([4.0, 1.0, 1.0])), np.zeros(3),
                      np.array([2.0, 0.0, 0.0]))
    assert np.allclose(out, [0.25, 0.0, 0.0])


def test_finsler_reduces_to_riesz_at_identity(identity2):
    rng = np.random.default_rng(5)
    fins = finsler_kernel(np.eye(2), 1)
    ries = riesz_kernel(identity2, 1)
    for _ in range(10):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert np.abs(kernel_eval(fins, x, y) -
                      kernel_eval(ries, x, y)).max() <= 1e-12


def test_kernel_singularity_rejected(identity2):
    with pytest.raises(ContractError):
        kernel_eval(riesz_kernel(identity2, 1), np.ones(2), np.ones(2))


@pytest.mark.parametrize("spec", [
    riesz_kernel(EllipseField.identity(2), 1), theta_kernel(np.eye(2))],
    ids=["riesz", "theta"])
def test_kernel_eval_refuses_a_pair_whose_distance_overflows(spec):
    # The window distance is `measures.lambda_pass`'s, refused by name
    # rather than read through numpy's overflow warning.
    with pytest.raises(ContractError, match=re.escape(
            "center (0.0, 0.0) is too far from the sample: its distances "
            "overflow")):
        kernel_eval(spec, np.zeros(2), np.array([1e200, 1e200]))


@pytest.mark.parametrize("points,weights,m,want", [
    ([[1e-200, 0.0], [0.5, 0.0]], [0.0, 1.0], 1, [2.0, 0.0]),
    ([[1e110, 0.0, 0.0], [0.5, 0.0, 0.0]], [1.0, 1.0], 2, [4.0, 0.0, 0.0]),
], ids=["zero-weight-next-to-x", "far-atom"])
def test_terms_outside_every_window_raise_no_warning(points, weights, m,
                                                     want):
    # Next to x, |u|^2 underflows to 0 and a zero weight times the infinite
    # kernel value is nan, a term the window [0.1, inf) does not read.  Far
    # out, |u|^3 overflows and the kernel value reads 0; its true value,
    # 1e-220, is far below the last bit of the sum.  Neither may warn.
    n = len(want)
    spec = riesz_kernel(EllipseField.identity(n), m)
    got = truncated_pv(spec, DiscreteMeasure(points, weights), np.zeros(n),
                       0.1)
    assert np.array_equal(got, want)


def test_finsler_factorization_through_sqrt():
    # finsler kernel == sqrt(A)^{-1} applied to the riesz kernel of sqrt(A)
    rng = np.random.default_rng(6)
    for _ in range(20):
        b = rng.normal(size=(2, 2))
        A = b @ b.T + 2 * np.eye(2)
        root = spd_sqrt(A)
        fins = finsler_kernel(A, 1)
        ries = riesz_kernel(EllipseField.constant(root), 1)
        x, y = rng.normal(size=2), rng.normal(size=2)
        lhs = kernel_eval(fins, x, y)
        rhs = np.linalg.inv(root) @ kernel_eval(ries, x, y)
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_riesz_antisymmetry_constant_field():
    # swapping arguments negates the kernel exactly (negation is lossless)
    field = EllipseField.constant(np.array([[2.0, 0.5], [0.0, 1.0]]))
    spec = riesz_kernel(field, 1)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert np.array_equal(kernel_eval(spec, x, y),
                              -kernel_eval(spec, y, x))


def test_truncated_pv_line_cancels(line_entry, identity2):
    out = truncated_pv(riesz_kernel(identity2, 1), line_entry.measure,
                       np.zeros(2), 0.01, 1.0)
    assert np.linalg.norm(out) <= 1e-12


def test_truncated_pv_single_atom(identity2):
    atom = DiscreteMeasure.dirac(np.array([1.0, 0.0]))
    out = truncated_pv(riesz_kernel(identity2, 1), atom, np.zeros(2), 0.5)
    assert np.allclose(out, [1.0, 0.0])


def _odd_spec(flavor, rng, n, m):
    """A kernel of ``flavor`` with a random anisotropy, and the matrix L whose
    distance |L^{-1} y| is its truncation variable at x = 0."""
    if flavor == "riesz":
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        root = q @ np.diag(rng.uniform(0.5, 2.0, n))  # not symmetric
        return riesz_kernel(EllipseField.constant(root), m), root
    b = rng.normal(size=(n, n))
    spd = b @ b.T + np.eye(n)
    spec = theta_kernel(spd) if flavor == "theta" else finsler_kernel(spd, m)
    return spec, spd_sqrt(spd)


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1),
       flavor=st.sampled_from(["riesz", "theta", "finsler"]),
       n=st.sampled_from([2, 3]), pairs=st.integers(1, 20),
       sphere=st.booleans())
def test_odd_kernels_cancel_on_point_symmetric_samples(seed, flavor, n, pairs,
                                                       sphere):
    # At x = 0 every flavor is odd, K(0, -v) = -K(0, v), so mirror pairs of
    # equal weight cancel.  Pairs on the eps and R window spheres must land
    # on the same side of each cut.
    rng = np.random.default_rng(seed)
    spec, root = _odd_spec(flavor, rng, n, int(rng.integers(1, n)))
    eps = rng.uniform(0.05, 0.5)
    R = eps * rng.uniform(2.0, 10.0)
    t = rng.uniform(0.5 * eps, 2.0 * R, pairs)
    if sphere:
        t = np.concatenate([t, [eps, R]])
    dirs = rng.normal(size=(t.size, n))
    # |L^{-1} v| = t for v = t L d / |d|.
    half = (t[:, None] * dirs / np.linalg.norm(dirs, axis=1)[:, None]) @ root.T
    w = rng.uniform(0.1, 1.0, t.size)
    order = rng.permutation(2 * t.size)
    mu = DiscreteMeasure(np.vstack([half, -half])[order],
                         np.concatenate([w, w])[order])
    out = truncated_pv(spec, mu, np.zeros(n), eps, R)
    window = (t >= eps * (1 - 1e-9)) & (t <= R * (1 + 1e-9))
    scale = 2 * sum(wk * np.linalg.norm(kernel_eval(spec, np.zeros(n), v))
                    for wk, v in zip(w[window], half[window]))
    assert np.abs(out).max() <= 1e-12 * scale


def test_truncated_pv_half_line_log(half_line_entry, identity2):
    out = truncated_pv(riesz_kernel(identity2, 1), half_line_entry.measure,
                       np.zeros(2), 0.1, 1.0)
    assert out[0] == pytest.approx(np.log(10.0), rel=0.01)
    assert out[1] == 0.0


def test_truncated_pv_additive_over_annuli(identity2):
    rng = np.random.default_rng(11)
    mu = random_cloud(rng, 60)
    spec = riesz_kernel(identity2, 1)
    x = np.array([0.05, -0.02])
    whole = truncated_pv(spec, mu, x, 0.1, 2.0)
    inner = truncated_pv(spec, mu, x, 0.1, 0.7)
    outer = truncated_pv(spec, mu, x, 0.7, 2.0)
    assert np.abs(whole - (inner + outer)).max() <= 1e-12


def test_truncated_pv_window_validation(line_entry, identity2):
    spec = riesz_kernel(identity2, 1)
    with pytest.raises(ContractError):
        truncated_pv(spec, line_entry.measure, np.zeros(2), 0.5, 0.5)
    with pytest.raises(ContractError):
        truncated_pv(spec, line_entry.measure, np.zeros(2), 0.0)


def test_truncation_flavors_differ_for_anisotropic_windows():
    field = EllipseField.constant(np.diag([2.0, 1.0]))
    spec = riesz_kernel(field, 1)
    mu = DiscreteMeasure.dirac(np.array([1.5, 0.0]))
    # ellipse window: |diag(1/2,1)(1.5,0)| = 0.75 < 1 -> excluded at eps=1,
    # although its euclidean distance 1.5 is above 1; kept at eps = 0.5
    assert np.allclose(truncated_pv(spec, mu, np.zeros(2), 1.0), 0.0)
    assert np.linalg.norm(truncated_pv(spec, mu, np.zeros(2), 0.5)) > 0


def test_scan_line_converges(line_entry, identity2):
    rep = pv_convergence_scan(riesz_kernel(identity2, 1), line_entry.measure,
                              np.zeros(2), [0.08, 0.04, 0.02, 0.01, 0.005],
                              spacing=0.001, R=0.4)
    assert rep.verdict == "converged"
    assert np.linalg.norm(rep.meta["limit"]) <= 1e-12


def test_scan_half_line_diverges_like_log(half_line_entry, identity2):
    rep = pv_convergence_scan(riesz_kernel(identity2, 1),
                              half_line_entry.measure, np.zeros(2),
                              [0.5, 0.25, 0.125, 0.0625, 0.03125],
                              spacing=0.001, R=1.0)
    assert rep.verdict == "diverging"
    diffs = rep.columns["successive_diff"][1:]
    assert all(abs(d - np.log(2)) / np.log(2) <= 0.05 for d in diffs)


def test_scan_cantor_oscillates(cantor7_entry, identity2):
    corners = cantor_construction_corners(2)
    ladder = [0.4 / 2 ** j for j in range(9)]
    rep = pv_convergence_scan(riesz_kernel(identity2, 1),
                              cantor7_entry.measure, corners[3], ladder,
                              spacing=cantor7_entry.spacing)
    assert rep.verdict == "oscillating"
    assert rep.meta["max_diff"] >= 0.05
    # locked regression magnitude: the self-similar corner geometry gives the
    # same peak swing at every construction corner (first run: 0.524)
    assert rep.meta["max_diff"] == pytest.approx(0.524, abs=0.02)


def test_scan_trivially_converges_away_from_support(identity2):
    ring = DiscreteMeasure.dirac(np.array([2.0, 0.0]))
    rep = pv_convergence_scan(riesz_kernel(identity2, 1), ring, np.zeros(2),
                              [0.8, 0.4, 0.2, 0.1], spacing=0.001)
    assert rep.verdict == "converged"
    vals = np.array([rep.columns["v1"], rep.columns["v2"]]).T
    assert np.ptp(vals, axis=0).max() == 0.0


def test_scan_guards(line_entry, identity2):
    spec = riesz_kernel(identity2, 1)
    with pytest.raises(ResolutionGuardError):
        pv_convergence_scan(spec, line_entry.measure, np.zeros(2),
                            [0.016, 0.008, 0.004, 0.002], spacing=0.001)
    with pytest.raises(ContractError):
        pv_convergence_scan(spec, line_entry.measure, np.zeros(2),
                            [0.8, 0.4, 0.3, 0.15], spacing=0.001)
    with pytest.raises(ContractError):
        pv_convergence_scan(spec, line_entry.measure, np.zeros(2),
                            [0.8, 0.4, 0.2], spacing=0.001)


@pytest.mark.parametrize("seed", range(5))
def test_layer_potential_identity(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.choice([2, 3]))
    b = rng.normal(size=(n, n))
    A = b @ b.T + n * np.eye(n)
    mu = DiscreteMeasure(rng.normal(size=(40, n)), rng.uniform(0.1, 1, 40))
    x = rng.normal(size=n) * 0.3
    eps = float(rng.uniform(0.2, 0.6))
    assert layer_potential_identity_residual(A, mu, x, eps) <= 1e-10


def test_layer_potential_identity_diag():
    rng = np.random.default_rng(13)
    A = np.diag([4.0, 1.0, 1.0])
    mu = DiscreteMeasure(rng.normal(size=(30, 3)), rng.uniform(0.1, 1, 30))
    assert layer_potential_identity_residual(A, mu, np.zeros(3), 0.3) <= 1e-10


def test_ball_average_of_constant_field():
    field = EllipseField.constant(np.diag([3.0, 1.0]))
    avg = ball_average(field, np.zeros(2), 0.5)
    assert np.allclose(avg, np.diag([3.0, 1.0]))


def test_frozen_discrepancy_constant_is_zero():
    field = EllipseField.constant(np.diag([2.0, 1.0]))
    assert frozen_discrepancy(field, np.zeros(2), 0.3) == 0.0


def test_frozen_discrepancy_lipschitz_trend():
    field = gen_lambda_field("radial_holder", alpha=1.0)
    vals = [frozen_discrepancy(field, np.zeros(2), r) for r in (0.4, 0.2, 0.1)]
    assert vals[0] > vals[1] > vals[2]


def test_frozen_discrepancy_holder_slope():
    field = gen_lambda_field("radial_holder", alpha=0.5)
    rs = np.array([0.5 * 2.0 ** -k for k in range(5)])
    vals = np.array([frozen_discrepancy(field, np.zeros(2), r) for r in rs])
    slope = np.polyfit(np.log(rs), np.log(vals), 1)[0]
    assert slope >= 0.25  # alpha / 2


def test_frozen_discrepancy_rejects_non_spd():
    field = EllipseField.constant(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ContractError):
        frozen_discrepancy(field, np.zeros(2), 0.3)


def test_frozen_discrepancy_rejects_singular_phase():
    # Regular at a, singular on part of the averaging ball B(a, 1.5 r).
    field = gen_lambda_field("checkerboard", m1=np.eye(2),
                             m2=np.zeros((2, 2)), cell=0.5)
    with pytest.raises(SingularMatrixError):
        frozen_discrepancy(field, np.array([0.1, 0.1]), 0.3)


@pytest.mark.parametrize("field,a,message", [
    # The ball average symmetrizes to I; the local matrix is not symmetric.
    (EllipseField.constant([[1.0, 0.5], [-0.5, 1.0]]), (0.0, 0.0),
     "matrix must be symmetric"),
    # The ball average has eigenvalues 0.25 and 1; the local matrix
    # diag(1, -0.5) is indefinite.
    (gen_lambda_field("checkerboard", m1=np.eye(2), m2=np.diag([1.0, -0.5]),
                      cell=1.0), (1.01, 0.5),
     "matrix must be positive definite"),
], ids=["non-symmetric", "indefinite"])
def test_frozen_discrepancy_refuses_a_local_matrix_that_is_not_spd(
        field, a, message):
    with pytest.raises(ContractError, match=message):
        frozen_discrepancy(field, np.array(a), 0.3)


@pytest.mark.parametrize("a,r,named", [
    ((np.nan, 0.0), 0.1, 1.5 * 0.1),
    ((np.inf, 0.0), 0.1, 1.5 * 0.1),
    ((0.3, 0.1), 1e308, 1.5e308),  # the cube edge 2 * 1.5 r overflows
])
def test_frozen_discrepancy_refuses_a_ball_without_nodes(a, r, named):
    field = gen_lambda_field("rotating", eccentricity=2.0, rate=1.0)
    with pytest.raises(ContractError, match=re.escape(
            f"radius {named} leaves a probe ball without quadrature nodes")):
        frozen_discrepancy(field, np.array(a), r)


@pytest.mark.parametrize("n", [1, 4])
def test_frozen_discrepancy_refuses_other_dimensions_before_averaging(n):
    def evaluate(pts):
        raise AssertionError("the field was evaluated")

    with pytest.raises(ContractError, match=f"needs dim 2 or 3, got {n}"):
        frozen_discrepancy(EllipseField(evaluate, n), np.zeros(n), 0.1)

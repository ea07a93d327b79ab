import warnings

import numpy as np
import pytest

from gmtlab.cones import FlatMeasureSpec, sample_flat
from gmtlab.corpus import gen_lambda_field
from gmtlab.errors import (MAX_ATOMS, ContractError, DiniDivergenceWarning,
                           GuardError)
from gmtlab.kernels import frozen_discrepancy
from gmtlab.measures import BALL_GRID, EllipseField, ball_means
from gmtlab.moduli import (dini_large, dini_small, dmo_report,
                           doubling_constant, omega_profile, seeded_probes,
                           tau_moduli, tau_of_modulus)

PROBES = seeded_probes(2, 16, seed=0)


def _sin_field():
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    return EllipseField(
        lambda P: (np.eye(2)[None, :, :] +
                   0.1 * np.sin(P[:, 0])[:, None, None] * e11), 2)


def test_omega_constant_field_identically_zero():
    field = gen_lambda_field("constant", matrix=np.diag([2.0, 1.0]))
    prof = omega_profile(field, PROBES, [0.8, 0.4, 0.2, 0.1])
    assert np.all(prof.omega == 0.0)
    assert prof.kappa_hat == 1.0


# The mean of many copies of each of these matrices is not the matrix itself
# in the last bit, so a mean taken by summation reads omega ~ 1e-16 for them.
CONSTANT_MATRICES = [[[0.3, 0.1], [0.1, 0.7]], [[1.3, 0.2], [0.2, 0.9]],
                     [[0.7, -0.3], [-0.3, 1.1]]]


@pytest.mark.parametrize("matrix", CONSTANT_MATRICES)
def test_a_constant_field_reads_exactly_zero_oscillation(matrix):
    # omega, its error bars, tau and tau_hat are exactly 0, and the Dini
    # integrand raises no divergence warning.
    field = EllipseField.constant(matrix)
    prof = omega_profile(field, PROBES, [0.8, 0.4, 0.2, 0.1])
    assert prof.omega.tolist() == prof.errors.tolist() == [0.0] * 4
    assert tuple(tau_moduli(field, PROBES, 0.1)) == (0.0, 0.0)


def test_omega_sin_field_decays_to_zero():
    prof = omega_profile(_sin_field(), PROBES, [0.8, 0.4, 0.2, 0.1])
    # radii are sorted ascending; oscillation shrinks with the radius
    assert np.all(np.diff(prof.omega) > 0)
    assert prof.omega[0] < 0.01


def test_omega_checkerboard_bounded_below():
    field = gen_lambda_field("checkerboard", m1=np.eye(2), m2=2 * np.eye(2),
                             cell=0.5)
    prof = omega_profile(field, PROBES, [0.8, 0.4, 0.2, 0.1])
    assert np.all(prof.omega >= 0.1)


def test_omega_scale_invariance():
    # replacing A(.) by A(lambda .) maps omega(r) to omega(lambda r)
    lam = 2.0
    base = _sin_field()
    scaled = EllipseField(lambda P: base.matrices(lam * P), 2)
    p1 = omega_profile(base, PROBES / lam, [0.8, 0.4, 0.2])
    p2 = omega_profile(scaled, PROBES / lam / lam, [0.4, 0.2, 0.1])
    assert np.allclose(p2.omega, p1.omega, atol=2e-3)


def test_omega_linear_in_perturbation_size():
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])

    def field_scaled(s):
        return EllipseField(
            lambda P: (np.eye(2)[None, :, :] +
                       s * np.sin(P[:, 0])[:, None, None] * e11), 2)

    p1 = omega_profile(field_scaled(0.1), PROBES, [0.4, 0.2])
    p2 = omega_profile(field_scaled(0.2), PROBES, [0.4, 0.2])
    assert np.allclose(p2.omega, 2.0 * p1.omega, rtol=1e-10)


def test_dini_small_closed_form():
    value = dini_small(lambda t: t, 1.0)
    assert value == pytest.approx(1.0, abs=1e-4)


def test_dini_small_zero():
    assert dini_small(lambda t: np.zeros_like(t), 1.0) == 0.0


def test_dini_small_divergence_warning():
    with pytest.warns(DiniDivergenceWarning):
        dini_small(lambda t: np.ones_like(t), 1.0)


def test_dini_small_rejects_negative():
    with pytest.raises(ContractError):
        dini_small(lambda t: -np.ones_like(t), 1.0)


def test_dini_large_closed_form():
    value = dini_large(lambda t: np.minimum(t, 1.0), 1, 0.5)
    assert value == pytest.approx(0.5 * np.log(2.0) + 0.5, abs=1e-3)


def test_dini_large_zero():
    assert dini_large(lambda t: np.zeros_like(t), 1, 0.5) == 0.0


def test_dini_large_monotone_in_d():
    theta = lambda t: np.minimum(t, 1.0)
    assert dini_large(theta, 1, 0.5) >= dini_large(theta, 2, 0.5)
    assert dini_large(theta, 2, 0.5) >= dini_large(theta, 3, 0.5)


def test_doubling_constants():
    lad = 2.0 ** np.arange(-8, 1)
    assert doubling_constant(lad, lad) == 2.0
    assert doubling_constant(lad, np.ones_like(lad)) == 1.0
    assert doubling_constant(lad, lad ** 2) == 4.0


def test_doubling_zero_handling():
    lad = 2.0 ** np.arange(-3, 1)
    assert doubling_constant(lad, np.zeros_like(lad)) == 1.0
    vals = np.array([0.0, 1.0, 1.0, 1.0])
    assert doubling_constant(lad, vals) == np.inf


def test_one_radius_profile_is_flat_extended_on_both_sides():
    prof = omega_profile(gen_lambda_field("rotating"), PROBES[:4], [0.5])
    assert prof.omega[0] > 0 and prof.kappa_hat == 1.0
    theta = prof.interpolator()
    t = np.array([1e-6, 0.1, 0.5, 2.0, 50.0])
    assert np.array_equal(theta(t), np.full(t.size, prof.omega[0]))


def test_tau_constant_field_exactly_zero():
    field = gen_lambda_field("constant", matrix=np.diag([3.0, 1.0]))
    tau, tau_hat = tau_moduli(field, PROBES, 0.1)
    assert tau == 0.0 and tau_hat == 0.0


def test_tau_decreasing_for_sin_field():
    field = _sin_field()
    t_small = tau_moduli(field, PROBES, 0.1)
    t_large = tau_moduli(field, PROBES, 0.4)
    assert t_small.tau < t_large.tau


def test_tau_equals_sum_of_its_parts():
    field = _sin_field()
    res = tau_moduli(field, PROBES, 0.2)
    prof = omega_profile(
        field, PROBES,
        10.0 * 0.5 ** np.arange(int(np.ceil(np.log2(10.0 / (0.2 / 100)))) + 1)[::-1])
    theta = prof.interpolator()
    small = dini_small(theta, 0.2)
    assert res.tau == small + dini_large(theta, 1, 0.2)
    assert res.tau_hat == small + dini_large(theta, 1, 0.2)  # n=2: both d=1


def test_tau_holder_bound():
    # C^alpha field: tau(r) / r^alpha stays bounded over the ladder
    field = gen_lambda_field("radial_holder", alpha=0.5)
    ratios = []
    for r in (0.4, 0.2, 0.1, 0.05):
        res = tau_moduli(field, PROBES, r)
        ratios.append(res.tau / r ** 0.5)
    assert max(ratios) / min(ratios) <= 3.0


def test_tau_checkerboard_warns():
    field = gen_lambda_field("checkerboard", m1=np.eye(2), m2=2 * np.eye(2),
                             cell=0.5)
    probes = np.vstack([PROBES, [[0.5, 0.25]]])  # point on a cell boundary
    with pytest.warns(DiniDivergenceWarning):
        tau_moduli(field, probes, 0.1)


def test_tau_ladder_validation():
    field = _sin_field()
    with pytest.raises(ContractError, match="too short"):
        tau_moduli(field, PROBES, 1000.0)  # ladder up to T_MAX has 1 rung


_RADIUS_TAKERS = {
    "frozen_discrepancy": lambda r: frozen_discrepancy(
        EllipseField.constant(np.eye(2)), np.zeros(2), r),
    "tau_moduli": lambda r: tau_moduli(_sin_field(), PROBES, r),
    "dini_small": lambda r: dini_small(lambda t: t, r),
    "tau_of_modulus": lambda r: tau_of_modulus(lambda t: t, 2, r),
    "sample_flat": lambda r: sample_flat(
        FlatMeasureSpec(np.array([[1.0], [0.0]]), 1.0, 0.001), r),
}


@pytest.mark.parametrize("r", [np.inf, np.nan, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(_RADIUS_TAKERS))
def test_radius_must_be_positive_and_finite(name, r):
    with pytest.raises(ContractError, match=f"positive and finite, got {r}"):
        _RADIUS_TAKERS[name](r)


@pytest.mark.parametrize("r", [5e-324, 1e-310])
def test_tau_moduli_rejects_a_radius_too_small_for_its_ladder(r):
    # Positive and finite, but r / 100 underflows or T_MAX / (r / 100)
    # overflows.
    with pytest.raises(ContractError, match=f"radius {r} is too small"):
        tau_moduli(_sin_field(), PROBES, r)


def test_dini_small_rejects_a_radius_whose_cutoff_underflows():
    with pytest.raises(ContractError, match="radius 5e-324 is too small"):
        dini_small(lambda t: t, 5e-324)


def test_omega_profile_rejects_a_radius_that_leaves_a_ball_without_nodes():
    with pytest.raises(ContractError, match="radius 1e\\+300 leaves a probe"):
        omega_profile(_sin_field(), PROBES, [1e300, 0.5])


def test_seeded_probes_refuse_a_count_above_the_sample_cap():
    with pytest.raises(GuardError, match=f"needs {MAX_ATOMS + 1} points"):
        seeded_probes(2, MAX_ATOMS + 1)


def test_omega_profile_bounds_each_field_call():
    # n = 4 at full resolution has 16^4 grid nodes per probe: one probe per
    # field call, never all probes' matrices at once.
    sizes = []

    def evaluate(pts):
        sizes.append(len(pts))
        return np.broadcast_to(np.eye(4), (len(pts), 4, 4))

    probes = seeded_probes(4, 5, seed=1)
    prof = omega_profile(EllipseField(evaluate, 4), probes, [0.5])
    assert prof.omega.tolist() == [0.0]
    assert max(sizes) <= BALL_GRID ** 4
    # five one-probe calls at full resolution, one five-probe call at half
    assert len(sizes) == 6 and sizes[:5] == [sizes[0]] * 5


def test_tau_moduli_reads_full_resolution_maxima_only(monkeypatch):
    # tau reads omega alone: no half-resolution error bars are computed,
    # and the moduli equal those of the full profile on the same ladder.
    import gmtlab.moduli as moduli
    calls = []

    def recording(field, centers, r, grid=BALL_GRID):
        calls.append((float(r), grid))
        return ball_means(field, centers, r, grid)

    field = _sin_field()
    monkeypatch.setattr(moduli, "ball_means", recording)
    got = tau_moduli(field, PROBES, 0.1)
    monkeypatch.undo()
    assert {k for _, k in calls} == {BALL_GRID}
    ladder = sorted({r for r, _ in calls})
    want = tau_of_modulus(omega_profile(field, PROBES, ladder).interpolator(),
                          2, 0.1)
    assert tuple(got) == tuple(want)


@pytest.mark.parametrize("params", [
    dict(kind="rotating", eccentricity=2.0, rate=1.0),
    dict(kind="checkerboard", m1=np.eye(2), m2=2.0 * np.eye(2), cell=0.5),
    dict(kind="radial_holder", alpha=0.5, n=2),
    dict(kind="constant", matrix=np.diag([2.0, 1.0])),
], ids=lambda p: p["kind"])
def test_dmo_report_records_where_tau_of_modulus_warns(params):
    # The table's tau columns are tau_of_modulus on the omega profile's
    # interpolator, radii ascending, and its warning column reads 1 exactly
    # where that call warns of Dini divergence; a constant field never does.
    field = gen_lambda_field(**params)
    radii = [0.4, 0.1, 0.8, 0.2]
    rep = dmo_report(field, PROBES, radii)
    theta = omega_profile(field, PROBES, radii).interpolator()
    assert rep.columns["r"] == sorted(radii)
    warned = []
    for r, tau, tau_hat in zip(sorted(radii), rep.columns["tau"],
                               rep.columns["tau_hat"], strict=True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert tuple(tau_of_modulus(theta, 2, r)) == (tau, tau_hat)
        assert all(w.category is DiniDivergenceWarning for w in caught)
        warned.append(1.0 if caught else 0.0)
    assert rep.columns["divergence_warning"] == warned
    if params["kind"] == "constant":
        assert warned == [0.0] * 4
    elif params["kind"] == "checkerboard":
        assert warned == [1.0] * 4

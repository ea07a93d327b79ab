import numpy as np
import pytest

from gmtlab.errors import (ContractError, DimensionMismatchError,
                           SingularMatrixError)
from gmtlab import measures
from gmtlab.measures import (AffineMap, AllSpace, Ball, Box, DiscreteMeasure,
                             EllipseField, EmptyRegion, HalfSpace,
                             ellipse_ball, lambda_rescale, load_measure_csv,
                             mass_in, pushforward, restrict, save_measure_csv)


def test_mass_in_line_segment(line_entry):
    # segment of length 2r plus the aligned center sample
    got = mass_in(line_entry.measure, Ball(np.zeros(2), 0.5))
    assert got == pytest.approx(1.0, abs=2 * 0.001)


def test_mass_in_ellipse_stretches_the_window(line_entry):
    ball = Ball(np.zeros(2), 0.5, matrix=np.diag([2.0, 1.0]))
    got = mass_in(line_entry.measure, ball)
    assert got == pytest.approx(2.0, abs=2 * 0.001)


def test_mass_in_atom():
    atom = DiscreteMeasure.dirac(np.zeros(2), 3.0)
    assert mass_in(atom, Ball(np.array([0.1, 0.0]), 0.5)) == 3.0


def test_mass_in_dimension_mismatch(line_entry):
    with pytest.raises(DimensionMismatchError):
        mass_in(line_entry.measure, Ball(np.zeros(3), 1.0))


def test_mass_monotone_in_radius(line_entry):
    radii = [0.1, 0.2, 0.4, 0.8]
    masses = [mass_in(line_entry.measure, Ball(np.zeros(2), r)) for r in radii]
    assert all(a <= b for a, b in zip(masses, masses[1:]))


def test_mass_additive_over_disjoint_regions(line_entry):
    # cuts at +-0.2505 fall strictly between grid points, so the closed
    # pieces partition the sample
    mu = line_entry.measure
    cut = 0.2505
    left = restrict(mu, HalfSpace(np.array([1.0, 0.0]), -cut))
    right = restrict(mu, HalfSpace(np.array([-1.0, 0.0]), -cut))
    middle = restrict(mu, Box(np.array([-cut, -1.0]), np.array([cut, 1.0])))
    total = left.total_mass + right.total_mass + middle.total_mass
    assert total == pytest.approx(mu.total_mass, rel=1e-12)


def test_restrict_idempotence(line_entry):
    mu = line_entry.measure
    inner = restrict(mu, Ball(np.zeros(2), 1.0))
    assert mass_in(inner, Ball(np.zeros(2), 2.0)) == pytest.approx(
        mass_in(mu, Ball(np.zeros(2), 1.0)))


def test_restrict_identity_and_empty(line_entry):
    mu = line_entry.measure
    assert restrict(mu, AllSpace()).total_mass == mu.total_mass
    assert restrict(mu, EmptyRegion()).total_mass == 0.0


def test_restrict_box(line_entry):
    box = Box(np.array([-0.25, -1.0]), np.array([0.25, 1.0]))
    got = restrict(line_entry.measure, box).total_mass
    assert got == pytest.approx(0.5, abs=2 * 0.001)


def test_pushforward_identity(line_entry):
    mu = line_entry.measure
    out = pushforward(mu, AffineMap.identity(2))
    assert np.array_equal(out.points, mu.points)
    assert np.array_equal(out.weights, mu.weights)


def test_pushforward_moves_points_keeps_weights():
    mu = DiscreteMeasure(np.array([[1.0, 0.0]]), [0.7])
    out = pushforward(mu, AffineMap.translate_scale(np.zeros(2), 2.0))
    assert np.allclose(out.points, [[0.5, 0.0]])
    assert out.weights[0] == 0.7


def test_pushforward_ball_preimage(line_entry):
    mu = line_entry.measure
    out = pushforward(mu, AffineMap.translate_scale(np.zeros(2), 0.25))
    assert mass_in(out, Ball(np.zeros(2), 1.0)) == pytest.approx(
        mass_in(mu, Ball(np.zeros(2), 0.25)))


def test_pushforward_rejects_singular():
    mu = DiscreteMeasure(np.zeros((1, 2)), [1.0])
    with pytest.raises(SingularMatrixError):
        pushforward(mu, AffineMap(np.array([[1.0, 0.0], [2.0, 0.0]]),
                                  np.zeros(2)))


def test_pushforward_composition_dyadic_exact():
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.normal(size=(40, 2)), rng.uniform(0.1, 1, 40))
    s = AffineMap.translate_scale(np.array([0.5, -0.25]), 2.0)
    t = AffineMap.translate_scale(np.zeros(2), 0.5)
    seq = pushforward(pushforward(mu, s), t)
    once = pushforward(mu, t.compose(s))
    assert np.array_equal(seq.points, once.points)


def test_pushforward_composition_general_close():
    rng = np.random.default_rng(1)
    mu = DiscreteMeasure(rng.normal(size=(30, 2)), rng.uniform(0.1, 1, 30))
    s = AffineMap(rng.normal(size=(2, 2)) + 2 * np.eye(2), rng.normal(size=2))
    t = AffineMap(rng.normal(size=(2, 2)) + 2 * np.eye(2), rng.normal(size=2))
    seq = pushforward(pushforward(mu, s), t)
    once = pushforward(mu, t.compose(s))
    assert np.allclose(seq.points, once.points, atol=1e-12)


def test_lambda_rescale_identity_field_matches_plain(line_entry, identity2):
    mu = line_entry.measure
    out = lambda_rescale(mu, np.zeros(2), 2.0, identity2)
    plain = pushforward(pushforward(mu, AffineMap.linear(np.eye(2))),
                        AffineMap.translate_scale(np.zeros(2), 2.0))
    assert np.array_equal(out.points, plain.points)


def test_lambda_rescale_point_map():
    field = EllipseField.constant(np.diag([2.0, 1.0]))
    mu = DiscreteMeasure(np.array([[2.0, 0.0]]), [0.3])
    out = lambda_rescale(mu, np.zeros(2), 1.0, field)
    assert np.allclose(out.points, [[1.0, 0.0]])
    assert out.weights[0] == 0.3


def test_lambda_rescale_unit_ball_equals_ellipse_mass():
    rng = np.random.default_rng(7)
    field = EllipseField.constant(np.array([[1.5, 0.3], [0.0, 0.8]]))
    mu = DiscreteMeasure(rng.normal(size=(200, 2)), rng.uniform(0.1, 1, 200))
    for r in (0.5, 1.0, 2.0):
        resc = lambda_rescale(mu, np.array([0.2, -0.1]), r, field)
        lhs = mass_in(resc, Ball(np.zeros(2), 1.0))
        rhs = mass_in(mu, ellipse_ball(np.array([0.2, -0.1]), r, field))
        assert lhs == rhs


def test_lambda_rescale_factorization_bitwise():
    rng = np.random.default_rng(9)
    field = EllipseField.constant(np.array([[2.0, 0.5], [0.1, 1.0]]))
    mu = DiscreteMeasure(rng.normal(size=(50, 2)), rng.uniform(0.1, 1, 50))
    a = np.array([0.3, 0.4])
    inv = field.inverse(a)
    direct = lambda_rescale(mu, a, 0.5, field)
    factored = pushforward(pushforward(mu, AffineMap.linear(inv)),
                           AffineMap.translate_scale(inv @ a, 0.5))
    assert np.array_equal(direct.points, factored.points)
    assert np.array_equal(direct.weights, factored.weights)


def test_lambda_rescale_rejects_bad_radius(line_entry, identity2):
    with pytest.raises(ContractError):
        lambda_rescale(line_entry.measure, np.zeros(2), 0.0, identity2)


def test_ellipse_field_rejects_near_singular():
    field = EllipseField(
        lambda P: np.broadcast_to(np.diag([1e-10, 1.0]), (len(P), 2, 2)), 2)
    with pytest.raises(SingularMatrixError):
        field.matrix(np.zeros(2))


def test_ellipse_field_matrices_rejects_singular_and_non_finite():
    def ev(P):
        out = np.broadcast_to(np.eye(2), (len(P), 2, 2)).copy()
        out[P[:, 0] > 1.0] = 0.0
        out[P[:, 0] < -1.0, 0, 0] = np.nan
        return out

    field = EllipseField(ev, 2)
    assert field.matrices(np.zeros((3, 2))).shape == (3, 2, 2)
    with pytest.raises(SingularMatrixError, match=r"at \[2\. 0\.\] has \|det\| = 0, not in"):
        field.matrices(np.array([[0.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(SingularMatrixError, match=r"\|det\| = nan"):
        field.matrices(np.array([[-2.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularMatrixError):
        EllipseField.constant(np.zeros((2, 2))).matrices(np.zeros((1, 2)))


def test_ellipse_field_matrices_checks_shapes():
    field = EllipseField(lambda P: np.zeros((len(P), 3, 3)), 2)
    with pytest.raises(ContractError, match="returned shape"):
        field.matrices(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        EllipseField.identity(2).matrices(np.zeros((2, 3)))


def test_ellipse_field_cache_is_bounded():
    calls = []

    def ev(P):
        calls.append(1)
        out = np.zeros((len(P), 2, 2))
        out[:, 0, 0] = 2.0 + P[:, 0]
        out[:, 0, 1] = P[:, 1]
        out[:, 1, 1] = 1.0
        return out

    cap = measures._FIELD_CACHE_CAP
    field = EllipseField(ev, 2)
    centers = np.column_stack([np.arange(cap + 10) * 1e-3,
                               np.full(cap + 10, 0.5)])
    for a in centers:
        field.matrix(a)
    assert len(field._cache) == cap
    assert len(calls) == cap + 10
    # The newest entries stay cached; the oldest were dropped and are
    # re-evaluated correctly on demand.
    field.inverse(centers[-1])
    assert len(calls) == cap + 10
    first = field.matrix(centers[0])
    assert len(calls) == cap + 11 and len(field._cache) == cap
    assert np.array_equal(first, ev(centers[:1])[0])
    assert np.allclose(field.inverse(centers[0]) @ first, np.eye(2))


def test_measure_invariants_enforced():
    with pytest.raises(ContractError):
        DiscreteMeasure(np.zeros((2, 2)), [1.0])  # length mismatch
    with pytest.raises(ContractError):
        DiscreteMeasure(np.zeros((1, 2)), [-1.0])  # negative weight
    with pytest.raises(ContractError):
        DiscreteMeasure(np.array([[np.inf, 0.0]]), [1.0])


def test_zero_weight_points_do_not_matter(line_entry):
    mu = line_entry.measure
    padded = DiscreteMeasure(
        np.vstack([mu.points, [[5.0, 5.0]]]),
        np.concatenate([mu.weights, [0.0]]),
    )
    ball = Ball(np.zeros(2), 0.7)
    assert mass_in(padded, ball) == mass_in(mu, ball)
    assert padded.support().shape[0] == mu.size


def test_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(rng.normal(size=(17, 3)), rng.uniform(0, 1, 17))
    path = tmp_path / "m.csv"
    save_measure_csv(mu, path)
    back = load_measure_csv(path, dim=3)
    assert np.array_equal(back.points, mu.points)
    assert np.array_equal(back.weights, mu.weights)


def test_csv_loader_validates_columns(tmp_path):
    path = tmp_path / "m.csv"
    save_measure_csv(DiscreteMeasure(np.zeros((1, 2)), [1.0]), path)
    with pytest.raises(ContractError):
        load_measure_csv(path, dim=3)

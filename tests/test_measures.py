import numpy as np
import pytest

from gmtlab.blowup import ScaleLadder, density_scan, sandwich_check
from gmtlab.errors import (ContractError, DimensionMismatchError,
                           SingularMatrixError)
from gmtlab.kernels import frozen_discrepancy, pv_convergence_scan, riesz_kernel
from gmtlab.measures import (AffineMap, Ball, DiscreteMeasure, EllipseField,
                             HalfSpace, ellipse_ball, lambda_distances,
                             lambda_rescale, load_measure_csv, mass_in,
                             pushforward, restrict, save_measure_csv)


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
    middle = restrict(restrict(mu, HalfSpace(np.array([1.0, 0.0]), cut)),
                      HalfSpace(np.array([-1.0, 0.0]), cut))
    total = left.total_mass + right.total_mass + middle.total_mass
    assert total == pytest.approx(mu.total_mass, rel=1e-12)


def test_restrict_idempotence(line_entry):
    mu = line_entry.measure
    inner = restrict(mu, Ball(np.zeros(2), 1.0))
    assert mass_in(inner, Ball(np.zeros(2), 2.0)) == pytest.approx(
        mass_in(mu, Ball(np.zeros(2), 1.0)))


def test_restrict_identity_and_empty(line_entry):
    mu = line_entry.measure
    everything = restrict(mu, HalfSpace(np.array([1.0, 0.0]), 2.0))
    assert np.array_equal(everything.points, mu.points)
    assert np.array_equal(everything.weights, mu.weights)
    nothing = restrict(mu, HalfSpace(np.array([1.0, 0.0]), -2.0))
    assert (nothing.size, nothing.dim, nothing.total_mass) == (0, 2, 0.0)


def test_restrict_box(line_entry):
    # the slab |x_1| <= 0.25 as the intersection of two half-spaces
    right = restrict(line_entry.measure, HalfSpace(np.array([1.0, 0.0]), 0.25))
    got = restrict(right, HalfSpace(np.array([-1.0, 0.0]), 0.25)).total_mass
    assert got == pytest.approx(0.5, abs=2 * 0.001)


def _scale(r, a=(0.0, 0.0)):
    """The rescaling y |-> (y - a) / r about the point ``a``."""
    return AffineMap(np.eye(2) / r, -np.asarray(a) / r)


def test_pushforward_identity(line_entry):
    mu = line_entry.measure
    out = pushforward(mu, AffineMap(np.eye(2), np.zeros(2)))
    assert np.array_equal(out.points, mu.points)
    assert np.array_equal(out.weights, mu.weights)


def test_pushforward_moves_points_keeps_weights():
    mu = DiscreteMeasure(np.array([[1.0, 0.0]]), [0.7])
    out = pushforward(mu, _scale(2.0))
    assert np.allclose(out.points, [[0.5, 0.0]])
    assert out.weights[0] == 0.7


def test_pushforward_ball_preimage(line_entry):
    mu = line_entry.measure
    out = pushforward(mu, _scale(0.25))
    assert mass_in(out, Ball(np.zeros(2), 1.0)) == pytest.approx(
        mass_in(mu, Ball(np.zeros(2), 0.25)))


def test_pushforward_rejects_singular():
    mu = DiscreteMeasure(np.zeros((1, 2)), [1.0])
    with pytest.raises(SingularMatrixError):
        pushforward(mu, AffineMap(np.array([[1.0, 0.0], [2.0, 0.0]]),
                                  np.zeros(2)))


def _compose(t, s):
    """The affine map t o s (apply s first)."""
    return AffineMap(t.matrix @ s.matrix, t.matrix @ s.offset + t.offset)


@pytest.mark.parametrize("matrix", [
    [[1e7, 0.0], [0.0, 1e7]], [[1e-7, 0.0], [0.0, 1e-7]],
    [[0.0, -3e-9], [3e-9, 0.0]], [[1e7, 1.0], [0.0, 1e-7]]])
def test_invertible_maps_are_accepted_at_any_scale(matrix):
    # The singularity floor is relative to the column norms, so a scaled
    # orthogonal map (or a well-conditioned one) passes at any scale.
    m = np.array(matrix)
    assert np.array_equal(AffineMap(m, np.zeros(2)).matrix, m)
    assert np.array_equal(Ball(np.zeros(2), 1.0, matrix=m).matrix, m)


@pytest.mark.parametrize("matrix", [
    [[1e7, 0.0], [2e7, 0.0]], [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 1.0], [1.0, 1.0 + 1e-14]], [[np.nan, 0.0], [0.0, 1.0]]])
def test_singular_or_nan_maps_are_refused(matrix):
    m = np.array(matrix)
    with pytest.raises(SingularMatrixError, match="singular linear part"):
        AffineMap(m, np.zeros(2))
    with pytest.raises(SingularMatrixError, match="ellipse matrix"):
        Ball(np.zeros(2), 1.0, matrix=m)


INF = float("inf")


@pytest.mark.parametrize("matrix, ball_ok, map_ok", [
    # An infinite entry: the inverse would be finite but degenerate, a strip
    # ([[inf, 0], [0, 1]]) or all zeros ([[inf, 1], [1, inf]]).
    ([[INF, 0.0], [0.0, 1.0]], False, False),
    ([[INF, 1.0], [1.0, INF]], False, False),
    # Scaled identities, whose det under- or overflows.
    ([[1e-200, 0.0], [0.0, 1e-200]], True, True),
    ([[1e200, 0.0], [0.0, 1e200]], True, True),
    # A subnormal column: invertible as a map, but its inverse is not finite.
    ([[1e-320, 0.0], [0.0, 1.0]], False, True)],
    ids=["inf-entry", "inf-diagonal", "1e-200-I", "1e200-I", "subnormal"])
def test_matrices_are_refused_when_not_finite_and_judged_at_any_scale(
        matrix, ball_ok, map_ok):
    m = np.array(matrix)
    if map_ok:
        assert np.array_equal(AffineMap(m, np.zeros(2)).matrix, m)
    else:
        with pytest.raises(SingularMatrixError, match="singular linear part"):
            AffineMap(m, np.zeros(2))
    if ball_ok:
        ball = Ball(np.zeros(2), 1.0, matrix=m)
        assert np.array_equal(ball.matrix, m)
        assert ball.contains(np.zeros((1, 2))).tolist() == [True]
    else:
        with pytest.raises(SingularMatrixError, match="ellipse matrix"):
            Ball(np.zeros(2), 1.0, matrix=m)


def test_ball_membership_reads_an_overflowing_distance_as_outside():
    mu = DiscreteMeasure(np.array([[1e200, 0.0], [0.5, 0.0]]), [1.0, 2.0])
    for ball in (Ball(np.zeros(2), 1.0),
                 Ball(np.zeros(2), 1.0, matrix=np.diag([0.5, 1.0]))):
        assert restrict(mu, ball).points.tolist() == [[0.5, 0.0]]
    # The mass of one ball still refuses the center by name.
    with pytest.raises(ContractError, match="too far from the sample"):
        mass_in(mu, Ball(np.zeros(2), 1.0))


@pytest.mark.parametrize("n", range(1, 8))
def test_lambda_distances_match_the_numpy_norm_bit_for_bit(n):
    # Below 8 coordinates the squares are added column by column; the bits
    # must be those of numpy's reduction, on (N, n) rows and on a (P, K, n)
    # stack of balls, with magnitudes from 1e-8 to 1e8 in one row.
    rng = np.random.default_rng(n)
    for shape in ((1000, n), (9, 37, n)):
        points = rng.normal(size=shape) * 10.0 ** rng.uniform(-8, 8, shape)
        center = rng.normal(size=n) * 10.0 ** rng.uniform(-8, 8, n)
        inv = rng.normal(size=(n, n))
        for matrix in (None, inv):
            u, dist = lambda_distances(points, center, matrix)
            assert np.array_equal(
                u, points - center if matrix is None
                else (points - center) @ matrix.T)
            assert dist.shape == shape[:-1]
            assert np.array_equal(dist, np.sqrt(np.sum(u * u, axis=-1)))


def test_pushforward_composition_dyadic_exact():
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.normal(size=(40, 2)), rng.uniform(0.1, 1, 40))
    s = _scale(2.0, [0.5, -0.25])
    t = _scale(0.5)
    seq = pushforward(pushforward(mu, s), t)
    once = pushforward(mu, _compose(t, s))
    assert np.array_equal(seq.points, once.points)


def test_pushforward_composition_general_close():
    rng = np.random.default_rng(1)
    mu = DiscreteMeasure(rng.normal(size=(30, 2)), rng.uniform(0.1, 1, 30))
    s = AffineMap(rng.normal(size=(2, 2)) + 2 * np.eye(2), rng.normal(size=2))
    t = AffineMap(rng.normal(size=(2, 2)) + 2 * np.eye(2), rng.normal(size=2))
    seq = pushforward(pushforward(mu, s), t)
    once = pushforward(mu, _compose(t, s))
    assert np.allclose(seq.points, once.points, atol=1e-12)


def test_lambda_rescale_identity_field_matches_plain(line_entry, identity2):
    mu = line_entry.measure
    out = lambda_rescale(mu, np.zeros(2), 2.0, identity2)
    plain = pushforward(pushforward(mu, AffineMap(np.eye(2), np.zeros(2))),
                        _scale(2.0))
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
    # The rescaling factors as u = M(a)^{-1}(y - a), then u / r: the rows of
    # the distance pass a blowup rung divides by its radius.
    direct = lambda_rescale(mu, a, 0.5, field)
    factored = ((mu.points - a) @ field.inverse(a).T) / 0.5
    assert np.array_equal(direct.points, factored)
    assert np.array_equal(direct.weights, mu.weights)


def test_lambda_rescale_by_a_large_constant_field():
    # M = 1e7 I: the rescaling is (y - a) / (1e7 r), up to rounding.
    rng = np.random.default_rng(9)
    mu = DiscreteMeasure(rng.normal(size=(50, 2)), rng.uniform(0.1, 1, 50))
    a, r = np.array([0.3, 0.4]), 0.5
    out = lambda_rescale(mu, a, r, EllipseField.constant(1e7 * np.eye(2)))
    expected = (mu.points - a) / (1e7 * r)
    assert np.abs(out.points - expected).max() <= 1e-15 * np.abs(
        mu.points).max() / (1e7 * r)
    assert np.array_equal(out.weights, mu.weights)


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


def _counted_field():
    """A smooth SPD field and the list of the point counts it was asked for."""
    calls = []

    def ev(P):
        calls.append(len(P))
        out = np.zeros((len(P), 2, 2))
        out[:, 0, 0] = 2.0 + 0.1 * P[:, 0]
        out[:, 0, 1] = out[:, 1, 0] = 0.1 * P[:, 1]
        out[:, 1, 1] = 1.0
        return out

    return EllipseField(ev, 2), calls


def test_ellipse_field_cache_is_bounded():
    # The field remembers one point, the last one asked for.
    field, calls = _counted_field()
    a, b = np.array([0.1, 0.5]), np.array([0.2, 0.5])
    first, first_inv = field.matrix(a), field.inverse(a)
    field.inverse(a.copy())
    assert calls == [1]
    assert not (first.flags.writeable or first_inv.flags.writeable)
    field.matrix(b)
    assert calls == [1, 1]
    # A point asked for earlier is evaluated again, to equal bits.
    again, again_inv = field.matrix(a), field.inverse(a)
    assert calls == [1, 1, 1]
    assert np.array_equal(again, first) and np.array_equal(again_inv,
                                                           first_inv)
    assert np.allclose(first_inv @ first, np.eye(2))


def test_the_scans_at_one_base_point_evaluate_the_field_there_once(
        line_entry):
    field, calls = _counted_field()
    mu, a = line_entry.measure, np.array([0.25, 0.0])
    ladder = ScaleLadder(r0=0.5, rho=0.5, count=4, spacing=0.001)
    pv_convergence_scan(riesz_kernel(field, 1), mu, a,
                        [0.08, 0.04, 0.02, 0.01], spacing=0.001, R=0.4)
    density_scan(mu, a, field, 1, ladder)
    sandwich_check(mu, a, field, 1, ladder, [0.5, 1.0])
    frozen_discrepancy(field, a, 0.1)
    # One one-point evaluation; the frozen drift's ball average is one
    # quadrature batch.
    assert calls.count(1) == 1 and len(calls) == 2


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

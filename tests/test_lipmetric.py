import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import random_cloud
from gmtlab import lipmetric, transport
from gmtlab.errors import (ContractError, DimensionMismatchError, LpSizeError,
                           SolverError)
from gmtlab.lipmetric import (assemble_ball_lp, f_ball, f_ball_potential,
                              f_scaling_residual, f_series, solve_ball_lp,
                              solve_ball_lp_potential)
from gmtlab.measures import DiscreteMeasure
from gmtlab.simplex import simplex_max_bounded


def _grid_oracle_1d(mu, nu, r, grid_n=400):
    """Dense-grid brute force for 1-D instances embedded on the x-axis.

    Potential values on a fine grid (plus the exact site coordinates) with
    the same Lipschitz/cap constraint structure, solved by an external LP
    engine; independent of the production path.
    """
    xs = np.concatenate([
        np.linspace(-r, r, grid_n),
        mu.points[:, 0], nu.points[:, 0],
    ])
    xs = np.unique(xs[np.abs(xs) <= r])
    order = np.argsort(xs)
    xs = xs[order]
    k = xs.size
    # signed mass per grid point (exact coordinate match)
    mass = np.zeros(k)
    for pts, w, sign in ((mu.points, mu.weights, 1.0),
                         (nu.points, nu.weights, -1.0)):
        for p, wi in zip(pts[:, 0], w):
            if abs(p) <= r:
                mass[np.searchsorted(xs, p)] += sign * wi
    # adjacent Lipschitz constraints suffice in 1-D (distances add up)
    rows, rhs = [], []
    for i in range(k - 1):
        row = np.zeros(k)
        row[i], row[i + 1] = 1.0, -1.0
        rows.append(row.copy())
        rhs.append(xs[i + 1] - xs[i])
        row[i], row[i + 1] = -1.0, 1.0
        rows.append(row)
        rhs.append(xs[i + 1] - xs[i])
    caps = r - np.abs(xs)
    res = linprog(-mass, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=list(zip(-caps, caps)), method="highs")
    assert res.status == 0
    return -res.fun


def test_identical_measures_vanish(line_entry):
    assert f_ball(line_entry.measure, line_entry.measure, 1.0) == 0.0


def test_atom_against_zero():
    atom = DiscreteMeasure.dirac(np.zeros(2), 3.0)
    assert f_ball(atom, DiscreteMeasure.empty(2), 1.0) == pytest.approx(3.0)


def test_two_atoms_half_apart():
    a = DiscreteMeasure.dirac(np.zeros(2))
    b = DiscreteMeasure.dirac(np.array([0.5, 0.0]))
    assert f_ball(a, b, 1.0) == pytest.approx(0.5, abs=1e-9)


def test_rejects_bad_inputs():
    mu = DiscreteMeasure.dirac(np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        f_ball(mu, DiscreteMeasure.dirac(np.zeros(3)), 1.0)
    with pytest.raises(ContractError):
        f_ball(mu, mu, 0.0)


def test_site_cap_enforced():
    rng = np.random.default_rng(0)
    mu = DiscreteMeasure(rng.uniform(-0.5, 0.5, size=(400, 2)),
                         np.ones(400))
    nu = DiscreteMeasure(rng.uniform(-0.5, 0.5, size=(400, 2)),
                         np.ones(400))
    with pytest.raises(LpSizeError):
        f_ball(mu, nu, 1.0)


def test_one_signed_any_size_closed_form():
    rng = np.random.default_rng(1)
    mu = DiscreteMeasure(rng.uniform(-0.5, 0.5, size=(2000, 2)),
                         rng.uniform(0, 1, 2000))
    caps = 1.0 - np.linalg.norm(mu.points, axis=1)
    assert f_ball(mu, DiscreteMeasure.empty(2), 1.0) == pytest.approx(
        float(mu.weights @ caps))


def test_supports_outside_ball_give_zero():
    mu = DiscreteMeasure.dirac(np.array([5.0, 0.0]))
    nu = DiscreteMeasure.dirac(np.array([-7.0, 0.0]))
    assert f_ball(mu, nu, 1.0) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_grid_oracle_1d(seed):
    rng = np.random.default_rng(seed)
    na, nb = rng.integers(2, 9, 2)
    mu = DiscreteMeasure(
        np.column_stack([rng.uniform(-1, 1, na), np.zeros(na)]),
        rng.uniform(0.1, 1.0, na))
    nu = DiscreteMeasure(
        np.column_stack([rng.uniform(-1, 1, nb), np.zeros(nb)]),
        rng.uniform(0.1, 1.0, nb))
    mine = f_ball(mu, nu, 1.0)
    oracle = _grid_oracle_1d(mu, nu, 1.0)
    assert mine == pytest.approx(oracle, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_transport_agrees_with_dense_simplex(seed):
    # The pure-numpy reference LP on the full primal program: every ordered
    # pair row f_i - f_j <= |x_i - x_j| and the box |f_i| <= cap_i.
    rng = np.random.default_rng(40 + seed)
    mu = random_cloud(rng, int(rng.integers(3, 16)))
    nu = random_cloud(rng, int(rng.integers(3, 16)))
    lp = assemble_ball_lp(mu, nu, float(rng.uniform(0.6, 2.0)))
    i, j = np.nonzero(~np.eye(lp.size, dtype=bool))
    A = np.zeros((i.size, lp.size))
    A[np.arange(i.size), i] = 1.0
    A[np.arange(i.size), j] = -1.0
    dist = np.sqrt(np.sum((lp.sites[i] - lp.sites[j]) ** 2, axis=1))
    ref = simplex_max_bounded(A, dist, lp.signed_mass, -lp.caps, lp.caps)
    v1 = solve_ball_lp(lp)
    assert v1 == pytest.approx(ref.value, abs=1e-8 * (1 + v1))


def test_potential_is_feasible_and_attains_value():
    rng = np.random.default_rng(3)
    mu = random_cloud(rng, 10)
    nu = random_cloud(rng, 8)
    value, sites, f = f_ball_potential(mu, nu, 1.2)
    caps = 1.2 - np.linalg.norm(sites, axis=1)
    assert np.all(np.abs(f) <= caps + 1e-9)
    dist = np.linalg.norm(sites[:, None, :] - sites[None, :, :], axis=-1)
    gap = np.abs(f[:, None] - f[None, :]) - dist
    assert gap.max() <= 1e-9
    lp = assemble_ball_lp(mu, nu, 1.2)
    assert value == pytest.approx(float(lp.signed_mass @
                                        f[_match(sites, lp.sites)]), abs=1e-9)


def _match(sites_a, sites_b):
    # sites returned in assembly order; map b-rows into a-rows
    index = {tuple(p): i for i, p in enumerate(map(tuple, sites_a))}
    return np.array([index[tuple(p)] for p in map(tuple, sites_b)])


@pytest.mark.parametrize("seed", range(8))
def test_metric_axioms_on_seeded_clouds(seed):
    rng = np.random.default_rng(200 + seed)
    mu = random_cloud(rng, int(rng.integers(4, 12)))
    nu = random_cloud(rng, int(rng.integers(4, 12)))
    rho = random_cloud(rng, int(rng.integers(4, 12)))
    ab = f_ball(mu, nu, 1.0)
    ba = f_ball(nu, mu, 1.0)
    assert ab >= 0.0
    assert ab == pytest.approx(ba, abs=1e-7)
    ac = f_ball(mu, rho, 1.0)
    cb = f_ball(rho, nu, 1.0)
    assert ac <= ab + cb + 1e-7


def test_identity_of_indiscernibles():
    # distinct supports inside the ball separate at solver tolerance
    rng = np.random.default_rng(51)
    for _ in range(5):
        mu = random_cloud(rng, 6, spread=0.4)
        nu = random_cloud(rng, 6, spread=0.4)
        assert f_ball(mu, nu, 1.0) > 1e-7


def test_monotone_in_radius():
    rng = np.random.default_rng(17)
    mu = random_cloud(rng, 9)
    nu = random_cloud(rng, 7)
    vals = [f_ball(mu, nu, r) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def test_series_of_identical_measures(line_entry):
    res = f_series(line_entry.measure, line_entry.measure, 5)
    assert res.value == 0.0
    assert res.tail_bound == 2.0 ** -5


def test_series_saturating_atom():
    atom = DiscreteMeasure.dirac(np.zeros(2), 3.0)
    res = f_series(atom, DiscreteMeasure.empty(2), 20)
    # every term saturates at 1: F_l = 3l >= 1
    assert res.value == pytest.approx(1.0 - 2.0 ** -20, abs=1e-15)
    assert res.tail_bound == 2.0 ** -20


def test_series_triangle_inequality():
    rng = np.random.default_rng(23)
    mu = random_cloud(rng, 6)
    nu = random_cloud(rng, 6)
    rho = random_cloud(rng, 6)
    f = lambda a, b: f_series(a, b, 8).value
    assert f(mu, rho) <= f(mu, nu) + f(nu, rho) + 1e-7


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_scaling_residual_small(r):
    rng = np.random.default_rng(31)
    mu = random_cloud(rng, 10, spread=0.5)
    nu = random_cloud(rng, 8, spread=0.5)
    fr = f_ball(mu, nu, r)
    assert f_scaling_residual(mu, nu, r) <= 1e-7 * (1 + fr)


def test_scaling_residual_at_a_large_scale():
    # y -> y / 1e7 has det 1e-14 in the plane; it is invertible, and the
    # residual is solver noise like at any other scale.
    rng = np.random.default_rng(31)
    mu = random_cloud(rng, 10, spread=0.5)
    nu = random_cloud(rng, 8, spread=0.5)
    fr = f_ball(mu, nu, 1e7)
    assert f_scaling_residual(mu, nu, 1e7) <= 1e-7 * (1 + fr)


def test_ball_membership_of_an_overflowing_atom_does_not_warn():
    # |x|^2 overflows for an atom at (1e200, 1e200); it is outside every
    # finite ball, and the suite turns any warning into an error.
    mu = DiscreteMeasure(np.array([[0.5, 0.0], [1e200, 1e200]]), [1.0, 2.0])
    lp = assemble_ball_lp(mu, DiscreteMeasure.empty(2), 1.0)
    assert lp.sites.tolist() == [[0.5, 0.0]]
    assert f_ball(mu, DiscreteMeasure.empty(2), 1.0) == 0.5


def test_scaling_residual_exact_at_unit():
    # At r = 1 the rescaled program is the direct one, bit for bit, so a
    # mixed pair costs one transport solve.
    rng = np.random.default_rng(37)
    mu = random_cloud(rng, 6)
    nu = random_cloud(rng, 6)
    with mock.patch.object(transport, "transport_simplex",
                           wraps=transport.transport_simplex) as solve:
        assert f_scaling_residual(mu, nu, 1.0) == 0.0
    assert solve.call_count == 1


def test_corrupted_duals_fail_the_potential_gap_audit(monkeypatch):
    # Lowering every column dual keeps the duals feasible, so only the gap
    # between sum(mass * f) and the value can catch them.
    real = transport.transport_simplex

    def corrupted(*args, **kwargs):
        value, alpha, beta = real(*args, **kwargs)
        return value, alpha, beta - 0.25
    monkeypatch.setattr(transport, "transport_simplex", corrupted)
    lp = assemble_ball_lp(DiscreteMeasure.dirac(np.zeros(2), 0.5),
                          DiscreteMeasure.dirac(np.array([0.1, 0.0])), 2.0)
    with pytest.raises(SolverError, match="c-transform"):
        solve_ball_lp_potential(lp)


def _hostile_pair(rng, n_mu, n_nu, r, dup, sphere, cancel):
    """Two clouds in the ball with the atoms the potential must survive."""
    p_mu = rng.normal(size=(n_mu, 2)) * (0.5 * r)
    w_mu = rng.uniform(0.1, 1.0, n_mu)
    p_nu = rng.normal(size=(n_nu, 2)) * (0.5 * r)
    w_nu = rng.uniform(0.1, 1.0, n_nu)
    if dup:
        # Exact duplicates within mu, and nu atoms on mu's, some of them
        # cancelling exactly when duplicates merge.
        p_mu[-1] = p_mu[0]
        k = min(n_mu, n_nu) // 2
        p_nu[:k] = p_mu[:k]
        w_nu[:k // 2] = w_mu[:k // 2]
    if sphere:
        # Atoms on |x| = r: axis points exactly, the rest up to rounding.
        t = rng.uniform(0.0, 2.0 * np.pi, 2)
        p_mu[0] = [r, 0.0]
        p_nu[-1] = [0.0, -r]
        p_mu[1] = r * np.array([np.cos(t[0]), np.sin(t[0])])
        p_nu[0] = r * np.array([np.cos(t[1]), np.sin(t[1])])
    if cancel:
        # nu repeats mu with masses off by one part in 1e9 (either sign).
        p_nu, w_nu = p_mu.copy(), w_mu * (1.0 + 1e-9 * rng.choice(
            [-1.0, 1.0], n_mu))
    return DiscreteMeasure(p_mu, w_mu), DiscreteMeasure(p_nu, w_nu)


@settings(max_examples=200)
@given(seed=st.integers(0, 2 ** 32 - 1), n_mu=st.integers(2, 14),
       n_nu=st.integers(2, 14), r=st.sampled_from([0.5, 1.0, 2.0]),
       dup=st.booleans(), sphere=st.booleans(), cancel=st.booleans())
def test_dual_recovered_potential_is_feasible_and_attains_value(
        seed, n_mu, n_nu, r, dup, sphere, cancel):
    rng = np.random.default_rng(seed)
    mu, nu = _hostile_pair(rng, n_mu, n_nu, r, dup, sphere, cancel)
    value, sites, f = f_ball_potential(mu, nu, r)
    assert value == f_ball(mu, nu, r)
    lp = assemble_ball_lp(mu, nu, r)
    assert np.array_equal(sites, lp.sites)
    dist = np.sqrt(np.sum((sites[:, None] - sites[None]) ** 2, axis=-1))
    assert np.all(np.abs(f[:, None] - f[None, :]) <= dist + 1e-12)
    assert np.all(np.abs(f) <= lp.caps + 1e-12)
    assert abs(float(lp.signed_mass @ f) - value) <= 1e-9 * (1 + value)


_TOL = lipmetric.SOLVER_TOL


def _quarter_turn(measure):
    """The measure turned by pi/2: (x, y) -> (-y, x), exact in floats."""
    pts = measure.points
    return DiscreteMeasure(np.column_stack([-pts[:, 1], pts[:, 0]]),
                           measure.weights)


_HOSTILE = dict(seed=st.integers(0, 2 ** 32 - 1), n_mu=st.integers(2, 12),
                n_nu=st.integers(2, 12), r=st.sampled_from([0.5, 1.0, 2.0]),
                dup=st.booleans(), sphere=st.booleans(),
                cancel=st.booleans())


@settings(max_examples=60)
@given(**_HOSTILE)
def test_hostile_triangle_inequality(seed, n_mu, n_nu, r, dup, sphere, cancel):
    rng = np.random.default_rng(seed)
    mu, nu = _hostile_pair(rng, n_mu, n_nu, r, dup, sphere, cancel)
    rho = _hostile_pair(rng, n_nu, n_mu, r, dup, sphere, cancel)[1]
    for a, b, c in [(mu, nu, rho), (nu, rho, mu), (rho, mu, nu)]:
        ac, ab, bc = f_ball(a, c, r), f_ball(a, b, r), f_ball(b, c, r)
        assert ac <= ab + bc + _TOL * (1 + ab + bc)


@settings(max_examples=60)
@given(**_HOSTILE)
def test_hostile_monotone_in_radius(seed, n_mu, n_nu, r, dup, sphere, cancel):
    # A potential supported in B(0, r) is feasible in every larger ball.
    rng = np.random.default_rng(seed)
    mu, nu = _hostile_pair(rng, n_mu, n_nu, r, dup, sphere, cancel)
    vals = [f_ball(mu, nu, t * r) for t in (0.25, 0.5, 1.0, 1.5, 3.0)]
    assert all(a <= b + _TOL * (1 + b) for a, b in zip(vals, vals[1:]))


@settings(max_examples=60)
@given(angle=st.floats(0.0, 2 * np.pi), **_HOSTILE)
def test_hostile_rotation_invariance(seed, n_mu, n_nu, r, dup, sphere, cancel,
                                     angle):
    rng = np.random.default_rng(seed)
    mu, nu = _hostile_pair(rng, n_mu, n_nu, r, dup, sphere, cancel)
    value = f_ball(mu, nu, r)
    # Quarter turns move every point exactly and keep every distance and cap
    # bit for bit: the same program up to the order of its sites.
    turned = (mu, nu)
    for _ in range(4):
        turned = tuple(map(_quarter_turn, turned))
        assert abs(f_ball(*turned, r) - value) <= 1e-12 * (1 + value)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    spun = [DiscreteMeasure(m.points @ rot.T, m.weights) for m in (mu, nu)]
    # A general turn moves atoms by rounding, which can carry a sphere atom
    # just outside the ball.
    if not sphere:
        assert abs(f_ball(*spun, r) - value) <= _TOL * (1 + value)


@settings(max_examples=60)
@given(**_HOSTILE)
def test_hostile_scaling_identity(seed, n_mu, n_nu, r, dup, sphere, cancel):
    # F_r(mu, nu) = r F_1(mu / r, nu / r); the radii are powers of two, so the
    # rescaled program has exactly the rescaled sites and caps.
    rng = np.random.default_rng(seed)
    mu, nu = _hostile_pair(rng, n_mu, n_nu, r, dup, sphere, cancel)
    value = f_ball(mu, nu, r)
    assert f_scaling_residual(mu, nu, r) <= 1e-12 * (1 + value)


def _series_by_every_term(mu, nu, max_terms):
    """The metric series with every term solved: the reference f_series
    must equal bit for bit."""
    return sum(2.0 ** (-ell) * min(1.0, f_ball(mu, nu, float(ell)))
               for ell in range(1, max_terms + 1))


def _scaled(measure, factor):
    return DiscreteMeasure(measure.points, measure.weights * factor)


@settings(max_examples=120)
@given(max_terms=st.integers(1, 6), mass=st.sampled_from([0.25, 1.0, 4.0]),
       near_one=st.booleans(), offset=st.floats(-1e-12, 1e-12), **_HOSTILE)
def test_series_equals_every_term_solved(seed, n_mu, n_nu, r, dup, sphere,
                                         cancel, max_terms, mass, near_one,
                                         offset):
    # Plain and adversarial pairs at three mass scales, and pairs scaled so
    # that F_1 lands within 1e-12 of 1, where a skipped term is closest to
    # one that would have been solved.
    rng = np.random.default_rng(seed)
    mu, nu = _hostile_pair(rng, n_mu, n_nu, r, dup, sphere, cancel)
    mu, nu = _scaled(mu, mass), _scaled(nu, mass)
    # A cancelling pair's F_1 is a difference of masses 1e-9 apart, which a
    # rescale of the masses moves by about 1e-7: it is not scaled to 1.
    if near_one and not cancel and f_ball(mu, nu, 1.0) > 0.0:
        factor = (1.0 + offset) / f_ball(mu, nu, 1.0)
        mu, nu = _scaled(mu, factor), _scaled(nu, factor)
        assert abs(f_ball(mu, nu, 1.0) - 1.0) <= 2e-12
    res = f_series(mu, nu, max_terms)
    assert res.value == _series_by_every_term(mu, nu, max_terms)
    assert res.tail_bound == 2.0 ** (-max_terms)


def _saturated_at_one():
    """A pair with F_1 = 2 that only a solve finds: the closed-form bound
    sum(mass * caps) is 0 at every radius."""
    return (DiscreteMeasure.dirac(np.array([-0.5, 0.0]), 2.0),
            DiscreteMeasure.dirac(np.array([0.5, 0.0]), 2.0))


def test_series_stops_solving_once_a_term_saturates():
    mu, nu = _saturated_at_one()
    with mock.patch.object(transport, "transport_simplex",
                           wraps=transport.transport_simplex) as solve:
        res = f_series(mu, nu, 20)
    assert solve.call_count <= 1
    assert res.value == _series_by_every_term(mu, nu, 20) == 1.0 - 2.0 ** -20


def test_series_with_a_huge_max_terms_stops_where_the_weights_vanish():
    # 2.0 ** -l is 0.0 from l = 1075 on, so the sum of 10^30 terms is that
    # of 1074 terms, bit for bit, and the tail bound 2^{-10^30} is 0.0.
    mu, nu = _saturated_at_one()
    res = f_series(mu, nu, 10 ** 30)
    assert res == (f_series(mu, nu, 1074).value, 0.0)
    assert res.value == sum(2.0 ** -ell for ell in range(1, 1200))
    assert f_series(mu, nu, 1074).tail_bound == 2.0 ** -1074 > 0.0


def test_series_saturated_before_a_ball_over_the_site_cap():
    # 300 atoms of each sign on the circle of radius 1.5: outside B(0, 1),
    # inside B(0, 2), where they are more than SITE_CAP sites.  The series
    # saturates at l = 1 and never assembles l = 2.
    mu, nu = _saturated_at_one()
    t = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)
    ring = 1.5 * np.column_stack([np.cos(t), np.sin(t)])
    mu = DiscreteMeasure(np.vstack([mu.points, ring[::2]]),
                         np.concatenate([mu.weights, np.full(300, 0.01)]))
    nu = DiscreteMeasure(np.vstack([nu.points, ring[1::2]]),
                         np.concatenate([nu.weights, np.full(300, 0.01)]))
    with pytest.raises(LpSizeError):
        f_ball(mu, nu, 2.0)
    assert f_series(mu, nu, 3).value == 1.0 - 2.0 ** -3


def _merge_by_unique(pts, mass):
    """The site merge as `np.unique(axis=0)` with `np.add.at` computes it."""
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    merged = np.zeros(uniq.shape[0])
    np.add.at(merged, inverse, mass)
    keep = merged != 0.0
    return uniq[keep], merged[keep]


def _hostile_cloud(rng, k, dim):
    """Rows with -0.0 and 0.0 coordinates, sphere atoms, exact duplicates
    and masses that cancel exactly or nearly.  Each coordinate has one sign
    of zero, so no two rows differ only in the sign of a zero."""
    pts = rng.normal(size=(k, dim)) * 0.5
    mass = rng.uniform(0.1, 1.0, k) * rng.choice([-1.0, 1.0], k)
    zero = rng.choice([0.0, -0.0], dim)
    zeros = rng.random((k, dim)) < 0.2
    pts[zeros] = np.broadcast_to(zero, pts.shape)[zeros]
    # Sphere atoms: axis points exactly, the rest up to rounding.
    for i in rng.choice(k, k // 5, replace=False):
        if rng.random() < 0.5:
            pts[i] = zero
            pts[i, rng.integers(dim)] = rng.choice([-1.0, 1.0])
        else:
            pts[i] /= np.linalg.norm(pts[i]) or 1.0
    # Exact duplicates, a third of them cancelling and some nearly so.
    src = rng.integers(0, k, k // 2)
    dst = rng.integers(0, k, k // 2)
    pts[dst] = pts[src]
    third = (k // 2) // 3
    mass[dst[:third]] = -mass[src[:third]]
    mass[dst[third:2 * third]] = -mass[src[third:2 * third]] * (1 + 1e-12)
    return pts, mass


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_site_merge_matches_unique(dim):
    rng = np.random.default_rng(dim)
    for _ in range(300):
        pts, mass = _hostile_cloud(rng, int(rng.integers(1, 120)), dim)
        got_pts, got_mass = lipmetric._merge_duplicates(pts, mass)
        ref_pts, ref_mass = _merge_by_unique(pts, mass)
        assert got_pts.tobytes() == ref_pts.tobytes()
        assert got_mass.tobytes() == ref_mass.tobytes()


def test_site_merge_keeps_the_first_of_signed_zero_twins():
    # Rows that differ only in the sign of a zero are one site; np.unique
    # keeps either (its quicksort is not stable), the merge the first in
    # input order.  Values, order and masses agree with np.unique.
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = int(rng.integers(2, 200))
        pts = rng.choice([0.0, -0.0, 0.5, -0.25], size=(k, 2))
        mass = rng.uniform(-1.0, 1.0, k)
        got_pts, got_mass = lipmetric._merge_duplicates(pts, mass)
        ref_pts, ref_mass = _merge_by_unique(pts, mass)
        assert np.array_equal(got_pts, ref_pts)
        assert got_mass.tobytes() == ref_mass.tobytes()
        for row in got_pts:
            first = pts[np.flatnonzero(np.all(pts == row, axis=1))[0]]
            assert row.tobytes() == first.tobytes()


def test_import_loads_no_dense_simplex():
    code = ("import sys, gmtlab, gmtlab.cli; "
            "print('gmtlab.simplex' in sys.modules)")
    src = str(Path(lipmetric.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "False"

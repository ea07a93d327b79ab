import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gmtlab import transport
from gmtlab.errors import ContractError, GuardError, SolverError
from gmtlab.transport import WarmStart, lipschitz_dual_value, transport_simplex


def _reference_transport(cost, supply, demand):
    p, q = cost.shape
    # flatten z_ab; equality constraints for row and column sums
    A_eq = np.zeros((p + q, p * q))
    for a in range(p):
        A_eq[a, a * q:(a + 1) * q] = 1.0
    for b in range(q):
        A_eq[p + b, b::q] = 1.0
    res = linprog(cost.ravel(), A_eq=A_eq,
                  b_eq=np.concatenate([supply, demand]),
                  bounds=[(0, None)] * (p * q), method="highs")
    assert res.status == 0
    return res.fun


@pytest.mark.parametrize("seed", range(8))
def test_random_balanced_problems(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        p, q = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        cost = rng.uniform(0, 3, size=(p, q))
        supply = rng.uniform(0.1, 2.0, p)
        demand = rng.uniform(0.1, 2.0, q)
        demand *= supply.sum() / demand.sum()
        value, alpha, beta = transport_simplex(cost, supply, demand)
        ref = _reference_transport(cost, supply, demand)
        assert value == pytest.approx(ref, abs=1e-8 * (1 + abs(ref)))
        # dual feasibility certificate
        slack = cost - alpha[:, None] - beta[None, :]
        assert slack.min() >= -1e-8


def test_degenerate_supplies():
    # many equal supplies/demands force zero-flow pivots
    cost = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    supply = np.array([1.0, 1.0, 1.0])
    demand = np.array([1.0, 1.0, 1.0])
    value, _, _ = transport_simplex(cost, supply, demand)
    assert value == pytest.approx(3.0, abs=1e-10)


def test_unbalanced_rejected():
    with pytest.raises(ContractError):
        transport_simplex(np.ones((2, 2)), np.array([1.0, 1.0]),
                          np.array([1.0, 2.0]))


def test_lipschitz_dual_needs_mixed_signs():
    sites = np.zeros((2, 2))
    with pytest.raises(ContractError):
        lipschitz_dual_value(sites, np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_ties_and_zero_costs():
    # grid-aligned sites give many exactly equal costs
    rng = np.random.default_rng(11)
    for _ in range(20):
        p, q = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        cost = rng.integers(0, 3, size=(p, q)).astype(float) * 0.25
        supply = rng.integers(1, 4, p).astype(float)
        demand = rng.integers(1, 4, q).astype(float)
        demand *= supply.sum() / demand.sum()
        value, _, _ = transport_simplex(cost, supply, demand)
        ref = _reference_transport(cost, supply, demand)
        assert value == pytest.approx(ref, abs=1e-9 * (1 + abs(ref)))


def _reference_potential(sites, signed_mass, caps):
    """HiGHS optimum of max sum c_i f_i, |f_i - f_j| <= d_ij, |f_i| <= cap_i."""
    k = sites.shape[0]
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    A_ub = np.zeros((i.size, k))
    A_ub[np.arange(i.size), i] = 1.0
    A_ub[np.arange(i.size), j] = -1.0
    dist = np.sqrt(np.sum((sites[i] - sites[j]) ** 2, axis=1))
    res = linprog(-signed_mass, A_ub=A_ub, b_ub=dist,
                  bounds=list(zip(-caps, caps)), method="highs")
    assert res.status == 0
    return -res.fun


def _boundary_problem(x, wx, y, wy, r=1.0):
    """Transport form of F_r between atoms x (mass wx) and y (mass wy).

    Same layout as `lipschitz_dual_value`: metric costs plus a boundary row
    and column carrying the caps r - |x|.
    """
    p, q = x.shape[0], y.shape[0]
    cost = np.zeros((p + 1, q + 1))
    cost[:p, :q] = np.sqrt(np.sum((x[:, None] - y[None]) ** 2, axis=-1))
    cost[:p, q] = r - np.sqrt(np.sum(x * x, axis=1))
    cost[p, :q] = r - np.sqrt(np.sum(y * y, axis=1))
    return cost, np.append(wx, wy.sum()), np.append(wy, wx.sum())


def _assert_certified(cost, supply, demand, value, alpha, beta):
    assert (cost - alpha[:, None] - beta[None, :]).min() >= -1e-8
    ref = _reference_transport(cost, supply, demand)
    assert value == pytest.approx(ref, abs=1e-8 * (1 + abs(ref)))


def _assert_tree(tree, cells, p, q):
    """The basis tree invariants of the module doc, against ``cells``."""
    n = p + q
    parent, pslot, depth = tree.parent, tree.pslot, tree.depth
    children = tree.children
    assert parent[0] == -1 and depth[0] == 0
    assert sorted(v for kids in children for v in kids) == list(range(1, n))
    assert sorted(pslot[1:]) == list(range(n - 1))
    for v in range(1, n):
        u = parent[v]
        assert children[u].count(v) == 1
        assert depth[v] == depth[u] + 1
        a, b = cells[pslot[v]]
        assert {a, p + b} == {u, v}
    assert sorted(tree.subtree(0)) == list(range(n))


@pytest.fixture
def checked_pivots(monkeypatch):
    """Checks every basis tree a solve starts from and has after each pivot.

    Returns the list of the moved-node lists, one per pivot.
    """
    tree_cls = transport._BasisTree
    real_of_cells = tree_cls.of_cells.__func__
    real_basis_for = WarmStart.basis_for
    real_rehang = tree_cls.rehang
    basis_of = {}  # tree -> (the cells list its solve pivots in place, p, q)
    moved = []

    def of_cells(cls, cells, p, q):
        tree = real_of_cells(cls, cells, p, q)
        basis_of[tree] = cells, p, q
        _assert_tree(tree, cells, p, q)
        return tree

    def basis_for(self, supply, demand):
        basis = real_basis_for(self, supply, demand)
        if basis is not None:
            cells, _, tree = basis
            basis_of[tree] = cells, supply.size, demand.size
            _assert_tree(tree, cells, supply.size, demand.size)
        return basis

    def rehang(tree, stem, u, slot):
        nodes = real_rehang(tree, stem, u, slot)
        cells, p, q = basis_of[tree]
        # The solve writes the entering cell, from row node min(u, stem[0])
        # to column node max(u, stem[0]), into the leaving slot next.
        cells = list(cells)
        cells[slot] = (min(u, stem[0]), max(u, stem[0]) - p)
        _assert_tree(tree, cells, p, q)
        assert nodes == tree.subtree(stem[0])
        moved.append(nodes)
        return nodes
    monkeypatch.setattr(tree_cls, "of_cells", classmethod(of_cells))
    monkeypatch.setattr(WarmStart, "basis_for", basis_for)
    monkeypatch.setattr(tree_cls, "rehang", rehang)
    return moved


# ---------------------------------------------------------------------------
# Honest failures
# ---------------------------------------------------------------------------

def test_iteration_limit_is_a_solver_refusal():
    # Near-aligned lines: the least-cost start is far from optimal.
    t = np.linspace(-1, 1, 12)[1:-1]
    x = np.column_stack([t, 0 * t])
    y = np.column_stack([t * np.cos(0.05), t * np.sin(0.05)])
    cost, supply, demand = _boundary_problem(x, np.full(10, 0.1),
                                             y, np.full(10, 0.11))
    with pytest.raises(SolverError) as info:
        transport_simplex(cost, supply, demand, max_iter=1)
    assert isinstance(info.value, GuardError)
    assert not isinstance(info.value, ContractError)
    transport_simplex(cost, supply, demand)


def test_failed_dual_audit_is_a_solver_refusal(monkeypatch):
    real = transport.transport_simplex

    def corrupted(*args, **kwargs):
        value, alpha, beta = real(*args, **kwargs)
        return value, alpha + 1.0, beta
    monkeypatch.setattr(transport, "transport_simplex", corrupted)
    sites = np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(SolverError):
        lipschitz_dual_value(sites, np.array([1.0, -1.0]), np.array([1.0, 0.5]))


# ---------------------------------------------------------------------------
# Warm starts
# ---------------------------------------------------------------------------

def _chain(seed, kind, p, q, angles):
    """LPs that share their marginals but not their costs."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        # Grid atoms: many exactly equal costs, and some zero costs.
        x = rng.integers(-3, 4, size=(p, 2)) * 0.25
        y0 = rng.integers(-3, 4, size=(q, 2)) * 0.25
    else:
        x = rng.uniform(-0.7, 0.7, size=(p, 2))
        y0 = rng.uniform(-0.7, 0.7, size=(q, 2))
    wx = np.full(p, 1.0 / p) if kind == "equal" else rng.uniform(0.1, 1.0, p)
    wy = np.full(q, 1.3 / q)
    problems = []
    for th in angles:
        if kind == "ties":
            # Quarter turns keep the grid, so ties survive the rotation.
            th = np.pi / 2 * round(th / (np.pi / 2))
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        problems.append(_boundary_problem(x, wx, y0 @ rot.T, wy))
    return problems


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["metric", "ties", "equal"]),
       p=st.integers(1, 12), q=st.integers(1, 12),
       angles=st.lists(st.floats(0.0, 2 * np.pi), min_size=2, max_size=5))
def test_warm_chain_matches_cold_and_highs(seed, kind, p, q, angles):
    warm = WarmStart()
    for cost, supply, demand in _chain(seed, kind, p, q, angles):
        value, alpha, beta = transport_simplex(cost, supply, demand, warm=warm)
        cold = transport_simplex(cost, supply, demand)[0]
        assert abs(value - cold) <= 1e-12 * (1 + abs(value))
        _assert_certified(cost, supply, demand, value, alpha, beta)
        # The basis just kept is optimal: re-pricing it finds nothing.
        again = transport_simplex(cost, supply, demand, max_iter=1, warm=warm)
        assert again[0] == value

    # Different marginals or shapes fall back to the cold solve.
    mismatched = [(cost, supply * 2.0, demand * 2.0),
                  (cost[:, ::-1], supply, demand[::-1])]
    if p > 1:
        mismatched.append((cost[1:], supply[1:],
                           demand * (supply[1:].sum() / supply.sum())))
    for c, s, d in mismatched:
        value = transport_simplex(c, s, d, warm=warm)[0]
        assert value == transport_simplex(c, s, d)[0]


def test_warm_holder_returns_the_nearest_matching_key():
    warm = WarmStart()
    supply, demand = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    for key, tag in [((0.0,), 0), ((1.0,), 1), ((2.0,), 2), ((1.0,), 3)]:
        warm.key = key
        cells = [(0, 0), (0, 1), (1, 1)]
        warm.keep(supply, demand, cells, [0.0, 1.0, float(tag)],
                  transport._BasisTree.of_cells(cells, 2, 2))
    tag = {}
    for key in (-5.0, 0.4, 0.5, 0.9, 1.5, 1.6, 9.0):
        warm.key = (key,)
        cells, flows, tree = warm.basis_for(supply, demand)
        assert cells == [(0, 0), (0, 1), (1, 1)]
        assert tree.parent == [-1, 3, 0, 0]
        tag[key] = flows[2]
    # Nearest in the max-norm; ties (0.5, 1.5, and the two bases under key
    # 1) go to the most recent, the second basis under key 1.
    assert tag == {-5.0: 0.0, 0.4: 0.0, 0.5: 3.0, 0.9: 3.0, 1.5: 3.0,
                   1.6: 2.0, 9.0: 2.0}
    # A copy: the caller may pivot on it.
    cells.append((1, 0))
    tree.parent[1] = 2
    cells, _, tree = warm.basis_for(supply, demand)
    assert (len(cells), tree.parent[1]) == (3, 3)
    assert warm.basis_for(supply, demand[::-1]) is None
    assert warm.basis_for(supply[:1], demand[:1]) is None


def test_failed_solve_leaves_the_stored_bases():
    # Two problems with the same marginals: the candidate line turned by
    # 0.05 rad and by -1 rad, so the first optimal basis needs more than one
    # pivot on the second.
    t = np.linspace(-1, 1, 12)[1:-1]
    x = np.column_stack([t, 0 * t])
    problems = [_boundary_problem(x, np.full(10, 0.1),
                                  np.column_stack([t * np.cos(th),
                                                   t * np.sin(th)]),
                                  np.full(10, 0.11))
                for th in (0.05, -1.0)]
    warm = WarmStart()
    warm.key = (0.0,)
    transport_simplex(*problems[0], warm=warm)
    cost, supply, demand = problems[1]
    kept = warm.basis_for(supply, demand)[:2]
    warm.key = (1.0,)
    with pytest.raises(SolverError):
        transport_simplex(cost, supply, demand, max_iter=1, warm=warm)
    assert warm.basis_for(supply, demand)[:2] == kept
    warm.key = (2.0,)
    assert warm.basis_for(supply, demand)[:2] == kept
    # The holder still starts the solve it failed on.
    _assert_certified(cost, supply, demand,
                      *transport_simplex(cost, supply, demand, warm=warm))


def test_warm_holder_keeps_only_matching_marginals():
    warm = WarmStart()
    cost = np.array([[1.0, 2.0], [2.0, 1.0]])
    supply = np.array([1.0, 1.0])
    assert warm.basis_for(supply, supply) is None
    transport_simplex(cost, supply, supply, warm=warm)
    assert warm.basis_for(supply, supply) is not None
    assert warm.basis_for(supply, np.array([0.5, 1.5])) is None
    assert warm.basis_for(np.ones(3), supply) is None


# ---------------------------------------------------------------------------
# Larger oracle comparisons (deep trees, the periodic potential refresh)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,p,q", [(0, 60, 60), (1, 45, 60), (2, 60, 30),
                                      (3, 1, 60), (4, 60, 1), (5, 1, 1)])
def test_large_random_problems(seed, p, q):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(p, 2))
    y = rng.uniform(-1, 1, size=(q, 2))
    cost = np.sqrt(np.sum((x[:, None] - y[None]) ** 2, axis=-1))
    supply = np.ones(p)
    demand = np.full(q, p / q)
    _assert_certified(cost, supply, demand,
                      *transport_simplex(cost, supply, demand))


def test_long_chain_of_pivots_passes_the_refresh(checked_pivots):
    # 59 atoms on each of two lines 0.05 rad apart: more than 512 pricing
    # rounds, so the potentials are rebuilt from the tree mid-solve.  The
    # tree is checked after every pivot.
    t = np.linspace(-1, 1, 61)[1:-1]
    x = np.column_stack([t, 0 * t])
    y = np.column_stack([t * np.cos(0.05), t * np.sin(0.05)])
    cost, supply, demand = _boundary_problem(x, np.full(59, 1 / 59),
                                             y, np.full(59, 1.1 / 59))
    with pytest.raises(SolverError):
        transport_simplex(cost, supply, demand, max_iter=transport._REFRESH + 1)
    checked_pivots.clear()
    _assert_certified(cost, supply, demand,
                      *transport_simplex(cost, supply, demand))
    assert len(checked_pivots) > transport._REFRESH


# ---------------------------------------------------------------------------
# Candidate-list pricing (matrices of at least _PARTIAL_CELLS cells)
# ---------------------------------------------------------------------------

@pytest.fixture
def candidate_lists(monkeypatch):
    """Counts the candidate lists the solves build."""
    built = []
    real = transport._candidates

    def counted(reduced_flat):
        built.append(real(reduced_flat))
        return built[-1]
    monkeypatch.setattr(transport, "_candidates", counted)
    return built


@pytest.mark.parametrize("seed,p,q", [(0, 63, 63), (1, 90, 50), (2, 40, 120),
                                      (3, 200, 30)])
def test_candidate_pricing_on_euclidean_boundary_problems(seed, p, q,
                                                          candidate_lists):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.7, 0.7, size=(p, 2))
    y = rng.uniform(-0.7, 0.7, size=(q, 2))
    cost, supply, demand = _boundary_problem(x, rng.uniform(0.1, 1.0, p),
                                             y, rng.uniform(0.1, 1.0, q))
    assert cost.size >= transport._PARTIAL_CELLS
    _assert_certified(cost, supply, demand,
                      *transport_simplex(cost, supply, demand))
    assert candidate_lists


def test_candidate_pricing_on_a_degenerate_grid_problem(candidate_lists):
    # Unit supplies and demands on integer-grid sites: many equal costs and
    # many zero-flow pivots.
    g8, g4, g16 = np.arange(8.0), np.arange(4.0), np.arange(16.0)
    x = np.column_stack([np.repeat(g8, 8), np.tile(g8, 8)])
    y = np.column_stack([np.repeat(g16, 4), np.tile(g4, 16)])
    cost = np.sqrt(np.sum((x[:, None] - y[None]) ** 2, axis=-1))
    supply = demand = np.ones(64)
    assert cost.size >= transport._PARTIAL_CELLS
    _assert_certified(cost, supply, demand,
                      *transport_simplex(cost, supply, demand))
    assert candidate_lists


def test_candidate_pricing_passes_the_refresh(candidate_lists,
                                              checked_pivots):
    # The refresh test on 99 atoms per line: a 100 x 100 matrix, above the
    # candidate gate, and still more than 512 pricing rounds.
    t = np.linspace(-1, 1, 101)[1:-1]
    x = np.column_stack([t, 0 * t])
    y = np.column_stack([t * np.cos(0.05), t * np.sin(0.05)])
    cost, supply, demand = _boundary_problem(x, np.full(99, 1 / 99),
                                             y, np.full(99, 1.1 / 99))
    assert cost.size >= transport._PARTIAL_CELLS
    with pytest.raises(SolverError):
        transport_simplex(cost, supply, demand,
                          max_iter=transport._REFRESH + 1)
    candidate_lists.clear()
    checked_pivots.clear()
    _assert_certified(cost, supply, demand,
                      *transport_simplex(cost, supply, demand))
    assert candidate_lists
    assert len(checked_pivots) > transport._REFRESH


@pytest.mark.parametrize("seed", range(4))
def test_lipschitz_dual_with_duplicates_and_sphere_atoms(seed):
    rng = np.random.default_rng(seed)
    k = 30
    ang = rng.uniform(0, 2 * np.pi, k)
    rad = rng.uniform(0, 1, k)
    rad[: k // 3] = 1.0  # on the sphere: cap exactly 0
    sites = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    sites[k // 3: k // 3 + 4] = sites[: 4]  # duplicates of sphere atoms
    sites[-4:] = sites[-8:-4]  # duplicates inside
    mass = rng.uniform(0.1, 1.0, k) * np.where(np.arange(k) % 2, 1.0, -1.0)
    caps = np.maximum(1.0 - np.sqrt(np.sum(sites * sites, axis=1)), 0.0)
    value = lipschitz_dual_value(sites, mass, caps)
    ref = _reference_potential(sites, mass, caps)
    assert value == pytest.approx(ref, abs=1e-8 * (1 + abs(ref)))


# ---------------------------------------------------------------------------
# Non-finite inputs are contract violations, named by argument
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,bad", [("cost", np.nan), ("cost", np.inf),
                                      ("cost", -np.inf), ("supply", np.nan),
                                      ("demand", np.nan), ("supply", np.inf)])
def test_non_finite_transport_input_is_a_contract_error(name, bad):
    args = {"cost": np.array([[1.0, 2.0], [2.0, 1.0]]),
            "supply": np.array([1.0, 1.0]), "demand": np.array([1.0, 1.0])}
    args[name] = args[name].copy()
    args[name][-1] = bad
    with pytest.raises(ContractError, match=f"{name} must be finite"):
        transport_simplex(**args)


@pytest.mark.parametrize("name", ["sites", "signed_mass", "caps"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_boundary_input_is_a_contract_error(name, bad):
    # The first two sites alone have value 0.75; a NaN mass on the third
    # used to be dropped silently and the same 0.75 returned.
    args = {"sites": np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.25]]),
            "signed_mass": np.array([1.0, -1.0, 0.5]),
            "caps": np.array([1.0, 0.25, 0.75])}
    assert lipschitz_dual_value(*(a[:2] for a in args.values())) == 0.75
    args[name] = args[name].copy()
    args[name].flat[-1] = bad
    for solve in (lipschitz_dual_value, transport.lipschitz_potential):
        with pytest.raises(ContractError, match=f"{name} must be finite"):
            solve(**args)


# ---------------------------------------------------------------------------
# Set-up pieces: bit-identical to the expressions they replace
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_distances_match_the_difference_array_expression(n):
    rng = np.random.default_rng(n)
    for p, q in [(1, 1), (5, 3), (40, 23), (322, 161)]:
        x = rng.normal(size=(p, n)) * 10.0 ** rng.integers(-4, 4, size=n)
        y = rng.normal(size=(q, n))
        k = min(p, q) // 2
        y[:k] = x[:k]                   # duplicate sites: distance 0
        x[-1] = x[0]
        y[-1, 0] = -0.0
        diff = x[:, None, :] - y[None, :, :]
        ref = np.sqrt(np.sum(diff * diff, axis=-1))
        assert transport._distances(x, y).tobytes() == ref.tobytes()
        # Filled in place into a strided block, as the boundary cost is.
        cost = np.full((p + 1, q + 1), 7.0)
        transport._distances(x, y, out=cost[:p, :q])
        assert cost[:p, :q].tobytes() == ref.tobytes()
        assert np.all(cost[p] == 7.0) and np.all(cost[:, q] == 7.0)


def _candidates_by_full_partition(reduced_flat):
    """Candidate list as a partition of every cell computes it."""
    size, tol = transport._CANDIDATES, transport._TOL_RC
    cut = np.partition(reduced_flat, size - 1)[size - 1]
    if cut >= -tol:
        return np.flatnonzero(reduced_flat < -tol)
    below = np.flatnonzero(reduced_flat < cut)
    ties = np.flatnonzero(reduced_flat == cut)[:size - below.size]
    return np.sort(np.concatenate([below, ties]))


@pytest.mark.parametrize("seed", range(6))
def test_candidates_match_the_full_partition(seed):
    rng = np.random.default_rng(seed)
    size = transport._CANDIDATES
    for negatives in (0, 1, size - 1, size, size + 1, 3 * size, 2000):
        reduced = rng.uniform(0.0, 1.0, 4096)
        idx = rng.choice(reduced.size, negatives, replace=False)
        # Few distinct values, so the cut falls inside a run of ties; some
        # entries sit at -_TOL_RC itself, which does not qualify.
        reduced[idx] = -rng.integers(0, 6, negatives) * 0.25
        reduced[idx[:negatives // 7]] = -transport._TOL_RC
        got = transport._candidates(reduced)
        assert np.array_equal(got, _candidates_by_full_partition(reduced))
        assert got.size == min(size, np.count_nonzero(
            reduced < -transport._TOL_RC))


class _RebuiltTree(WarmStart):
    """A holder that drops each solve's tree and rebuilds it from the cells."""

    def keep(self, supply, demand, cells, flows, tree):
        tree = transport._BasisTree.of_cells(cells, supply.size, demand.size)
        super().keep(supply, demand, cells, flows, tree)


@pytest.mark.parametrize("seed,kind,p,q", [(0, "metric", 9, 7),
                                           (1, "ties", 8, 8),
                                           (2, "equal", 12, 5),
                                           (3, "metric", 80, 60),
                                           (4, "equal", 70, 70)])
def test_kept_tree_gives_the_bits_of_a_rebuilt_tree(seed, kind, p, q,
                                                    checked_pivots):
    # 80 x 60 and 70 x 70 are above the candidate-pricing gate.  Every
    # tree, cold, kept or rebuilt, is checked after each pivot.
    angles = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, 6)
    kept, rebuilt = WarmStart(), _RebuiltTree()
    for k, (cost, supply, demand) in enumerate(_chain(seed, kind, p, q,
                                                      angles)):
        kept.key = rebuilt.key = (float(angles[k]),)
        a = transport_simplex(cost, supply, demand, warm=kept)
        b = transport_simplex(cost, supply, demand, warm=rebuilt)
        assert np.float64(a[0]).tobytes() == np.float64(b[0]).tobytes()
        assert a[1].tobytes() == b[1].tobytes()
        assert a[2].tobytes() == b[2].tobytes()
        cells_a, flows_a, _ = kept.basis_for(supply, demand)
        cells_b, flows_b, _ = rebuilt.basis_for(supply, demand)
        assert cells_a == cells_b
        assert np.array(flows_a).tobytes() == np.array(flows_b).tobytes()
    assert checked_pivots


# ---------------------------------------------------------------------------
# A basis that is not a tree, and Bland's mode
# ---------------------------------------------------------------------------

def test_basis_that_is_not_a_spanning_tree_is_a_contract_error():
    # Row 1 is in no cell, and (0, 0) is listed twice.
    with pytest.raises(ContractError, match="not a spanning tree"):
        transport._BasisTree.of_cells([(0, 0), (0, 1), (0, 0)], 2, 2)


def test_blands_mode_matches_highs(monkeypatch):
    # With the stall switch at 0, every full pass enters the first improving
    # cell in row-major order.  Integer costs and marginals, with zero
    # demands, make most pivots degenerate.
    monkeypatch.setattr(transport, "_STALL_SWITCH", 0)
    rng = np.random.default_rng(17)
    for _ in range(20):
        p, q = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        cost = rng.integers(0, 4, size=(p, q)).astype(float)
        supply = rng.integers(1, 5, p).astype(float)
        demand = np.bincount(rng.integers(0, q, int(supply.sum())),
                             minlength=q).astype(float)
        value, alpha, beta = transport_simplex(cost, supply, demand)
        _assert_certified(cost, supply, demand, value, alpha, beta)
        assert value == _reference_transport(cost, supply, demand)
    warm = WarmStart()
    for cost, supply, demand in _chain(5, "ties", 8, 8, [0.0, 1.6, 3.1, 4.7]):
        _assert_certified(cost, supply, demand,
                          *transport_simplex(cost, supply, demand, warm=warm))


# ---------------------------------------------------------------------------
# Cold-solve bits, pinned
# ---------------------------------------------------------------------------

def _mixed_sign_problem(seed, k, kind):
    """Sites, signed masses and caps of an lp-small-sized boundary problem."""
    rng = np.random.default_rng(seed)
    r = (0.5, 1.0, 2.0)[seed % 3]
    sites = rng.normal(size=(k, 2)) * (0.5 * r)
    mass = rng.uniform(0.1, 1.0, k) * np.where(np.arange(k) % 2, 1.0, -1.0)
    if kind == "duplicate":
        sites[k // 2:] = sites[:k - k // 2]
    elif kind == "cancel":
        mass[1::2] = -mass[0::2][:mass[1::2].size] * (1 + 1e-12)
    caps = np.maximum(r - np.sqrt(np.sum(sites * sites, axis=1)), 0.0)
    return sites, mass, caps


@pytest.mark.parametrize("seed,k,kind,value,duals", [
    (0, 16, "plain", "0.6092514353066366", "138f47a83b6d870c"),
    (1, 24, "duplicate", "2.9001172591628457", "75967f8ff496fb13"),
    (2, 40, "cancel", "3.8967197088461405", "24273318fa01ac05"),
    (3, 56, "plain", "1.7641482724929547", "744ee46602816dc5"),
    (4, 80, "duplicate", "5.976317630044786", "ff86363f84ddd9de"),
    (5, 80, "cancel", "8.274273661495902", "c59729580a0036c4")])
def test_cold_solve_bits_are_pinned(seed, k, kind, value, duals):
    # The value and the alpha/beta bytes of six cold solves of 1 to 84
    # pivots: a change to the bookkeeping around the pivots, which no pivot
    # choice reads, must not move a bit.
    got, _, alpha, beta = transport._solve_boundary(
        *_mixed_sign_problem(seed, k, kind), None)
    assert repr(got) == value
    digest = hashlib.sha256(alpha.tobytes() + beta.tobytes()).hexdigest()
    assert digest[:16] == duals

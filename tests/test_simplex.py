import numpy as np
import pytest
from scipy.optimize import linprog

from gmtlab.errors import GuardError, SolverError
from gmtlab.simplex import SimplexError, simplex_max_bounded


def _reference(A, b, c, lo, hi):
    res = linprog(-c, A_ub=A if len(b) else None, b_ub=b if len(b) else None,
                  bounds=list(zip(lo, hi)), method="highs")
    assert res.status == 0
    return -res.fun


def test_bounds_only():
    res = simplex_max_bounded(np.zeros((0, 3)), np.zeros(0),
                              np.array([1.0, -2.0, 0.0]),
                              lo=np.array([-1.0, -1.0, -1.0]),
                              hi=np.array([2.0, 3.0, 4.0]))
    assert res.value == pytest.approx(2.0 + 2.0)


def test_small_known_lp():
    # max x1 + x2, x1 + x2 <= 1.5, box [0, 1]^2
    res = simplex_max_bounded(np.array([[1.0, 1.0]]), np.array([1.5]),
                              np.array([1.0, 1.0]), np.zeros(2), np.ones(2))
    assert res.value == pytest.approx(1.5, abs=1e-12)


def test_infeasible_start_rejected():
    with pytest.raises(SimplexError) as exc:
        simplex_max_bounded(np.array([[1.0]]), np.array([-1.0]),
                            np.array([1.0]), np.array([0.0]), np.array([1.0]))
    assert not isinstance(exc.value, GuardError)


def test_unbounded_rejected_as_contract_error():
    with pytest.raises(SimplexError):
        simplex_max_bounded(np.array([[1.0, -1.0]]), np.array([1.0]),
                            np.array([1.0, 1.0]), np.zeros(2),
                            np.full(2, np.inf))


def test_iteration_limit_is_a_solver_error():
    # Optimal only after both variables move: one iteration is not enough.
    with pytest.raises(SolverError, match="exceeded 1 iterations"):
        simplex_max_bounded(np.array([[1.0, 1.0]]), np.array([1.5]),
                            np.array([1.0, 1.0]), np.zeros(2), np.ones(2),
                            max_iter=1)


@pytest.mark.parametrize("seed", range(6))
def test_random_against_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(0, 12))
        lo = -rng.uniform(0.1, 3.0, n)
        hi = rng.uniform(0.1, 3.0, n)
        c = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = A @ lo + rng.uniform(0.0, 4.0, m)
        res = simplex_max_bounded(A, b, c, lo, hi)
        ref = _reference(A, b, c, lo, hi)
        assert res.value == pytest.approx(ref, abs=1e-7 * (1 + abs(ref)))
        # returned point is feasible
        assert np.all(A @ res.x <= b + 1e-8)
        assert np.all(res.x >= lo - 1e-9) and np.all(res.x <= hi + 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_degenerate_instances(seed):
    # sparse +-1 rows with many exactly tight constraints, fixed variables
    rng = np.random.default_rng(100 + seed)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 14))
        lo = -rng.uniform(0.0, 2.0, n)
        hi = rng.uniform(0.0, 2.0, n)
        fixed = rng.random(n) < 0.2
        hi[fixed] = lo[fixed]
        c = rng.normal(size=n)
        A = rng.choice([-1.0, 0.0, 1.0], size=(m, n))
        b = A @ lo + rng.choice([0.0, 0.5, 2.0], size=m)
        res = simplex_max_bounded(A, b, c, lo, hi)
        ref = _reference(A, b, c, lo, hi)
        assert res.value == pytest.approx(ref, abs=1e-7 * (1 + abs(ref)))


def test_deterministic_repeat():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(10, 4))
    lo, hi = -np.ones(4), np.ones(4)
    b = A @ lo + rng.uniform(0, 3, 10)
    c = rng.normal(size=4)
    r1 = simplex_max_bounded(A, b, c, lo, hi)
    r2 = simplex_max_bounded(A, b, c, lo, hi)
    assert r1.value == r2.value
    assert np.array_equal(r1.x, r2.x)

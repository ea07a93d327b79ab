import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import random_cloud
from gmtlab import cones
from gmtlab.cones import (DefectReport, FlatMeasureSpec, _nelder_mead,
                          d_cone_flat, sample_flat, symmetry_defect,
                          uniformity_defect, uniformity_gap)
from gmtlab.errors import ContractError
from gmtlab.lipmetric import f_ball
from gmtlab.measures import AffineMap, DiscreteMeasure, pushforward

# Locked at first computation; the best candidate line for a unit atom at the
# origin sits at distance 1/2 in the normalized ball metric.
DELTA_CONE_BASELINE = 0.5


def test_sample_flat_line_mass():
    spec = FlatMeasureSpec(np.array([[1.0], [0.0]]), 1.0, 0.001)
    mu = sample_flat(spec, 1.0)
    assert mu.total_mass == pytest.approx(2.0, abs=2 * 0.001)


def test_sample_flat_disc_mass():
    spec = FlatMeasureSpec(np.eye(3)[:, :2], 1.0, 0.005)
    mu = sample_flat(spec, 1.0)
    assert mu.total_mass == pytest.approx(np.pi, abs=0.05)


def test_sample_flat_rejects_m_zero():
    with pytest.raises(ContractError):
        FlatMeasureSpec(np.zeros((2, 0)), 1.0, 0.01)


def test_sample_flat_rejects_coarse_spacing():
    spec = FlatMeasureSpec(np.array([[1.0], [0.0]]), 1.0, 0.2)
    with pytest.raises(ContractError):
        sample_flat(spec, 1.0)


def test_frame_orthonormality_enforced():
    frame = np.array([[1.0], [1e-6]])
    with pytest.raises(ContractError):
        FlatMeasureSpec(frame, 1.0, 0.01)


def test_d_cone_of_flat_sample_is_tiny(line_entry):
    d = d_cone_flat(line_entry.measure, 1, 1.0)
    assert d <= 0.02


def test_d_cone_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(3):
        nu = random_cloud(rng, int(rng.integers(3, 12)))
        assert 0.0 <= d_cone_flat(nu, 1, 1.0) <= 1.0


def test_d_cone_zero_measure_convention():
    far = DiscreteMeasure.dirac(np.array([9.0, 0.0]))
    assert d_cone_flat(far, 1, 1.0) == 1.0


def test_d_cone_rejects_bad_m():
    nu = DiscreteMeasure.dirac(np.zeros(2))
    with pytest.raises(ContractError):
        d_cone_flat(nu, 2, 1.0)


def test_d_cone_delta_matches_plane_grid_oracle():
    """Brute force: dense direction grid, direct LP per direction."""
    delta = DiscreteMeasure.dirac(np.zeros(2))
    s = 1.0
    best = np.inf
    h = 1.0 / 80
    ks = np.arange(-80, 81) * h
    for k in range(180):
        th = np.pi * k / 180
        pts = np.column_stack([ks * np.cos(th), ks * np.sin(th)])
        caps = s - np.abs(ks)
        norm = float(np.full(ks.size, h) @ np.maximum(caps, 0))
        cand = DiscreteMeasure(pts, np.full(ks.size, h) / norm, dim=2)
        best = min(best, f_ball(delta, cand, s))
    value = d_cone_flat(delta, 1, 1.0)
    assert value == pytest.approx(best, abs=1e-3)
    assert value == pytest.approx(DELTA_CONE_BASELINE, abs=0.02)


def test_d_cone_scale_identity():
    rng = np.random.default_rng(5)
    nu = random_cloud(rng, 25, spread=0.8)
    for s in (0.5, 2.0):
        lhs = d_cone_flat(nu, 1, s)
        scaled = pushforward(nu, AffineMap.translate_scale(np.zeros(2), s))
        rhs = d_cone_flat(scaled, 1, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-3)


def test_d_cone_rotation_invariance():
    # below the rebinning threshold the construction is exactly equivariant
    t = np.arange(-50, 51) * 0.02
    line = DiscreteMeasure(np.column_stack([t, np.zeros_like(t)]),
                           np.full(t.size, 0.02))
    th = 0.3
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    rotated = DiscreteMeasure(line.points @ rot.T, line.weights)
    d1 = d_cone_flat(line, 1, 1.0)
    d2 = d_cone_flat(rotated, 1, 1.0)
    assert abs(d1 - d2) <= 1e-3


def test_d_cone_three_dimensional_smoke():
    rng = np.random.default_rng(8)
    t = np.arange(-40, 41) * 0.025
    line3 = DiscreteMeasure(
        np.column_stack([t, np.zeros_like(t), np.zeros_like(t)]),
        np.full(t.size, 0.025))
    assert d_cone_flat(line3, 1, 1.0) <= 0.05
    cloud = DiscreteMeasure(rng.normal(size=(30, 3)) * 0.4,
                            rng.uniform(0.5, 1, 30))
    assert 0.0 <= d_cone_flat(cloud, 2, 1.0) <= 1.0


# ---------------------------------------------------------------------------
# In-house Nelder-Mead against scipy's
# ---------------------------------------------------------------------------

def _smooth(x):
    return float(np.sum((x - 0.3) ** 2) + 0.1 * np.sin(7.0 * x).sum()
                 + 0.2 * x[0] * x[-1])


def _plateaus(x):
    # Piecewise constant: ties between vertices force shrinks.
    return float(np.floor(8.0 * np.abs(x - 0.4)).sum() / 8.0)


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


NM_CASES = [
    (_smooth, [0.0]),
    (_smooth, [1.5]),
    (_plateaus, [0.0]),
    (_rosenbrock, [0.0, 1.2]),
    (_plateaus, [-0.7, 0.0]),
    (_smooth, [0.5, 0.0, -1.0, 0.0]),
    (_plateaus, [0.0, 1.0, 0.0, -0.5]),
]
NM_TOL = {"xatol": 1e-4, "fatol": 1e-5}


def _recorded(fun):
    calls = []

    def wrapped(x):
        calls.append(x.copy())
        value = fun(x)
        x[:] = np.nan  # an objective may scribble on its argument
        return value
    return calls, wrapped


def _run_ours(fun, x0, maxfev):
    calls, wrapped = _recorded(fun)
    value = _nelder_mead(wrapped, np.array(x0), maxfev=maxfev, **NM_TOL)
    return calls, value


def _run_scipy(fun, x0, maxfev, ends=None):
    calls, wrapped = _recorded(fun)
    callback = None if ends is None else (lambda xk: ends.append(len(calls)))
    res = minimize(wrapped, np.array(x0), method="Nelder-Mead",
                   callback=callback, options=dict(NM_TOL, maxfev=maxfev))
    return calls, float(res.fun)


def _assert_same_run(ours, ref):
    (calls, value), (ref_calls, ref_value) = ours, ref
    assert len(calls) == len(ref_calls)
    for x, y in zip(calls, ref_calls):
        assert x.tobytes() == y.tobytes()
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()


def _step_kinds(calls, values, ends, n):
    """Step each call of a full scipy run belongs to, from iteration ends.

    An iteration makes 1 call (reflection), 2 (reflection then expansion or
    contraction) or n + 2 (contraction then an n-call shrink); an expansion
    follows a reflection that beats every earlier value.
    """
    kinds = ["initial"] * (n + 1)
    start = n + 1
    for end in ends:
        count = end - start
        kinds.append("reflection")
        if count >= 2:
            better = values[start] < min(values[:start])
            kinds.append("expansion" if better and count == 2
                         else "contraction")
        kinds.extend(["shrink"] * (count - 2))
        start = end
    assert len(kinds) == len(calls)
    return kinds


@pytest.mark.parametrize("fun,x0", NM_CASES)
def test_nelder_mead_matches_scipy_to_tolerance(fun, x0):
    ref = _run_scipy(fun, x0, maxfev=2000)
    assert len(ref[0]) < 2000  # stopped by xatol/fatol, not the budget
    _assert_same_run(_run_ours(fun, x0, maxfev=2000), ref)


def test_nelder_mead_matches_scipy_at_every_budget_cut():
    """Cut each run at every call count below 150, so the budget runs out in
    the initial simplex, an expansion, a contraction and a shrink."""
    cut_kinds = set()
    for fun, x0 in NM_CASES:
        n = len(x0)
        ends = []
        calls, _ = _run_scipy(fun, x0, maxfev=2000, ends=ends)
        kinds = _step_kinds(calls, [fun(x) for x in calls], ends, n)
        for maxfev in range(1, min(len(calls), 150)):
            _assert_same_run(_run_ours(fun, x0, maxfev),
                             _run_scipy(fun, x0, maxfev))
            cut_kinds.add(kinds[maxfev])
    assert {"initial", "expansion", "contraction", "shrink"} <= cut_kinds


def test_d_cone_flat_equals_scipy_refinement(monkeypatch):
    rng = np.random.default_rng(4)
    nus = [random_cloud(rng, 9), random_cloud(rng, 14, dim=3)]
    ours = [d_cone_flat(nu, 1, 1.0) for nu in nus]

    def scipy_nm(fun, x0, xatol, fatol, maxfev):
        return float(minimize(fun, x0, method="Nelder-Mead",
                              options={"xatol": xatol, "fatol": fatol,
                                       "maxfev": maxfev}).fun)
    monkeypatch.setattr(cones, "_nelder_mead", scipy_nm)
    ref = [d_cone_flat(nu, 1, 1.0) for nu in nus]
    assert np.array(ours).tobytes() == np.array(ref).tobytes()


def test_import_loads_no_scipy():
    code = ("import sys, gmtlab, gmtlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(cones.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Symmetry defect
# ---------------------------------------------------------------------------

def test_symmetry_defect_line_cancels(line_entry):
    d = symmetry_defect(line_entry.measure, np.zeros(2), 0.1, 1.0, 1)
    assert d <= 2 * 0.001 / 0.1


def test_symmetry_defect_cross_cancels(cross_entry):
    d = symmetry_defect(cross_entry.measure, np.zeros(2), 0.1, 1.0, 1)
    assert d <= 2 * 0.001 / 0.1


def test_symmetry_defect_half_line_log_window(half_line_entry):
    d = symmetry_defect(half_line_entry.measure, np.zeros(2), 0.1, 1.0, 1)
    assert d == pytest.approx(np.log(10.0), rel=0.01)


def test_symmetry_defect_ignores_mass_outside_annulus(line_entry):
    mu = line_entry.measure
    base = symmetry_defect(mu, np.zeros(2), 0.2, 0.5, 1)
    padded = DiscreteMeasure(
        np.vstack([mu.points, [[0.05, 0.0], [0.9, 0.0]]]),
        np.concatenate([mu.weights, [3.0, 5.0]]),
    )
    assert symmetry_defect(padded, np.zeros(2), 0.2, 0.5, 1) == base


def test_symmetry_defect_window_validation(line_entry):
    with pytest.raises(ContractError):
        symmetry_defect(line_entry.measure, np.zeros(2), 1.0, 0.5, 1)


def test_flat_defect_shrinks_with_spacing():
    vals = []
    for h in (0.01, 0.005):
        spec = FlatMeasureSpec(np.array([[1.0], [0.0]]), 1.0, h)
        mu = sample_flat(spec, 1.0)
        # generic off-center base point on the support
        x = mu.points[np.argmin(np.abs(mu.points[:, 0] - 0.3))]
        vals.append(symmetry_defect(mu, x, 0.05, 0.5, 1))
    assert vals[1] <= vals[0] + 1e-12


# ---------------------------------------------------------------------------
# Uniformity defect
# ---------------------------------------------------------------------------

def test_uniformity_defect_line_small(line_entry):
    rep = uniformity_defect(line_entry.measure, probe_pairs=40,
                            radii=[0.05, 0.1, 0.2], seed=0)
    assert isinstance(rep, DefectReport)
    assert rep.value <= 0.02


def test_uniformity_defect_circle_small(circle_entry):
    rep = uniformity_defect(circle_entry.measure, probe_pairs=40,
                            radii=[0.05, 0.1, 0.2], seed=0)
    assert rep.value <= 0.03


def test_uniformity_witness_reproduces_value(line_entry):
    rep = uniformity_defect(line_entry.measure, probe_pairs=40,
                            radii=[0.05, 0.1, 0.2], seed=1)
    if rep.witness is not None:
        x, y, r = rep.witness
        assert uniformity_gap(line_entry.measure, x, y, r) == rep.value


def test_atom_breaks_uniformity():
    # direct evaluation of both ball masses at radii isolating the atom
    t = np.arange(-1000, 1001) * 0.001
    pts = np.vstack([np.column_stack([t, np.zeros_like(t)])])
    w = np.full(pts.shape[0], 0.001)
    pts = np.vstack([pts, [[0.0, 0.0]]])
    w = np.concatenate([w, [1.0]])
    nu = DiscreteMeasure(pts, w)
    gap = uniformity_gap(nu, np.zeros(2), np.array([0.5, 0.0]), 0.1)
    assert gap >= 0.5


def test_uniformity_empty_support_rejected():
    with pytest.raises(ContractError):
        uniformity_defect(DiscreteMeasure.empty(2), 10, [0.1])

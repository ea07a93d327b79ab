import os
import re
import subprocess
import sys
import weakref
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_cloud
from gmtlab import cones, corpus, transport
from gmtlab.blowup import ScaleLadder, blowup_sequence
from gmtlab.cones import (OPTIMIZER_TOL, _compass_search, cone_floor,
                          d_cone_flat, sample_flat, symmetry_defect)
from gmtlab.errors import ContractError
from gmtlab.lipmetric import f_ball
from gmtlab.measures import (AffineMap, Ball, DiscreteMeasure, EllipseField,
                             mass_in, pushforward)

# Locked at first computation; the best candidate line for a unit atom at the
# origin sits at distance 1/2 in the normalized ball metric.
DELTA_CONE_BASELINE = 0.5


def test_sample_flat_line_mass():
    mu = sample_flat(2, 1, 1.0, 1.0, 0.001)
    assert mu.total_mass == pytest.approx(2.0, abs=2 * 0.001)


def test_sample_flat_disc_mass():
    mu = sample_flat(3, 2, 1.0, 1.0, 0.005)
    assert mu.total_mass == pytest.approx(np.pi, abs=0.05)


def test_sample_flat_rejects_m_zero():
    with pytest.raises(ContractError, match="m=0 invalid in R\\^2"):
        sample_flat(2, 0, 1.0, 1.0, 0.01)


def test_sample_flat_rejects_coarse_spacing():
    with pytest.raises(ContractError):
        sample_flat(2, 1, 1.0, 1.0, 0.2)


@pytest.mark.parametrize("constant,spacing,message", [
    (np.nan, 0.01, "flat-measure constant must be positive and finite"),
    (1.0, np.nan, "grid spacing must be positive and finite, got nan"),
    (1.0, np.inf, "grid spacing must be positive and finite, got inf")])
def test_flat_spec_names_a_non_finite_constant_or_spacing(constant, spacing,
                                                          message):
    with pytest.raises(ContractError, match=message):
        sample_flat(2, 1, constant, 1.0, spacing)


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


def test_d_cone_rejects_bad_scale():
    nu = DiscreteMeasure.dirac(np.zeros(2))
    for s in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ContractError):
            d_cone_flat(nu, 1, s)


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e200, 1e300])
def test_d_cone_refuses_a_scale_out_of_float_range_by_name(s):
    # The candidate plane's F_s mass s^2 underflows to 0, or its squared
    # coordinates overflow: refused before the first solve, without a
    # numpy warning.
    with mock.patch.object(cones, "f_ball") as solve:
        with pytest.raises(ContractError, match="^" + re.escape(
                f"scale s = {s} at flat dimension m = 1 puts s^2 out of "
                "floating-point range") + "$"):
            d_cone_flat(corpus.gen_line(0.01).measure, 1, s)
    assert solve.call_count == 0


@pytest.mark.parametrize("s,value", [(1e-100, 0.5),
                                     (1e100, 0.49999999999999994)])
def test_d_cone_at_an_extreme_scale_in_float_range(s, value):
    assert d_cone_flat(corpus.gen_line(0.01).measure, 1, s) == value


def _line_oracle(nu, angles, warm=True):
    """Brute force at s = 1: direct LP per direction, full-resolution line,
    clamped to [0, 1] as d_cone_flat reports it.  With ``warm``, each
    direction's solve starts from the basis of the one before it."""
    s = 1.0
    target = DiscreteMeasure(
        nu.points, nu.weights / f_ball(nu, DiscreteMeasure.empty(2), s), dim=2)
    h = 1.0 / 80
    ks = np.arange(-80, 81) * h
    caps = s - np.abs(ks)
    norm = float(np.full(ks.size, h) @ np.maximum(caps, 0))
    holder = transport.WarmStart() if warm else None
    best = np.inf
    for th in angles:
        pts = np.column_stack([ks * np.cos(th), ks * np.sin(th)])
        cand = DiscreteMeasure(pts, np.full(ks.size, h) / norm, dim=2)
        best = min(best, f_ball(target, cand, s, warm=holder))
    return float(np.clip(best, 0.0, 1.0))


def test_warm_line_oracle_matches_cold_solves():
    nu = random_cloud(np.random.default_rng(12), 12)
    angles = np.pi * np.arange(90) / 90
    assert abs(_line_oracle(nu, angles)
               - _line_oracle(nu, angles, warm=False)) <= 1e-12


def test_d_cone_delta_matches_plane_grid_oracle():
    """Brute force: dense direction grid, direct LP per direction."""
    delta = DiscreteMeasure.dirac(np.zeros(2))
    best = _line_oracle(delta, np.pi * np.arange(180) / 180)
    value = d_cone_flat(delta, 1, 1.0)
    assert value == pytest.approx(best, abs=1e-3)
    assert value == pytest.approx(DELTA_CONE_BASELINE, abs=0.02)

    rng = np.random.default_rng(12)
    clouds = [random_cloud(rng, 12) for _ in range(6)]
    rng = np.random.default_rng(5)
    clouds += [random_cloud(rng, 40) for _ in range(6)]
    for nu in clouds + [HOSTILE_CLOUDS["cross"]]:
        best = _line_oracle(nu, np.pi * np.arange(360) / 360)
        assert d_cone_flat(nu, 1, 1.0) == pytest.approx(best, abs=1e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the compass search stops in a local basin")
def test_d_cone_misses_the_plane_grid_oracle_on_a_20_atom_cloud():
    """A known miss of the search: `d_cone_flat` reads 0.681971190067855 on
    this cloud, the 360-angle oracle 0.6808675129472115, a gap of 1.1e-3.  A
    search that finds the oracle's basin makes this pass, and the strict mark
    then fails the suite until it is removed."""
    rng = np.random.default_rng(2026)
    nu = [random_cloud(rng, int(rng.integers(3, 60))) for _ in range(6)][-1]
    assert nu.size == 20
    best = _line_oracle(nu, np.pi * np.arange(360) / 360)
    assert d_cone_flat(nu, 1, 1.0) == pytest.approx(best, abs=1e-3)


class _ColdStart(cones.WarmStart):
    """A holder that never hands out a basis: every solve starts cold."""

    def basis_for(self, supply, demand):
        return None


def _evaluations(monkeypatch, nu, holder):
    """d_cone_flat's value and (target, candidates, s, value) of every plane
    solve its search made."""
    solves = []

    def recorded(mu, cand, s, warm=None):
        solves.append((mu, cand, s, f_ball(mu, cand, s, warm=warm)))
        return solves[-1][-1]
    with monkeypatch.context() as patch:
        patch.setattr(cones, "f_ball", recorded)
        patch.setattr(cones, "WarmStart", holder)
        return d_cone_flat(nu, 1, 1.0), solves


def test_d_cone_warm_starts_match_cold_solves(monkeypatch, cross_entry):
    # Each run bounds frames with the duals of its own solves, so a warm and
    # a cold run may skip different frames.  Their values agree, and every
    # frame the warm run solves matches a cold solve of that frame.
    rng = np.random.default_rng(12)
    clouds = [random_cloud(rng, 12) for _ in range(6)]
    for nu in clouds + [cross_entry.measure]:
        warm, solves = _evaluations(monkeypatch, nu, cones.WarmStart)
        cold, _ = _evaluations(monkeypatch, nu, _ColdStart)
        assert abs(warm - cold) <= 1e-12
        for mu, cand, s, value in solves:
            assert abs(value - f_ball(mu, cand, s)) <= 1e-12


def test_cold_holder_starts_every_solve_cold(monkeypatch):
    calls = {"solves": 0, "cold": 0}

    def counting(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted
    monkeypatch.setattr(transport, "transport_simplex",
                        counting("solves", transport.transport_simplex))
    monkeypatch.setattr(transport, "_least_cost_start",
                        counting("cold", transport._least_cost_start))
    nu = random_cloud(np.random.default_rng(3), 12)
    _evaluations(monkeypatch, nu, _ColdStart)
    assert calls["cold"] == calls["solves"] > 1


def _flatness_inputs():
    """The four flatness benchmark inputs: the three rungs of the heavy line
    blowup (h = 0.001, r0 = 0.4, rho = 0.5, count = 3) and the cross."""
    ladder = ScaleLadder(r0=0.4, rho=0.5, count=3, spacing=0.001)
    rungs = blowup_sequence(corpus.gen_line(0.001).measure, np.zeros(2),
                            EllipseField.identity(2), ladder, mode="power",
                            m=1).measures
    return list(rungs) + [corpus.gen_cross(0.001).measure]


def test_flatness_outputs_are_pinned(monkeypatch):
    # A change to the work around the transport pivots must keep every value
    # bit for bit, and the f_ball calls, solves and pivots that reach it; a
    # change to the search itself keeps the values and pins its new counts.
    # F_s of the positive target is taken in closed form, so every f_ball
    # call is a plane solve.  The line rungs stop at the principal frame
    # (1 f_ball call); the cross, whose principal axis is an arm, pays that
    # one solve and then runs the search, whose coarse stage picks that same
    # frame, so the compass starts from that solve.  The dual bounds skip 32
    # of the 49 frames the search visits: 26 of the 36 coarse frames and 6
    # of the 13 compass trials.
    counts = {}

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted
    monkeypatch.setattr(cones, "f_ball", counting("f_ball", f_ball))
    monkeypatch.setattr(transport, "transport_simplex",
                        counting("solves", transport.transport_simplex))
    monkeypatch.setattr(transport._BasisTree, "rehang",
                        counting("pivots", transport._BasisTree.rehang))
    got = []
    for nu in _flatness_inputs():
        counts.update(f_ball=0, solves=0, pivots=0)
        value = d_cone_flat(nu, 1, 1.0)
        got.append((repr(value), counts["f_ball"], counts["solves"],
                    counts["pivots"]))
    assert got == [("0.0", 1, 0, 0),
                   ("0.0024999999999999988", 1, 1, 107),
                   ("0.007500000000000012", 1, 1, 188),
                   ("0.4141883688394247", 17, 17, 1562)]


def _value_and_solves(nu, m=1, s=1.0):
    """d_cone_flat(nu, m, s) and the number of transport solves it made."""
    with mock.patch.object(transport, "transport_simplex",
                           wraps=transport.transport_simplex) as solve:
        return d_cone_flat(nu, m, s), solve.call_count


def _fallback_clouds():
    """The Dirac mass at the origin and six 12-atom clouds from seed 12."""
    rng = np.random.default_rng(12)
    return [DiscreteMeasure.dirac(np.zeros(2))] + [random_cloud(rng, 12)
                                                   for _ in range(6)]


def test_search_fallback_values_are_pinned():
    # The inputs of the plane-grid oracle test, pinned at the search without
    # the principal frame step.  No principal-frame value of theirs is within
    # floor/2, so each runs the coarse grid and compass search, and its value
    # must be that search's, bit for bit.
    got = []
    for nu in _fallback_clouds():
        with mock.patch.object(cones, "f_ball", wraps=f_ball) as calls:
            got.append(repr(d_cone_flat(nu, 1, 1.0)))
        assert calls.call_count > 3
    assert got == ["0.4999999999999999", "0.6651344088750024",
                   "0.5858402564246308", "1.0", "0.4879303988541191",
                   "0.5279170444281173", "0.48589515281817397"]


def _random_frame(rng, n, m):
    return cones._signed(np.linalg.qr(rng.normal(size=(n, m)))[0])


@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2)])
def test_dual_bounds_never_exceed_the_solved_value(n, m):
    # Weak duality: at every frame, at both grid steps, the level's lower
    # bound is at most F_s of the target against that frame's candidates as
    # a cold solve computes it.  Four solved frames leave the anchors; at a
    # solved frame the largest anchor bound, the lower bound plus the
    # margin, is the solved value up to rounding.
    rng = np.random.default_rng(30 + 3 * n + m)
    step = cones.cone_grid_step(1.0, m)
    for _ in range(3):
        nu = random_cloud(rng, 15, dim=n)
        inside = cones.ball_mask(nu.points, 1.0)
        target = DiscreteMeasure(nu.points[inside], nu.weights[inside], dim=n)
        for level_step in (step, cones._COARSE_STEPS.get(m, 2) * step):
            level = cones._level(target, m, 1.0, level_step)
            solved = [_random_frame(rng, n, m) for _ in range(4)]
            for frame in solved:
                level.solve(frame)
            assert len(level.potentials) == 4
            frames = solved + [_random_frame(rng, n, m) for _ in range(6)]
            for k, frame in enumerate(frames):
                cand = level.coords @ frame.T
                value = f_ball(level.target,
                               DiscreteMeasure(cand, level.weights, dim=n),
                               1.0)
                bound = level.lower_bound(cand)
                assert bound <= value
                if k < len(solved):
                    assert abs(bound + level.margin - value) <= 1e-12


def _pinned_inputs():
    """(measure, m, s) of every input whose cone distance a test here pins."""
    t = np.arange(-40, 41) * 0.025
    direction = np.array([1.0, 2.0, -2.0, 0.5])
    direction /= np.linalg.norm(direction)
    tilted = DiscreteMeasure(t[:, None] * direction, np.full(t.size, 0.025))
    line = _line()
    padded = [DiscreteMeasure(np.vstack([line.points, far]),
                              np.append(line.weights, 1.0))
              for far in ([0.0, 3.0], [1e200, 1e200])]
    coarse_line = corpus.gen_line(0.01).measure
    return ([(nu, 1, 1.0) for nu in _flatness_inputs() + _fallback_clouds()
             + [tilted, line] + padded]
            + [(coarse_line, 1, s) for s in (1e-100, 1e100)]
            + [(nu, m, 1.0) for nu, m in _chart_inputs()])


def _seeded_clouds():
    """(measure, m) of 28 seeded clouds: 24 in the plane, 4 in R^3."""
    rng = np.random.default_rng(21)
    plane = [(random_cloud(rng, int(rng.integers(3, 30))), 1)
             for _ in range(24)]
    space = [(random_cloud(rng, int(rng.integers(5, 25)), dim=3), 1 + k % 2)
             for k in range(4)]
    return plane + space


def _searched_frames(nu, m, s):
    """d_cone_flat(nu, m, s) and the candidate bytes of its plane solves,
    in order."""
    frames = []

    def recorded(mu, cand, r, warm=None):
        frames.append(cand.points.tobytes())
        return f_ball(mu, cand, r, warm=warm)
    with mock.patch.object(cones, "f_ball", recorded):
        return d_cone_flat(nu, m, s), frames


def test_pruned_search_returns_the_unpruned_bits(monkeypatch):
    # A frame is skipped only when its bound shows its solve could not move
    # the search, so the search solves a subsequence of the frames that the
    # search with every bound at -inf solves, and returns its value: bit for
    # bit on every pinned input and every plane cloud.  A skipped frame also
    # leaves no basis in the warm-start holder, so a later solve may start
    # from another one and end a few ulps away, as a cold solve may; above
    # the plane that moves some values by an ulp or two, within 1e-12.  The
    # Dirac mass ties at every frame, so there nothing is skipped.
    pinned = _pinned_inputs()
    cases = pinned + [(nu, m, 1.0) for nu, m in _seeded_clouds()]
    pruned = [_searched_frames(nu, m, s) for nu, m, s in cases]
    monkeypatch.setattr(cones._Level, "lower_bound", lambda *args: -np.inf)
    full = [_searched_frames(nu, m, s) for nu, m, s in cases]
    for k, ((nu, _, _), (value, frames), (expected, every)) in enumerate(
            zip(cases, pruned, full)):
        remaining = iter(every)
        assert all(frame in remaining for frame in frames)
        if k < len(pinned) or nu.dim == 2:
            assert repr(value) == repr(expected)
        else:
            assert abs(value - expected) <= 1e-12
    assert sum(len(f) for _, f in pruned) < sum(len(f) for _, f in full)
    dirac = 4  # the first of _fallback_clouds, after the flatness inputs
    assert cases[dirac][0].points.tolist() == [[0.0, 0.0]]
    assert pruned[dirac][1] == full[dirac][1]


def test_pruned_search_solve_counts_are_pinned():
    # The transport solves of each pinned input and seeded cloud, pinned so
    # that a change which weakens the pruning fails here even when every
    # value keeps its bits.
    cases = _pinned_inputs() + [(nu, m, 1.0) for nu, m in _seeded_clouds()]
    counts = [_value_and_solves(nu, m, s)[1] for nu, m, s in cases]
    assert counts == [0, 1, 1, 17, 49, 20, 26, 18, 22, 25, 25, 20, 1, 1, 1,
                      49, 49, 61, 41, 73, 14, 35, 20, 9, 37, 36, 27, 10, 16,
                      34, 35, 13, 34, 22, 19, 24, 38, 15, 26, 39, 21, 29, 11,
                      15, 14, 15, 19, 41]
    assert sum(counts) == 1168


def _rotated(nu, theta):
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    return DiscreteMeasure(nu.points @ rot.T, nu.weights)


def _line(spacing=0.02):
    t = np.arange(-50, 51) * spacing
    return DiscreteMeasure(np.column_stack([t, np.zeros_like(t)]),
                           np.full(t.size, spacing))


def _hostile_clouds():
    """Inputs where a principal frame is ill-defined, wrong or at the wrap
    of atan2; all stay below the rebinning threshold."""
    rng = np.random.default_rng(4)
    arm = np.arange(-25, 26) * 0.04
    grid = np.stack(np.meshgrid(np.arange(-5, 6) * 0.15,
                                np.arange(-5, 6) * 0.15), axis=-1)
    seg = np.arange(-10, 11) * 0.01
    line = _line()
    clouds = {
        "near-isotropic": DiscreteMeasure(rng.normal(size=(40, 2)) * 0.5,
                                          np.full(40, 0.05)),
        "cross": DiscreteMeasure(
            np.vstack([np.column_stack([arm, 0 * arm]),
                       np.column_stack([0 * arm[arm != 0], arm[arm != 0]])]),
            np.full(2 * arm.size - 1, 0.04)),
        "square-grid": DiscreteMeasure(grid.reshape(-1, 2),
                                       np.full(grid.size // 2, 0.02)),
        "segment-far-outliers": DiscreteMeasure(
            np.vstack([np.column_stack([seg, 0 * seg]),
                       [[0.0, 5.0], [0.0, -5.0], [3.0, 3.0]]]),
            np.concatenate([np.full(seg.size, 0.01), [1.0, 1.0, 1.0]])),
        "duplicate-atoms": DiscreteMeasure(np.vstack([line.points] * 2),
                                           np.tile(line.weights, 2) / 2),
    }
    for theta in (0.0, 1e-9, -1e-9, np.pi / 2 - 1e-9, np.pi / 2,
                  np.pi / 2 + 1e-9, np.pi - 1e-9, np.pi):
        clouds[f"line-at-{theta:.10f}"] = _rotated(line, theta)
    return clouds


HOSTILE_CLOUDS = _hostile_clouds()


@pytest.mark.parametrize("name", sorted(HOSTILE_CLOUDS))
def test_principal_frame_shortcut_on_hostile_clouds(name):
    half_floor = cone_floor(1.0, 1) / 2
    values = []
    for theta in (0.0, 0.3, 1.1, 2.5):
        value, solves = _value_and_solves(
            _rotated(HOSTILE_CLOUDS[name], theta))
        assert 0.0 <= value <= 1.0
        if solves < 3:
            assert value <= half_floor
        values.append(value)
    assert max(values) - min(values) <= half_floor


angles = st.one_of(st.sampled_from([0.0, np.pi / 2]), st.floats(0.0, np.pi))


@settings(max_examples=12)
@given(amplitude=st.floats(0.003, 0.008), first=angles, second=angles)
def test_rotated_dense_copies_agree_within_half_the_floor(amplitude, first,
                                                          second):
    # 1001 atoms 0.002 apart, jittered across the line by up to 0.003-0.008:
    # above the site budget, so each copy is rebinned onto the axis grid and
    # the copies' principal values differ.  One copy may stop at its
    # principal frame while the other runs the search (one of the twelve
    # examples does); they still agree within floor/2.
    half_floor = cone_floor(1.0, 1) / 2
    t = np.arange(-500, 501) * 0.002
    jitter = np.random.default_rng(5).uniform(-1.0, 1.0, t.size)
    nu = DiscreteMeasure(np.column_stack([t, amplitude * jitter]),
                         np.full(t.size, 0.002))
    values = []
    for theta in (first, second):
        value, solves = _value_and_solves(_rotated(nu, theta))
        assert 0.0 <= value <= 1.0
        if solves < 3:
            assert value <= half_floor
        values.append(value)
    assert abs(values[0] - values[1]) <= half_floor


def test_d_cone_scale_identity():
    rng = np.random.default_rng(5)
    nu = random_cloud(rng, 25, spread=0.8)
    for s in (0.5, 2.0):
        lhs = d_cone_flat(nu, 1, s)
        scaled = pushforward(nu, AffineMap(np.eye(2) / s, np.zeros(2)))
        rhs = d_cone_flat(scaled, 1, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-3)


def test_d_cone_rotation_invariance():
    # below the rebinning threshold the construction is exactly equivariant
    t = np.arange(-50, 51) * 0.02
    line = DiscreteMeasure(np.column_stack([t, np.zeros_like(t)]),
                           np.full(t.size, 0.02))
    d1 = d_cone_flat(line, 1, 1.0)
    # 0.004 and 3.13 sit next to the coarse angles 0 and pi.
    for th in (0.3, 0.004, 1.0, 2.2, 3.13):
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rotated = DiscreteMeasure(line.points @ rot.T, line.weights)
        assert abs(d1 - d_cone_flat(rotated, 1, 1.0)) <= 1e-3


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


def test_principal_frame_shortcut_above_the_plane():
    # Each input stops at its principal frame (eigh, n >= 3) after at most
    # one transport solve.  line3's atoms sit two grid steps apart, so its
    # principal value is floor/2 itself up to rounding.
    t = np.arange(-40, 41) * 0.025
    line3 = DiscreteMeasure(
        np.column_stack([t, np.zeros_like(t), np.zeros_like(t)]),
        np.full(t.size, 0.025))
    plane = sample_flat(3, 2, 1.0, 1.0, 0.05)
    u = np.arange(-100, 101) * 0.01
    direction = np.array([1.0, 2.0, -2.0, 0.5]) / np.linalg.norm(
        [1.0, 2.0, -2.0, 0.5])
    line4 = DiscreteMeasure(u[:, None] * direction, np.full(u.size, 0.01))
    for nu, m in ((line3, 1), (plane, 2), (line4, 1)):
        value, solves = _value_and_solves(nu, m)
        assert solves <= 1
        assert 0.0 <= value <= cone_floor(1.0, m) / 2


@pytest.mark.parametrize("axis", range(4))
def test_an_empty_coarse_level_reports_the_principal_value(axis):
    # 300 atoms at radius 0.978-0.99 around an axis: over the site budget,
    # so each level rebins them.  On the full-resolution grid they stay
    # inside the sphere; on the coarse grid they all land on or outside it,
    # leaving no mass to rank frames with.  The clamped principal value is
    # returned.
    rng = np.random.default_rng(axis)
    radius = rng.uniform(0.978, 0.99, 300)
    angle = rng.uniform(-0.02, 0.02, 300) + axis * np.pi / 2
    nu = DiscreteMeasure(np.column_stack([radius * np.cos(angle),
                                          radius * np.sin(angle)]),
                         rng.uniform(0.5, 1.0, 300))
    step = cones.cone_grid_step(1.0, 1)
    assert cones._level(nu, 1, 1.0, cones._COARSE_STEPS[1] * step) is None
    fine = cones._level(nu, 1, 1.0, step)
    principal = fine.solve(cones._principal_frame(fine.target, 1))
    assert principal > cone_floor(1.0, 1) / 2
    assert d_cone_flat(nu, 1, 1.0) == float(np.clip(principal, 0.0, 1.0))


def test_search_never_reports_more_than_the_principal_frame():
    # 81 atoms 0.025 apart on a line in R^4: along (1, 2, -2, 0.5) the
    # principal value is just above floor/2, so the search runs, and neither
    # its coarse frames nor its chart refinement finds anything as good; the
    # axis-aligned copy stops at its principal frame.  The two copies agree
    # within floor/2.
    t = np.arange(-40, 41) * 0.025
    direction = np.array([1.0, 2.0, -2.0, 0.5])
    direction /= np.linalg.norm(direction)
    tilted = DiscreteMeasure(t[:, None] * direction, np.full(t.size, 0.025))
    axis = DiscreteMeasure(t[:, None] * np.eye(4)[0], np.full(t.size, 0.025))
    values = [d_cone_flat(nu, 1, 1.0) for nu in (tilted, axis)]
    assert abs(values[0] - values[1]) <= cone_floor(1.0, 1) / 2
    assert repr(values[0]) == "0.012500000000000068"


@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
def test_chart_frames_are_orthonormal_and_centred(n, m):
    # The coarse frames are orthonormal and sign-canonical.  The chart
    # around each maps X to an orthonormal frame of the plane spanned by
    # F + C X (C an orthonormal basis of the complement of F), and X = 0
    # spans F itself.
    rng = np.random.default_rng(9)
    frames = cones._coarse_frames(n, m)
    assert len(frames) == len(list(combinations(range(n), m))) + 64
    for frame in frames:
        assert np.abs(frame.T @ frame - np.eye(m)).max() <= 1e-12
        assert np.array_equal(cones._signed(frame), frame)
        origin, frame_at = cones._chart(frame)
        assert np.array_equal(origin, np.zeros((n - m) * m))
        centre = frame_at(origin)
        assert np.abs(centre @ centre.T - frame @ frame.T).max() <= 1e-12
        perp = np.linalg.qr(frame, mode="complete")[0][:, m:]
        for scale in (1e-3, 0.1, 1.0, 10.0):
            x = rng.normal(size=origin.size) * scale
            q = frame_at(x)
            assert np.abs(q.T @ q - np.eye(m)).max() <= 1e-12
            graph = frame + perp @ x.reshape(n - m, m)
            assert np.abs(q @ (q.T @ graph) - graph).max() <= 1e-12 * (
                1.0 + scale)


def _cross3():
    """Three arms of 41 atoms 0.05 apart along the axes of R^3, sharing the
    origin."""
    arm = np.arange(-20, 21) * 0.05
    tail = arm[arm != 0]
    axes = np.eye(3)
    pts = np.vstack([np.outer(arm, axes[0]), np.outer(tail, axes[1]),
                     np.outer(tail, axes[2])])
    return DiscreteMeasure(pts, np.full(pts.shape[0], 0.05))


def _chart_inputs():
    """(measure, m) of the three pinned chart searches."""
    rng = np.random.default_rng(8)
    smoke = DiscreteMeasure(rng.normal(size=(30, 3)) * 0.4,
                            rng.uniform(0.5, 1, 30))
    rng = np.random.default_rng(1)
    clouds = [DiscreteMeasure(rng.normal(size=(25, n)) * 0.4,
                              rng.uniform(0.5, 1, 25))
              for n in (3, 3, 3, 3, 4, 4, 4, 4)]
    return [(smoke, 2), (_cross3(), 1), (clouds[7], 2)]


def test_chart_search_values_are_pinned():
    # Three inputs above the plane whose principal value is above floor/2,
    # so each runs the coarse frames and the chart search; values and
    # transport solves (116, 93 and 126 before the dual bounds skipped
    # frames) are pinned.  The smoke cloud of
    # test_d_cone_three_dimensional_smoke as a 2-plane problem, the
    # three-axis cross for lines, and the second of two 25-atom clouds in R^4
    # (four clouds in R^3 are drawn first) for 2-planes.
    got = [_value_and_solves(nu, m) for nu, m in _chart_inputs()]
    assert [(repr(value), solves) for value, solves in got] == [
        ("0.7802817936200728", 61), ("0.5577549960255836", 41),
        ("0.9319405806103026", 73)]


class _RecordingStart(cones.WarmStart):
    """A holder that records, in order of creation, a weak reference to
    itself and the list of keys its lookups read."""

    made = []

    def __init__(self):
        super().__init__()
        self.keys = []
        _RecordingStart.made.append((weakref.ref(self), self.keys))

    def basis_for(self, supply, demand):
        self.keys.append(np.array(self.key))
        return super().basis_for(supply, demand)


def _cloud3():
    rng = np.random.default_rng(1)
    return DiscreteMeasure(rng.normal(size=(25, 3)) * 0.4,
                           rng.uniform(0.5, 1, 25))


@pytest.mark.parametrize("case", ["cross", "cloud3"])
def test_one_holder_keyed_by_projectors(monkeypatch, cross_entry, case):
    # One WarmStart per level: the full-resolution one serves the principal
    # and compass solves, the coarse one the coarse frames.  No
    # full-resolution problem has the coarse marginals, so the coarse holder
    # is gone when the compass makes its first evaluation.  The coarse
    # holder is read once per coarse frame its level solves.  Every key a
    # lookup reads is the flattened projector F F^T of an orthonormal n x m
    # frame: symmetric, idempotent and of trace m.
    nu, m = (cross_entry.measure, 1) if case == "cross" else (_cloud3(), 2)
    n = nu.dim
    alive = []
    search = cones._compass_search

    def watched(fun, x, fx):
        def first(y, bar):
            if not alive:
                alive.extend(ref() is not None
                             for ref, _ in _RecordingStart.made)
            return fun(y, bar)
        return search(first, x, fx)
    monkeypatch.setattr(_RecordingStart, "made", [])
    monkeypatch.setattr(cones, "WarmStart", _RecordingStart)
    monkeypatch.setattr(cones, "_compass_search", watched)
    value = d_cone_flat(nu, m, 1.0)
    assert value > cone_floor(1.0, m) / 2  # the search ran
    (_, fine_keys), (_, coarse_keys) = _RecordingStart.made
    assert alive == [True, False]
    assert 1 < len(coarse_keys) <= len(cones._coarse_frames(n, m))
    assert len(fine_keys) > 1
    for key in fine_keys + coarse_keys:
        proj = key.reshape(n, n)
        assert np.abs(proj - proj.T).max() <= 1e-15
        assert np.abs(proj @ proj - proj).max() <= 1e-12
        assert np.trace(proj) == pytest.approx(m, abs=1e-12)


@pytest.mark.parametrize("case", ["cross", "cloud3-m1", "cloud3-m2"])
def test_a_level_gives_every_solve_the_same_candidate_masses(
        monkeypatch, cross_entry, case):
    # Frames are orthonormal, so F_s of the turned candidate grid is F_s of
    # the grid: its masses are normalized once per level and every solve of
    # the level sees the same bytes, which lets warm starts match.
    nu, m = ((cross_entry.measure, 1) if case == "cross"
             else (_cloud3(), int(case[-1])))
    seen = {}

    def recorded(mu, cand, s, warm=None):
        seen.setdefault(id(warm), (warm, set()))[1].add(
            cand.weights.tobytes())
        return f_ball(mu, cand, s, warm=warm)
    monkeypatch.setattr(cones, "f_ball", recorded)
    assert d_cone_flat(nu, m, 1.0) > cone_floor(1.0, m) / 2
    assert [len(masses) for _, masses in seen.values()] == [1, 1]


@pytest.mark.parametrize("far", [[0.0, 3.0], [1e200, 1e200]])
def test_mass_outside_the_ball_does_not_steer_the_search(far):
    # The line alone stops at its principal frame.  A heavy atom outside
    # B(0, s), which F_s never sees, leaves that frame, the solve count and
    # the value as they are; at 1e200 its second moment would overflow.
    line = _line()
    padded = DiscreteMeasure(np.vstack([line.points, far]),
                             np.append(line.weights, 1.0))
    expected = d_cone_flat(line, 1, 1.0)
    value, solves = _value_and_solves(padded)
    assert repr(value) == repr(expected) == "0.011249999999999996"
    assert solves <= 1


def test_compass_search_stop_rules():
    calls = []

    def flat(x, bar):
        calls.append(x)
        return 1.0

    # No improvement: one +/- sweep per step pi/72, pi/144, ..., down to the
    # last step >= OPTIMIZER_TOL (6 steps), then stop.
    assert _compass_search(flat, np.zeros(1), 1.0) == 1.0
    assert len(calls) == 2 * 6
    assert [x[0] for x in calls[:2]] == [np.pi / 72, -np.pi / 72]
    calls.clear()
    _compass_search(flat, np.zeros(8), 1.0)  # 16 moves per sweep
    assert len(calls) == 60

    target = np.array([0.1, -0.2])
    value = _compass_search(lambda x, bar: float(np.abs(x - target).sum()),
                            np.zeros(2), 0.3)
    assert value <= 2 * OPTIMIZER_TOL


def test_compass_search_calls_fun_again_on_a_repeated_point(monkeypatch):
    # From 0 with step 1 toward 1.5 (dyadic, so every trial is exact): moves
    # to 1, tries 2 and 0, halves, moves to 1.5, then meets 2 and 1 again.
    # Those two repeats call fun again and count toward the budget.
    monkeypatch.setattr(cones, "_SEARCH_STEP", 1.0)
    calls = []

    def fun(x, bar):
        calls.append(float(x[0]))
        return abs(float(x[0]) - 1.5)

    # A trial may return inf when its value is at least its bar, the
    # current value: it still counts, does not improve, and the search
    # makes the same trials to the same value.
    def skipping(x, bar):
        value = fun(x, bar)
        return np.inf if value >= bar else value

    for search_fun in (fun, skipping):
        calls.clear()
        assert _compass_search(search_fun, np.zeros(1), 1.5) == 0.0
        assert calls[:6] == [1.0, 2.0, 0.0, 1.5, 2.0, 1.0]
        # Six calls, then two calls per step 1/4, ..., 1/512, all new.
        assert len(calls) == 6 + 2 * 8
        assert len(set(calls)) == 4 + 2 * 8
    monkeypatch.setattr(cones, "_SEARCH_EVALS", 6)
    for search_fun in (fun, skipping):
        calls.clear()
        assert _compass_search(search_fun, np.zeros(1), 1.5) == 0.0
        assert calls == [1.0, 2.0, 0.0, 1.5, 2.0, 1.0]


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


@pytest.mark.parametrize("center,message", [
    ((1e200, 0.0), r"center \(1e\+200, 0.0\) is too far from the sample"),
    ((np.nan, 0.0), r"center \(nan, 0.0\) is not finite")])
def test_symmetry_defect_refuses_a_far_or_nan_center(line_entry, center,
                                                     message):
    # Both would read 0.0, "symmetric"; the far one also warned.
    with pytest.raises(ContractError, match=message):
        symmetry_defect(line_entry.measure, np.array(center), 0.1, 1.0, 1)


def test_symmetry_defect_window_validation(line_entry):
    with pytest.raises(ContractError):
        symmetry_defect(line_entry.measure, np.zeros(2), 1.0, 0.5, 1)


def test_flat_defect_shrinks_with_spacing():
    vals = []
    for h in (0.01, 0.005):
        mu = sample_flat(2, 1, 1.0, 1.0, h)
        # generic off-center base point on the support
        x = mu.points[np.argmin(np.abs(mu.points[:, 0] - 0.3))]
        vals.append(symmetry_defect(mu, x, 0.05, 0.5, 1))
    assert vals[1] <= vals[0] + 1e-12


def test_atom_breaks_uniformity():
    # a uniform measure gives equal balls about support points equal mass;
    # an atom on the line breaks that at radii isolating it
    t = np.arange(-1000, 1001) * 0.001
    pts = np.vstack([np.column_stack([t, np.zeros_like(t)])])
    w = np.full(pts.shape[0], 0.001)
    pts = np.vstack([pts, [[0.0, 0.0]]])
    w = np.concatenate([w, [1.0]])
    nu = DiscreteMeasure(pts, w)
    at_atom = mass_in(nu, Ball(np.zeros(2), 0.1))
    off_atom = mass_in(nu, Ball(np.array([0.5, 0.0]), 0.1))
    assert (at_atom - off_atom) / at_atom >= 0.5

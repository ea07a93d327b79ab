import numpy as np
import pytest

from gmtlab.blowup import (FLATNESS_SCALE, ScaleLadder, blowup_sequence,
                           density_gap_verdict, density_scan,
                           flatness_profile, sandwich_check)
from gmtlab.cones import d_cone_flat
from gmtlab.corpus import gen_graph, gen_lambda_field
from gmtlab.errors import ContractError, ResolutionGuardError
from gmtlab.measures import Ball, DiscreteMeasure, EllipseField, mass_in

LINE_LADDER = dict(r0=0.5, rho=0.63096, count=6, spacing=0.001)

# Locked regression values for the self-similar controls (first computation).
CANTOR_CORNER_GAP = 1.375
CROSS_FLATNESS = 0.414


def test_ladder_guard():
    with pytest.raises(ResolutionGuardError):
        ScaleLadder(r0=0.1, rho=0.5, count=4, spacing=0.001)
    lad = ScaleLadder(**LINE_LADDER)
    assert lad.r_min >= 20 * 0.001
    # NaN fails every comparison, so each bound must be written to reject it.
    for bad in (dict(r0=0.0), dict(r0=np.nan), dict(r0=np.inf),
                dict(rho=1.0), dict(rho=np.nan), dict(count=0),
                dict(spacing=-0.001), dict(spacing=np.nan),
                dict(spacing=np.inf)):
        with pytest.raises(ContractError):
            ScaleLadder(**dict(LINE_LADDER, **bad))


def test_density_scan_line(line_entry, identity2):
    lad = ScaleLadder(**LINE_LADDER)
    rep = density_scan(line_entry.measure, np.zeros(2), identity2, 1, lad)
    dens = np.array(rep.columns["density"])
    assert np.all(np.abs(dens - 2.0) <= 2 * 0.001 / lad.radii)
    assert rep.meta["gap_ratio"] <= 1.02


def test_density_scan_line_ellipse(line_entry):
    field = EllipseField.constant(np.diag([2.0, 1.0]))
    lad = ScaleLadder(**LINE_LADDER)
    rep = density_scan(line_entry.measure, np.zeros(2), field, 1, lad)
    dens = np.array(rep.columns["density"])
    assert np.all(np.abs(dens - 4.0) <= 4 * 0.001 / lad.radii)


def test_density_scan_flags_empty(identity2):
    atom = DiscreteMeasure.dirac(np.array([3.0, 0.0]))
    lad = ScaleLadder(r0=0.5, rho=0.5, count=3, spacing=0.0)
    rep = density_scan(atom, np.zeros(2), identity2, 1, lad)
    assert rep.meta["all_zero"]


def test_density_gap_verdicts(line_entry, cantor7_entry, identity2):
    lad = ScaleLadder(**LINE_LADDER)
    line_rep = density_scan(line_entry.measure, np.zeros(2), identity2, 1, lad)
    assert density_gap_verdict(line_rep, 0.05) == "small-gap"
    assert density_gap_verdict(line_rep, 10.0) == "small-gap"

    ladc = ScaleLadder(r0=0.25, rho=0.5, count=7,
                       spacing=cantor7_entry.spacing)
    cant_rep = density_scan(cantor7_entry.measure, np.zeros(2), identity2, 1,
                            ladc)
    assert cant_rep.meta["gap_ratio"] == pytest.approx(CANTOR_CORNER_GAP,
                                                       abs=0.05)
    assert density_gap_verdict(cant_rep, 0.05) == "large-gap"
    for threshold in (np.nan, 0.0, -0.05, np.inf):
        with pytest.raises(ContractError):
            density_gap_verdict(line_rep, threshold)


def test_blowup_power_mode_matches_density_scan(line_entry, identity2):
    lad = ScaleLadder(**LINE_LADDER)
    rep = density_scan(line_entry.measure, np.zeros(2), identity2, 1, lad)
    seq = blowup_sequence(line_entry.measure, np.zeros(2), identity2, lad,
                          mode="power", m=1)
    assert np.array_equal(seq.densities, np.array(rep.columns["density"]))
    for r, nu, d in zip(seq.radii, seq.measures, seq.densities):
        assert mass_in(nu, Ball(np.zeros(2), 1.0)) == pytest.approx(d, rel=1e-12)


def test_blowup_mass_mode_unit(line_entry, identity2):
    lad = ScaleLadder(**LINE_LADDER)
    seq = blowup_sequence(line_entry.measure, np.zeros(2), identity2, lad,
                          mode="mass")
    for nu in seq.measures:
        assert mass_in(nu, Ball(np.zeros(2), 1.0)) == pytest.approx(1.0,
                                                                    abs=1e-12)


def test_blowup_mass_mode_skips_empty(identity2):
    atom = DiscreteMeasure.dirac(np.array([3.0, 0.0]))
    lad = ScaleLadder(r0=0.5, rho=0.5, count=3, spacing=0.0)
    seq = blowup_sequence(atom, np.zeros(2), identity2, lad, mode="mass")
    assert seq.skipped == [0, 1, 2]
    assert all(nu is None for nu in seq.measures)


def test_blowup_composition_dyadic_exact(line_entry, identity2):
    from gmtlab.measures import AffineMap, lambda_rescale, pushforward
    mu = line_entry.measure
    a = np.zeros(2)
    one = lambda_rescale(mu, a, 0.25, identity2)
    two = pushforward(lambda_rescale(mu, a, 0.5, identity2),
                      AffineMap.translate_scale(np.zeros(2), 0.5))
    assert np.array_equal(one.points, two.points)
    assert np.array_equal(one.weights, two.weights)


def test_eccentricity_density_sandwich(line_entry):
    # constant anisotropy: densities with M and with I are mutually bounded
    # by the extreme singular values raised to m
    lam = np.diag([2.0, 1.0])
    lad = ScaleLadder(**LINE_LADDER)
    field = EllipseField.constant(lam)
    ident = EllipseField.identity(2)
    d_ell = np.array(density_scan(line_entry.measure, np.zeros(2), field, 1,
                                  lad).columns["density"])
    d_euc = np.array(density_scan(line_entry.measure, np.zeros(2), ident, 1,
                                  lad).columns["density"])
    # B(0, smin r) lies inside lam B(0, r), which lies inside B(0, smax r)
    smin, smax = np.linalg.svd(lam, compute_uv=False)[[-1, 0]]
    tol = 1.05
    assert np.all(d_ell <= d_euc.max() * smax * tol)
    assert np.all(d_ell >= d_euc.min() * smin / tol)


def _profile(seq, m):
    """`flatness_profile` of the per-rung cone distances of a blowup sequence,
    as `gmtlab.cli.cmd_blowup` computes them."""
    return flatness_profile(
        seq.radii, [d_cone_flat(nu, m, FLATNESS_SCALE) for nu in seq.measures],
        m)


def test_flatness_profile_flat_sample(line_entry, identity2):
    lad = ScaleLadder(r0=0.4, rho=0.5, count=3, spacing=0.001)
    seq = blowup_sequence(line_entry.measure, np.zeros(2), identity2, lad,
                          mode="power", m=1)
    rep = _profile(seq, 1)
    floor = rep.meta["floor"]
    assert all(v <= 0.02 + floor for v in rep.columns["flatness"])
    assert rep.verdict == "flat"


def test_flatness_profile_graph_decreases(identity2):
    amp, freq = 0.4, 2.0
    entry = gen_graph(lambda t: amp * np.sin(freq * t), lip_bound=amp * freq,
                      domain=(-2.5, 2.5), h=0.001,
                      grad=lambda t: amp * freq * np.cos(freq * t))
    t0 = 0.4
    a = np.array([t0, amp * np.sin(freq * t0)])
    lad = ScaleLadder(r0=0.8, rho=0.5, count=4, spacing=0.001)
    seq = blowup_sequence(entry.measure, a, identity2, lad, mode="power", m=1)
    rep = _profile(seq, 1)
    assert rep.verdict == "decreasing"
    assert rep.meta["final"] <= 0.05 + rep.meta["floor"]


def test_flatness_profile_cross_self_similar(cross_entry, identity2):
    lad = ScaleLadder(r0=0.4, rho=0.5, count=3, spacing=0.001)
    seq = blowup_sequence(cross_entry.measure, np.zeros(2), identity2, lad,
                          mode="power", m=1)
    rep = _profile(seq, 1)
    assert rep.verdict == "non-vanishing"
    vals = rep.columns["flatness"]
    assert max(vals) - min(vals) <= 0.01  # the cross is its own blowup at 0
    assert vals[0] == pytest.approx(CROSS_FLATNESS, abs=0.02)


def test_flatness_profile_verdicts_from_values():
    floor = 0.025  # cone_floor(FLATNESS_SCALE, 1)
    cases = [([0.4, 0.3, 0.1], "decreasing"),
             ([0.4, 0.5, 0.01], "inconclusive"),  # not monotone within 20%
             ([0.41, 0.42, 0.41], "non-vanishing"),
             ([0.41, 2 * floor, 0.41], "non-vanishing"),
             ([0.41, 0.04, 0.41], "inconclusive"),
             # every value within the floor: no trend to read, checked first
             ([0.01125, 0.020625], "flat"),  # the line `blowup` config
             ([-0.0, 0.0025, 0.0075], "flat"),  # the heavy line blowup
             ([0.02, 0.01, 0.005], "flat"),  # would read decreasing
             ([floor, floor, floor], "flat"),
             ([0.01, 0.02, 0.026], "inconclusive"),
             ([0.05, 0.02, 0.01], "decreasing")]
    for vals, verdict in cases:
        radii = [0.4 / 2 ** i for i in range(len(vals))]
        rep = flatness_profile(radii, vals, 1)
        assert rep.verdict == verdict, vals
        assert rep.meta == {"floor": floor, "final": vals[-1]}
        assert rep.columns == {"r": radii, "flatness": vals}
    with pytest.raises(ContractError):
        flatness_profile([], [], 1)


def test_sandwich_line(line_entry, identity2):
    lad = ScaleLadder(**LINE_LADDER)
    rep = sandwich_check(line_entry.measure, np.zeros(2), identity2, 1, lad,
                         [0.5, 1.0, 2.0])
    assert rep.verdict == "ok"
    assert rep.meta["worst_violation"] <= rep.meta["slack"]


def test_sandwich_circle(circle_entry, identity2):
    lad = ScaleLadder(r0=0.2, rho=0.5, count=3, spacing=0.001)
    rep = sandwich_check(circle_entry.measure, np.array([1.0, 0.0]),
                         identity2, 1, lad, [0.5, 1.0, 2.0])
    assert rep.verdict == "ok"


def test_sandwich_circle_against_curvature_oracle(circle_entry, identity2):
    # chord-vs-arc correction: density(r) = 4 asin(r/2) / r on the unit circle
    lad = ScaleLadder(r0=0.2, rho=0.5, count=3, spacing=0.001)
    rep = sandwich_check(circle_entry.measure, np.array([1.0, 0.0]),
                         identity2, 1, lad, [0.5, 1.0, 2.0])
    dens = lambda r: 4.0 * np.arcsin(r / 2.0) / r
    probe_radii = [R * r for r in lad.radii for R in (0.5, 1.0, 2.0)]
    window = [dens(r) for r in lad.radii]
    oracle = max(max(0.0, dens(t) - max(window), min(window) - dens(t))
                 for t in probe_radii)
    assert rep.meta["worst_violation"] <= oracle + 3 * 0.001 / min(probe_radii)


def test_sandwich_cantor_inconclusive(cantor7_entry, identity2):
    lad = ScaleLadder(r0=0.25, rho=0.5, count=3, spacing=cantor7_entry.spacing)
    rep = sandwich_check(cantor7_entry.measure, np.zeros(2), identity2, 1,
                         lad, [0.7, 1.4])
    assert rep.verdict == "inconclusive"
    assert rep.meta["worst_violation"] > rep.meta["slack"]


def test_sandwich_validates_window(line_entry, identity2):
    lad = ScaleLadder(**LINE_LADDER)
    # Every R must lie in (0, WINDOW_RADIUS]; NaN fails both comparisons.
    for R_list in ([5.0], [], [0.5, np.nan], [np.inf], [0.0], [-1.0, 1.0],
                   [1.0, 4.0 + 1e-9]):
        with pytest.raises(ContractError):
            sandwich_check(line_entry.measure, np.zeros(2), identity2, 1, lad,
                           R_list)


def _blowup_route_violations(mu, a, field, m, ladder, R_list):
    """The sandwich read off the rescaled power blowups, mass_in(nu, B_R)."""
    seq = blowup_sequence(mu, a, field, ladder, mode="power", m=m)
    dmin, dmax = float(seq.densities.min()), float(seq.densities.max())
    viol = []
    for nu in seq.measures:
        for R in R_list:
            val = mass_in(nu, Ball(np.zeros(2), R)) / R ** m
            viol.append(max(dmin - val, val - dmax, 0.0))
    return viol


def _graph_point(entry, t):
    pts = entry.measure.points
    return pts[np.argmin(np.abs(pts[:, 0] - t))]


SCAN_LADDER = dict(r0=0.25, rho=0.63096, count=6, spacing=0.001)
ROTATING = dict(kind="rotating", eccentricity=2.0, rate=1.0)
CHECKERBOARD = dict(kind="checkerboard", m1=np.eye(2), m2=2.0 * np.eye(2),
                    cell=0.5)
# (fixture, base point, field, ladder, R list): the sandwich ladders above,
# a sine-graph atom under the rotating field and a circle atom under the
# checkerboard field (angle 0.3, in a cell where M = 2 I).
ROUTE_CASES = {
    "line": ("line_entry", lambda e: np.zeros(2), None, LINE_LADDER,
             [0.5, 1.0, 2.0]),
    "circle": ("circle_entry", lambda e: np.array([1.0, 0.0]), None,
               dict(r0=0.2, rho=0.5, count=3, spacing=0.001), [0.5, 1.0, 2.0]),
    "cantor": ("cantor7_entry", lambda e: np.zeros(2), None,
               dict(r0=0.25, rho=0.5, count=3, spacing=4.0 ** -7), [0.7, 1.4]),
    "rotating-graph": ("sine_graph_entry", lambda e: _graph_point(e, 0.3),
                       ROTATING, SCAN_LADDER, [0.5, 1.0, 2.0]),
    "checkerboard-circle": ("circle_entry", lambda e: e.measure.points[300],
                            CHECKERBOARD, SCAN_LADDER, [0.5, 1.0, 2.0]),
}


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_sandwich_agrees_with_the_blowup_route(request, identity2, case):
    fixture, point, params, ladder, R_list = ROUTE_CASES[case]
    entry = request.getfixturevalue(fixture)
    field = identity2 if params is None else gen_lambda_field(**params)
    a, lad = point(entry), ScaleLadder(**ladder)
    rep = sandwich_check(entry.measure, a, field, 1, lad, R_list)
    old = _blowup_route_violations(entry.measure, a, field, 1, lad, R_list)
    for new, v in zip(rep.columns["violation"], old, strict=True):
        assert abs(new - v) <= 1e-12 * (1 + abs(v))
    assert rep.verdict == ("ok" if max(old) <= rep.meta["slack"]
                           else "inconclusive")

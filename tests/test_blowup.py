import re

import numpy as np
import pytest

from gmtlab.blowup import (FLATNESS_SCALE, ScaleLadder, blowup_report,
                           blowup_sequence, blowup_symmetry_defect,
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
    assert density_gap_verdict(rep, 0.05) == "zero-density"
    assert np.all(np.isnan(rep.columns["gap_ratio_so_far"]))


def test_density_gap_ratio_is_inf_once_a_positive_density_meets_zero(
        identity2):
    # The atom lies in the ball of radius 0.5 only.
    atom = DiscreteMeasure.dirac(np.array([0.3, 0.0]))
    lad = ScaleLadder(r0=0.5, rho=0.5, count=3, spacing=0.0)
    rep = density_scan(atom, np.zeros(2), identity2, 1, lad)
    assert rep.columns["gap_ratio_so_far"] == [1.0, np.inf, np.inf]
    assert not rep.meta["all_zero"]
    assert density_gap_verdict(rep, 0.05) == "large-gap"


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


def test_blowup_sequence_is_power_normalized_only(line_entry, identity2):
    # The one normalization is r^-m, which needs m; the mode keyword admits
    # only "power".
    lad = ScaleLadder(**LINE_LADDER)
    for kwargs in ({}, dict(mode="power"), dict(mode="mass"),
                   dict(mode="mass", m=1)):
        with pytest.raises(ContractError, match="no power blowup"):
            blowup_sequence(line_entry.measure, np.zeros(2), identity2, lad,
                            **kwargs)


@pytest.mark.parametrize("mode", ["power"])
def test_blowup_rungs_are_the_scaled_window_restrictions(line_entry, identity2,
                                                         mode):
    # Each rung is one mask and one measure; its bits are those of
    # restricting the rescaled measure to the window and scaling it by r^-m.
    from gmtlab.blowup import WINDOW_RADIUS
    from gmtlab.measures import lambda_rescale, restrict
    mu, a = line_entry.measure, np.array([0.1, 0.0])
    seq = blowup_sequence(mu, a, identity2, ScaleLadder(**LINE_LADDER),
                          mode=mode, m=1)
    window = Ball(np.zeros(2), WINDOW_RADIUS)
    for r, nu in zip(seq.radii, seq.measures, strict=True):
        kept = restrict(lambda_rescale(mu, a, float(r), identity2), window)
        want = DiscreteMeasure(kept.points, kept.weights * float(r) ** -1)
        assert np.array_equal(nu.points, want.points)
        assert np.array_equal(nu.weights, want.weights)


def test_blowup_composition_dyadic_exact(line_entry, identity2):
    from gmtlab.measures import AffineMap, lambda_rescale, pushforward
    mu = line_entry.measure
    a = np.zeros(2)
    one = lambda_rescale(mu, a, 0.25, identity2)
    two = pushforward(lambda_rescale(mu, a, 0.5, identity2),
                      AffineMap(np.eye(2) / 0.5, np.zeros(2)))
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
    as `blowup_report` computes them."""
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


@pytest.mark.parametrize("m,R", [(1, 5e-324), (2, 5e-324), (2, 1e-200)])
def test_sandwich_refuses_a_shell_mass_out_of_float_range(line_entry,
                                                          identity2, m, R):
    # nu_i(B_R) / R^m overflows, or R^m underflows to 0.
    lad = ScaleLadder(r0=0.5, rho=0.5, count=2, spacing=0.001)
    with pytest.raises(ResolutionGuardError, match="^" + re.escape(
            f"sandwich radius R = {R} at density exponent m = {m} puts "
            "nu_i(B_R) / R^m out of floating-point range") + "$"):
        sandwich_check(line_entry.measure, np.zeros(2), identity2, m, lad,
                       [R])


def test_sandwich_keeps_a_finite_shell_mass_at_a_tiny_R(line_entry,
                                                         identity2):
    lad = ScaleLadder(r0=0.5, rho=0.5, count=2, spacing=0.001)
    rep = sandwich_check(line_entry.measure, np.zeros(2), identity2, 1, lad,
                         [1e-300])
    # Each shell holds the one atom at a, so nu_i(B_R) / R^m is far above
    # every density and is the violation itself.
    mass = float(line_entry.measure.weights[0])
    assert rep.columns["violation"] == [mass * r ** -1 / 1e-300
                                        for r in (0.5, 0.25)]


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


# The three scans that read densities, each called with exponent m on the
# line in R^2.
DENSITY_SCANS = {
    "density_scan": lambda mu, lad, m: density_scan(
        mu, np.zeros(2), EllipseField.identity(2), m, lad),
    "blowup_sequence": lambda mu, lad, m: blowup_sequence(
        mu, np.zeros(2), EllipseField.identity(2), lad, m=m),
    "sandwich_check": lambda mu, lad, m: sandwich_check(
        mu, np.zeros(2), EllipseField.identity(2), m, lad, [1.0]),
}


@pytest.mark.parametrize("name", sorted(DENSITY_SCANS))
def test_scans_refuse_a_density_exponent_outside_1_to_n(line_entry, name):
    scan = DENSITY_SCANS[name]
    lad = ScaleLadder(**LINE_LADDER)
    for m in (-3, 0, 3, 7):
        with pytest.raises(ContractError,
                           match=f"density exponent m = {m} must lie in 1..2"):
            scan(line_entry.measure, lad, m)
    for m in (1, 2):
        scan(line_entry.measure, lad, m)


def _composed_blowup_table(mu, a, field, m, ladder, R_list):
    """The `blowup` table as the command composed it before `blowup_report`:
    a power blowup sequence and a sandwich check, each with its own distance
    pass, then the cone distance and the symmetry defect per rung and the
    worst violation per radius."""
    seq = blowup_sequence(mu, a, field, ladder, mode="power", m=m)
    sandwich = sandwich_check(mu, a, field, m, ladder, R_list)
    worst = {}
    for r, v in zip(sandwich.columns["r"], sandwich.columns["violation"]):
        worst[r] = max(worst.get(r, 0.0), v)
    radii = [float(r) for r in seq.radii]
    profile = flatness_profile(
        radii, [d_cone_flat(nu, m, FLATNESS_SCALE) for nu in seq.measures], m)
    columns = {
        "r": radii,
        "flatness": profile.columns["flatness"],
        "symmetry_defect": [blowup_symmetry_defect(nu, m=m)
                            for nu in seq.measures],
        "sandwich_violation": [worst[r] for r in radii],
    }
    meta = {"flatness_verdict": profile.verdict,
            "flatness_floor": profile.meta["floor"]}
    return columns, sandwich.verdict, meta


BLOWUP_TABLE_CASES = {
    "line": ("line_entry", lambda e: np.zeros(2), None,
             dict(r0=0.4, rho=0.5, count=3, spacing=0.001), [0.5, 1.0, 2.0]),
    "rotating-graph": ("sine_graph_entry", lambda e: _graph_point(e, 0.3),
                       ROTATING, dict(r0=0.4, rho=0.5, count=3,
                                      spacing=0.001), [0.5, 1.0, 2.0, 3.0]),
}


@pytest.mark.parametrize("case", sorted(BLOWUP_TABLE_CASES))
def test_blowup_report_is_the_composed_table_bit_for_bit(request, identity2,
                                                         case):
    fixture, point, params, ladder, R_list = BLOWUP_TABLE_CASES[case]
    entry = request.getfixturevalue(fixture)
    field = identity2 if params is None else gen_lambda_field(**params)
    a, lad = point(entry), ScaleLadder(**ladder)
    rep = blowup_report(entry.measure, a, field, 1, lad, R_list)
    columns, verdict, meta = _composed_blowup_table(entry.measure, a, field,
                                                    1, lad, R_list)
    assert rep.names == list(columns)
    for name, want in columns.items():
        assert [float(v).hex() for v in rep.columns[name]] \
            == [float(v).hex() for v in want], name
    assert rep.verdict == verdict and rep.meta == meta

"""The one-pass scans equal their per-rung definitions bit for bit.

`density_scan`, `blowup_sequence`, `pv_convergence_scan` and `sandwich_check`
compute their distances once per base point and mask them per rung.  These
properties rebuild every rung from its definition (`mass_in` of one ball,
one `truncated_pv` call; the sandwich's nu_i(B_R) is r_i^-m mu(B_M(a, r_i R)))
on adversarial clouds: atoms placed on the ellipse
spheres a + M(a) r e of the very radii being scanned, duplicated atoms, an
atom at the base point, zero weights, and the two scan fields of the corpus
(the smooth rotating field and the discontinuous checkerboard, with base
points on its cell edges).  Each rung is also checked against the
definition restated here with plain numpy, independent of the package's
distance routine.  Equality is exact, never approximate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.blowup import (WINDOW_RADIUS, ScaleLadder, blowup_sequence,
                           density_scan, sandwich_check)
from gmtlab.corpus import gen_lambda_field
from gmtlab.kernels import (finsler_kernel, pv_convergence_scan, riesz_kernel,
                            theta_kernel, truncated_pv)
from gmtlab.measures import (Ball, DiscreteMeasure, ellipse_ball,
                             lambda_rescale, mass_in, restrict)

FIELDS = {
    "rotating": {"kind": "rotating", "eccentricity": 2.0, "rate": 1.0},
    "checkerboard": {"kind": "checkerboard", "m1": np.eye(2),
                     "m2": 2.0 * np.eye(2), "cell": 0.5},
}
SANDWICH_R = (0.5, 1.0, 2.0)
TIE = 1e-12  # measures.TIE_TOL, restated


def _distances(points, center, inv=None):
    diff = points - center
    if inv is not None:
        diff = diff @ inv.T
    return diff, np.sqrt(np.sum(diff * diff, axis=1))


def _mass(mu, dist, r):
    """Closed, tie-tolerant ball mass: sum of the weights with dist <= r."""
    return float(mu.weights[dist <= r * (1.0 + TIE)].sum())


def _pv(spec, mu, a, eps, outer, truncation):
    """One truncated sum, restated from the kernel definitions."""
    if spec.flavor == "riesz":
        inv = np.linalg.inv(spec.anisotropy.matrix(a))
        u, t = _distances(mu.points, a, inv)
        vals = u / t[:, None] ** (spec.m + 1)
    else:
        _, t = _distances(mu.points, a, spec._sqrt_inv)
        w, _ = _distances(mu.points, a, spec._inv)
        denom = (spec._det_root * t ** 2 if spec.flavor == "theta"
                 else t ** (spec.m + 1))
        vals = spec.constant * w / denom[:, None]
    if truncation == "euclidean":
        t = _distances(mu.points, a)[1]
    top = np.inf if outer is None else outer
    keep = (t >= eps * (1.0 - TIE)) & (t < top * (1.0 - TIE))
    if not keep.any():
        return np.zeros(2)
    return (mu.weights[keep, None] * vals[keep]).sum(axis=0)


# Cell edges and corners of the checkerboard, plus generic coordinates.
coords = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 0.25, 1.0]),
                   st.floats(-1.0, 1.0, allow_nan=False))
directions = st.lists(
    st.one_of(st.sampled_from([0.0, np.pi / 4, np.pi / 2, np.pi]),
              st.floats(0.0, 2 * np.pi)),
    min_size=1, max_size=4)


@st.composite
def scenes(draw):
    """A field, a base point a, a radius ladder and a cloud that is hostile
    to that ladder: atoms on the ellipse spheres of its radii (also scaled
    by the sandwich radii R) and of the tie band around them, duplicates and
    an atom at a."""
    field = gen_lambda_field(**FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    a = np.array([draw(coords), draw(coords)])
    ladder = ScaleLadder(r0=draw(st.sampled_from([0.25, 0.4, 0.5])),
                         rho=draw(st.sampled_from([0.5, 0.63096])),
                         count=draw(st.integers(3, 6)), spacing=0.0)
    radii = [float(r) * s for r in ladder.radii for s in (1.0,) + SANDWICH_R]
    mat = field.matrix(a)
    # Also on the edges of the tie band, r (1 +- TIE).
    on_spheres = [a + mat @ (r * edge * np.array([np.cos(t), np.sin(t)]))
                  for r in draw(st.lists(st.sampled_from(radii), min_size=1,
                                         max_size=8))
                  for edge in [draw(st.sampled_from([1.0, 1.0 + TIE,
                                                     1.0 - TIE]))]
                  for t in draw(directions)]
    free = [np.array([draw(coords), draw(coords)]) * 1.5
            for _ in range(draw(st.integers(0, 12)))]
    pts = [a] + on_spheres + free
    pts += [pts[i] for i in draw(st.lists(st.integers(0, len(pts) - 1),
                                          max_size=6))]
    weights = [draw(st.sampled_from([1.0, 0.5, 3.0]))]  # the atom at a
    weights += draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
                             min_size=len(pts) - 1, max_size=len(pts) - 1))
    return field, a, ladder, DiscreteMeasure(np.array(pts), weights)


@settings(max_examples=150)
@given(scene=scenes(), m=st.sampled_from([1, 2]))
def test_density_scan_equals_per_ball_masses(scene, m):
    field, a, ladder, mu = scene
    want = [mass_in(mu, ellipse_ball(a, r, field)) / r ** m
            for r in ladder.radii]
    dist = _distances(mu.points, a, np.linalg.inv(field.matrix(a)))[1]
    assert want == [_mass(mu, dist, r) / r ** m for r in ladder.radii]
    assert density_scan(mu, a, field, m, ladder).columns["density"] == want
    seq = blowup_sequence(mu, a, field, ladder, mode="power", m=m)
    assert seq.densities.tolist() == want


@settings(max_examples=150)
@given(scene=scenes(), flavor=st.sampled_from(["riesz", "theta", "finsler"]),
       eps0=st.sampled_from([0.4, 0.25]), rungs=st.integers(4, 6),
       outer=st.sampled_from([None, 0.8, 2.0]),
       truncation=st.sampled_from(["ellipse", "euclidean"]))
def test_pv_scan_rows_equal_per_eps_truncated_pv(scene, flavor, eps0, rungs,
                                                 outer, truncation):
    field, a, _, mu = scene
    spd = field.matrix(a)
    spec = {"riesz": lambda: riesz_kernel(field, 1),
            "theta": lambda: theta_kernel(spd),
            "finsler": lambda: finsler_kernel(spd, 1)}[flavor]()
    ladder = [eps0 * 0.5 ** k for k in range(rungs)]
    rep = pv_convergence_scan(spec, mu, a, ladder, spacing=0.0, R=outer,
                              truncation=truncation)
    rows = [truncated_pv(spec, mu, a, e, R=outer, truncation=truncation)
            for e in ladder]
    with np.errstate(divide="ignore", invalid="ignore"):
        defined = [_pv(spec, mu, a, e, outer, truncation) for e in ladder]
    for k in range(2):
        assert rep.columns[f"v{k + 1}"] == [float(v[k]) for v in rows]
        assert [float(v[k]) for v in defined] == [float(v[k]) for v in rows]


@settings(max_examples=80)
@given(scene=scenes(), m=st.sampled_from([1, 2]))
def test_sandwich_violations_equal_per_R_masses(scene, m):
    """nu_i(B_R) = r^-m mu(B_M(a, r R)): each violation from one ellipse
    mass per (r, R), never from the rescaled blowup."""
    field, a, ladder, mu = scene
    rep = sandwich_check(mu, a, field, m, ladder, list(SANDWICH_R))
    radii = [float(r) for r in ladder.radii]
    dens = [mass_in(mu, ellipse_ball(a, r, field)) / r ** m for r in radii]
    dmin, dmax = min(dens), max(dens)
    dist = _distances(mu.points, a, np.linalg.inv(field.matrix(a)))[1]
    want, defined = [], []
    for r in radii:
        for R in SANDWICH_R:
            val = mass_in(mu, ellipse_ball(a, r * R, field)) * r ** -m / R ** m
            want.append(max(dmin - val, val - dmax, 0.0))
            val = _mass(mu, dist, r * R) * r ** -m / R ** m
            defined.append(max(dmin - val, val - dmax, 0.0))
    assert rep.columns["violation"] == want == defined
    assert rep.meta["density_window"] == (dmin, dmax)


@settings(max_examples=100)
@given(scene=scenes(), hole=st.integers(0, 6))
def test_mass_mode_skips_exactly_the_empty_ellipses(scene, hole):
    """Mass mode drops the rungs whose ellipse holds no mass (here some are
    emptied by clearing the ellipse of one ladder radius) and scales the
    window-restricted rescaling of every other rung by 1 / that mass."""
    field, a, ladder, mu = scene
    radii = [float(r) for r in ladder.radii]
    if hole:
        dist = _distances(mu.points, a, np.linalg.inv(field.matrix(a)))[1]
        keep = dist > radii[min(hole, len(radii)) - 1]
        mu = DiscreteMeasure(mu.points[keep], mu.weights[keep], dim=2)
    seq = blowup_sequence(mu, a, field, ladder, mode="mass")
    masses = [mass_in(mu, ellipse_ball(a, r, field)) for r in radii]
    assert seq.skipped == [i for i, mass in enumerate(masses) if mass == 0.0]
    assert np.isnan(seq.densities).all()
    window = Ball(np.zeros(2), WINDOW_RADIUS)
    for r, mass, nu in zip(radii, masses, seq.measures):
        if mass == 0.0:
            assert nu is None
            continue
        kept = restrict(lambda_rescale(mu, a, r, field), window)
        assert np.array_equal(nu.points, kept.points)
        assert np.array_equal(nu.weights, kept.weights * (1.0 / mass))

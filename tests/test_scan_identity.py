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

The batched routines are held to the expressions they replaced, written out
here as references, down to the sign of zero: each principal-value window
against the row-by-row sum ``(w[k, None] * vals[k]).sum(axis=0)``, and
`omega_profile` against one midpoint quadrature per probe.  The frozen
drift, a sup over unit directions, is held to the 768-node annulus formula
it equals in exact arithmetic: within 1e-12 relative, and exactly where that
formula gives 0.  A pinned set of scan outputs catches a change of summation
order without the benchmark.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab import corpus
from gmtlab.blowup import (WINDOW_RADIUS, ScaleLadder, blowup_sequence,
                           density_scan, sandwich_check)
from gmtlab.corpus import gen_lambda_field
from gmtlab.kernels import (_directions, _kernel_rows, _theta_rows,
                            _window_sums, ball_average, finsler_kernel,
                            frozen_discrepancy, pv_convergence_scan,
                            riesz_kernel, theta_kernel, truncated_pv)
from gmtlab.measures import (BALL_GRID, DiscreteMeasure, EllipseField,
                             ellipse_ball, mass_in)
from gmtlab.moduli import (doubling_constant, omega_profile, seeded_probes,
                           tau_moduli)

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


def _pv(spec, mu, a, eps, outer):
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
        vals = w / denom[:, None]
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
       outer=st.sampled_from([None, 0.8, 2.0]))
def test_pv_scan_rows_equal_per_eps_truncated_pv(scene, flavor, eps0, rungs,
                                                 outer):
    field, a, _, mu = scene
    spd = field.matrix(a)
    spec = {"riesz": lambda: riesz_kernel(field, 1),
            "theta": lambda: theta_kernel(spd),
            "finsler": lambda: finsler_kernel(spd, 1)}[flavor]()
    ladder = [eps0 * 0.5 ** k for k in range(rungs)]
    rep = pv_convergence_scan(spec, mu, a, ladder, spacing=0.0, R=outer)
    rows = [truncated_pv(spec, mu, a, e, R=outer) for e in ladder]
    with np.errstate(divide="ignore", invalid="ignore"):
        defined = [_pv(spec, mu, a, e, outer) for e in ladder]
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
@given(scene=scenes(), m=st.sampled_from([1, 2]))
def test_power_rungs_hold_exactly_the_window_atoms(scene, m):
    """Rung i holds exactly the atoms of mu(B_M(a, WINDOW_RADIUS r_i)), that
    is those with |u| <= WINDOW_RADIUS r (1 + TIE) for u = M(a)^{-1}(y - a),
    at u / r and scaled by r^-m, and an empty window gives an empty rung."""
    field, a, ladder, mu = scene
    seq = blowup_sequence(mu, a, field, ladder, m=m)
    u, dist = _distances(mu.points, a, np.linalg.inv(field.matrix(a)))
    for r, nu in zip(ladder.radii, seq.measures, strict=True):
        keep = dist <= WINDOW_RADIUS * r * (1.0 + TIE)
        assert np.array_equal(nu.points, u[keep] / r)
        assert np.array_equal(nu.weights, mu.weights[keep] * float(r) ** -m)


# ---------------------------------------------------------------------------
# Principal-value windows: contiguous columns against the row-by-row sum
# ---------------------------------------------------------------------------

def _row_sums(spec, mu, a, ladder, outer):
    """Each window's sum as ``(w[k, None] * vals[k]).sum(axis=0)`` over the
    boolean rows k of the window, +0.0 for an empty window."""
    vals, t = _kernel_rows(spec, a, mu.points)
    top = np.inf if outer is None else outer
    out = []
    for eps in ladder:
        k = (t >= eps * (1.0 - TIE)) & (t < top * (1.0 - TIE))
        out.append((mu.weights[k, None] * vals[k]).sum(axis=0) if k.any()
                   else np.zeros(spec.dim))
    return out


def _bits(vectors):
    """Byte images of float vectors: equal bits, signed zeros included."""
    return [np.asarray(v, dtype=float).tobytes() for v in vectors]


def _window_counts(spec, mu, a, ladder, outer):
    t = _kernel_rows(spec, a, mu.points)[1]
    top = np.inf if outer is None else outer
    return [int(((t >= e * (1.0 - TIE)) & (t < top * (1.0 - TIE))).sum())
            for e in ladder]


# Zero, subnormal and ordinary weights: a zero or subnormal weight times a
# negative kernel component gives a -0.0 term.
weights_st = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1.0]),
                       st.floats(1e-3, 2.0))


@st.composite
def windows(draw):
    """A kernel, a base point, a halving eps ladder with an outer radius, and
    a cloud with atoms on the eps and R spheres (and the tie band around
    them), duplicates, an atom at the base point and signed-zero terms."""
    field = gen_lambda_field(**FIELDS[draw(st.sampled_from(sorted(FIELDS)))])
    a = np.array([draw(coords), draw(coords)])
    mat = field.matrix(a)
    flavor = draw(st.sampled_from(["riesz", "theta", "finsler"]))
    spec = {"riesz": lambda: riesz_kernel(field, 1),
            "theta": lambda: theta_kernel(mat),
            "finsler": lambda: finsler_kernel(mat, 1)}[flavor]()
    ladder = [draw(st.sampled_from([0.4, 0.25])) * 0.5 ** k
              for k in range(draw(st.integers(4, 6)))]
    outer = draw(st.sampled_from([None, 0.8, 2.0]))
    spheres = ladder + ([] if outer is None else [outer])
    on_spheres = [a + mat @ (r * edge * np.array([np.cos(t), np.sin(t)]))
                  for r in draw(st.lists(st.sampled_from(spheres),
                                         max_size=10))
                  for edge in [draw(st.sampled_from([1.0, 1.0 + TIE,
                                                     1.0 - TIE]))]
                  for t in draw(directions)]
    free = [np.array([draw(coords), draw(coords)]) * 1.5
            for _ in range(draw(st.integers(0, 12)))]
    pts = [a] + on_spheres + free
    pts += [pts[i] for i in draw(st.lists(st.integers(0, len(pts) - 1),
                                          max_size=6))]
    weights = draw(st.lists(weights_st, min_size=len(pts),
                            max_size=len(pts)))
    return spec, a, ladder, outer, DiscreteMeasure(np.array(pts), weights)


@settings(max_examples=150)
@given(case=windows())
def test_window_sums_equal_the_row_by_row_sums(case):
    spec, a, ladder, outer, mu = case
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = _row_sums(spec, mu, a, ladder, outer)
    assert _bits(_window_sums(spec, mu, a, ladder, outer)) == _bits(want)


def test_window_sums_edge_windows_keep_their_bits():
    spec = riesz_kernel(EllipseField.identity(2), 1)
    a = np.zeros(2)
    down = np.array([-1.0, -1.0]) / np.sqrt(2.0)
    # Weight 0 on the kernel's negative quadrant: -0.0 terms only.
    pts = [0.5 * down, 0.6 * down, np.array([0.3, 0.0]),
           # on the eps = 0.1 sphere and the lower edge of its tie band
           np.array([0.1, 0.0]), np.array([0.0, -0.1 * (1.0 - TIE)]),
           np.array([-0.1, 0.0]),
           np.array([0.0, 0.8]), np.array([0.0, -0.8 * (1.0 - TIE)]),  # on R
           a]
    mu = DiscreteMeasure(np.array(pts), [0.0, 0.0, 2.0, 1.0, 0.5, 1e-310,
                                          1.0, 1.0, 1.0])
    cases = [([0.4, 0.2, 0.1, 0.05, 0.025], 0.8, [2, 3, 6, 6, 6]),
             ([0.7], 0.8, [0]),  # empty
             ([0.55], 0.8, [1]),  # one -0.0 atom
             ([0.25], 0.4, [1])]  # one atom
    for ladder, outer, counts in cases:
        assert _window_counts(spec, mu, a, ladder, outer) == counts
        with np.errstate(divide="ignore", invalid="ignore"):
            want = _row_sums(spec, mu, a, ladder, outer)
        got = _window_sums(spec, mu, a, ladder, outer)
        assert _bits(got) == _bits(want)
    # The -0.0 windows sum to +0.0, as the row sums start from +0.0.
    for ladder in ([0.4], [0.55]):
        assert not np.signbit(_window_sums(spec, mu, a, ladder, 0.8)).any()


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_window_sums_of_a_large_window(field):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, size=(20_000, 2))
    mu = DiscreteMeasure(pts, rng.uniform(0.0, 1e-3, size=20_000))
    spec = riesz_kernel(gen_lambda_field(**FIELDS[field]), 1)
    a = np.array([0.1, -0.2])
    ladder = [0.4, 0.2, 0.1, 0.05]
    assert max(_window_counts(spec, mu, a, ladder, None)) > 8192
    with np.errstate(divide="ignore", invalid="ignore"):
        want = _row_sums(spec, mu, a, ladder, None)
    assert _bits(_window_sums(spec, mu, a, ladder, None)) == _bits(want)


# ---------------------------------------------------------------------------
# Oscillation profiles: one field call per batch against one per probe
# ---------------------------------------------------------------------------

def _probe_oscillation(field, p, r, k):
    """Mean over B(p, r) of |A - mean(A)|, one midpoint quadrature alone."""
    offsets = (np.arange(k) + 0.5) / k * (2 * r) - r
    grids = np.meshgrid(*([offsets] * p.size), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1) + p
    diff = pts - p
    mats = field.matrices(pts[np.sqrt(np.sum(diff * diff, axis=-1)) <= r])
    dev = mats - mats.mean(axis=0)
    return float(np.sqrt(np.sum(dev * dev, axis=(1, 2))).mean())


def _rotating3(rate=1.0):
    """diag(2, 1, 1) conjugated by a turn about the third axis through the
    angle rate * x1."""
    diag = np.diag([2.0, 1.0, 1.0])

    def evaluate(pts):
        c, s = np.cos(rate * pts[:, 0]), np.sin(rate * pts[:, 0])
        z, o = np.zeros_like(c), np.ones_like(c)
        q = np.stack([c, -s, z, s, c, z, z, z, o], axis=1).reshape(-1, 3, 3)
        return q @ diag @ np.swapaxes(q, 1, 2)

    return EllipseField(evaluate, 3)


OMEGA_FIELDS = {
    (2, "constant"): lambda: gen_lambda_field(
        "constant", matrix=[[2.0, 0.5], [0.5, 1.0]]),
    (2, "rotating"): lambda: gen_lambda_field(**FIELDS["rotating"]),
    (2, "checkerboard"): lambda: gen_lambda_field(**FIELDS["checkerboard"]),
    (2, "radial_holder"): lambda: gen_lambda_field("radial_holder",
                                                   alpha=0.5, n=2),
    (3, "constant"): lambda: gen_lambda_field("constant",
                                              matrix=np.diag([3.0, 2.0, 1.0])),
    (3, "rotating"): _rotating3,
    (3, "checkerboard"): lambda: gen_lambda_field(
        "checkerboard", m1=np.eye(3), m2=2.0 * np.eye(3), cell=0.5),
    (3, "radial_holder"): lambda: gen_lambda_field("radial_holder",
                                                   alpha=0.5, n=3),
}


@pytest.mark.parametrize("n,kind", sorted(OMEGA_FIELDS))
def test_omega_profile_equals_per_probe_quadratures(n, kind):
    field = OMEGA_FIELDS[(n, kind)]()
    # n = 3 batches 16 probes per field call at full resolution, so 20
    # probes cross a batch boundary; the probes include the origin, a cell
    # corner of the checkerboard and two equal probes.
    probes = np.vstack([seeded_probes(n, 20 if n == 3 else 12, seed=4),
                        np.zeros((1, n)), np.full((2, n), 0.5)])
    radii = [0.8, 0.3, 0.1]
    prof = omega_profile(field, probes, radii)
    omega, errors = [], []
    for r in sorted(radii):
        full = max(_probe_oscillation(field, p, r, BALL_GRID) for p in probes)
        half = max(_probe_oscillation(field, p, r, BALL_GRID // 2)
                   for p in probes)
        omega.append(full)
        errors.append(abs(full - half))
    assert _bits([prof.omega, prof.errors]) == _bits([omega, errors])
    assert prof.kappa_hat == max(doubling_constant(sorted(radii), omega), 1.0)


# ---------------------------------------------------------------------------
# Frozen discrepancy
# ---------------------------------------------------------------------------

def _annulus_frozen(field, a, r):
    """The frozen drift on the annulus: both kernels through
    `_kernel_rows` at the 768 nodes a + r t g of the annulus r/2 <= |y - a|
    <= 2r (8 radii t, the 96 directions g), scaled by |y - a|^{n-1}."""
    n = a.size
    avg = ball_average(field, a, 1.5 * r)
    avg = 0.5 * (avg + avg.T)
    grid = np.linspace(0.5, 2.0, 8)[:, None, None] * _directions(n)
    ys = a + r * grid.reshape(-1, n)
    v_avg = _kernel_rows(theta_kernel(avg), a, ys)[0]
    v_loc = _kernel_rows(theta_kernel(field.matrix(a)), a, ys)[0]
    dist = _distances(ys, a)[1]
    return float((np.sqrt(np.sum((v_avg - v_loc) ** 2, axis=1))
                  * dist ** (n - 1)).max())


# Cell edges, a cell corner and cell interiors of the checkerboard (cell
# 0.5), generic points of the smooth fields, and the origin of the radial
# ones, where they are least regular.
FROZEN_PANEL = [
    ("rotating", [(0.3, 0.1), (-0.7, 0.45), (0.0, 0.0), (1.2, -0.8)]),
    ("checkerboard", [(0.5, 0.25), (0.5, 0.5), (0.0, 0.3), (-0.5, -0.1),
                      (0.25, 0.25), (0.3, 0.1), (0.45, 0.2)]),
]
FROZEN_RADIAL = [(2, (0.0, 0.0)), (2, (0.3, -0.2)), (3, (0.0, 0.0, 0.0)),
                 (3, (0.2, -0.1, 0.3))]


@pytest.mark.parametrize("r", [0.1, 0.05])
def test_frozen_discrepancy_equals_the_annulus_sup(r):
    # theta is homogeneous of degree 1 - n: on each ray the scaled drift is
    # one value, so the sup over the annulus is the sup over directions.
    cases = [(gen_lambda_field(**FIELDS[name]), a)
             for name, points in FROZEN_PANEL for a in points]
    cases += [(gen_lambda_field("radial_holder", alpha=0.5, n=n), a)
              for n, a in FROZEN_RADIAL]
    for field, a in cases:
        a = np.array(a)
        want = _annulus_frozen(field, a, r)
        got = frozen_discrepancy(field, a, r)
        assert abs(got - want) <= 1e-12 * want, (a, got, want)


@pytest.mark.parametrize("field,a", [
    (EllipseField.constant([[2.0, 0.5], [0.5, 1.0]]), (0.3, -1.2)),
    (EllipseField.constant(np.diag([3.0, 2.0, 1.0])), (0.1, 0.2, 0.3)),
    (gen_lambda_field(**FIELDS["checkerboard"]), (0.25, 0.25)),
    (gen_lambda_field(**FIELDS["checkerboard"]), (0.8, 0.3)),
    (EllipseField.constant([[0.3, 0.1], [0.1, 0.7]]), (0.3, 0.1)),
    (EllipseField.constant([[1.3, 0.2], [0.2, 0.9]]), (-0.4, 0.6)),
    (EllipseField.constant([[0.7, -0.3], [-0.3, 1.1]]), (0.0, 0.0)),
], ids=["constant-2", "constant-3", "cell-m1", "cell-m2", "constant-a",
        "constant-b", "constant-c"])
def test_frozen_discrepancy_is_exactly_zero_for_one_matrix(field, a):
    # Inside one checkerboard cell the ball B(a, 1.5 r) meets one phase.
    # The mean of the equal node matrices of the last three fields is not
    # that matrix bit for bit; the ball average must be.
    for r in (0.1, 0.05):
        assert frozen_discrepancy(field, np.array(a), r) == 0.0


def test_frozen_discrepancy_at_a_tiny_radius_is_finite():
    # The annulus a + r g collapses onto a at r = 1e-300; the directions
    # do not.
    field = gen_lambda_field(**FIELDS["rotating"])
    value = frozen_discrepancy(field, np.array([0.3, 0.1]), 1e-300)
    assert np.isfinite(value) and value >= 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_theta_rows_equal_the_theta_kernel(n):
    rng = np.random.default_rng(n)
    dirs = _directions(n)
    mats = []
    for _ in range(6):
        b = rng.normal(size=(n, n))
        mats.append(b @ b.T + 0.1 * np.eye(n))
    got = _theta_rows(np.stack(mats), dirs)
    for mat, rows in zip(mats, got):
        want = _kernel_rows(theta_kernel(mat), np.zeros(n), dirs)[0]
        assert np.abs(rows - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# Pinned scan outputs
# ---------------------------------------------------------------------------

def test_scan_outputs_are_pinned():
    # A change in summation order moves these in the last bits; the line
    # sums are float noise around 0 and show it first.
    field = gen_lambda_field(**FIELDS["rotating"])
    spec = riesz_kernel(field, 1)
    cantor = corpus.gen_four_corner_cantor(7)
    corner = corpus.cantor_construction_corners(2)[5]
    assert corner.tolist() == [0.9375, 0.0]
    rep = pv_convergence_scan(spec, cantor.measure, corner,
                              [0.4 / 2 ** j for j in range(9)],
                              cantor.spacing)
    assert rep.verdict == "oscillating"
    assert [repr(v) for v in rep.columns["v1"]] == [
        "-0.617205363118374", "-0.7868352296153216", "-1.2545420145152577",
        "-1.201132762601295", "-0.6652385951400096", "-0.6106519085141143",
        "-0.07593673837708446", "-0.021351941739090722",
        "0.5133401161824234"]
    assert [repr(v) for v in rep.columns["v2"]] == [
        "0.6173928198770633", "0.7914046188647235", "1.388548654007356",
        "1.374060672876448", "1.9945367384342136", "1.979722227638386",
        "2.600523835592183", "2.5857083612264438", "3.206495129364777"]

    line = corpus.gen_line(0.001, extent=2.0).measure
    a = line.points[2300]
    assert a.tolist() == [0.3, 0.0]
    rep = pv_convergence_scan(spec, line, a, [0.08, 0.04, 0.02, 0.01, 0.005],
                              0.001, R=0.4)
    assert rep.verdict == "converged"
    assert [repr(v) for v in rep.columns["v1"]] == [
        "-1.0642528525117712e-15", "-1.0642528525117712e-15",
        "-1.0642528525117712e-15", "-4.616966531312272e-15",
        "-9.057858629812898e-15"]
    assert [repr(v) for v in rep.columns["v2"]] == [
        "2.710505431213761e-16", "4.930951480464074e-16",
        "4.930951480464074e-16", "1.603318172671564e-15",
        "2.0474073825216266e-15"]

    probes = seeded_probes(2, 16, seed=7)
    prof = omega_profile(field, probes, (0.8, 0.4, 0.2, 0.1))
    assert [repr(v) for v in prof.omega.tolist()] == [
        "0.06120731362174409", "0.12241843289734557", "0.24350911770624667",
        "0.46337996544557253"]
    assert [repr(v) for v in prof.errors.tolist()] == [
        "3.737066877945033e-05", "0.00023624026989842173",
        "0.000997207925976934", "0.002232620041763389"]
    assert repr(prof.kappa_hat) == "2.0000621764562467"
    assert repr(tuple(tau_moduli(field, probes, 0.1))) == (
        "(0.2733832750258295, 0.2733832750258295)")
    assert repr(frozen_discrepancy(field, a, 0.05)) == "0.0009767397724208219"

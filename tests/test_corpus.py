import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.corpus import (cantor_construction_corners, gen_circle, gen_cross,
                           gen_four_corner_cantor, gen_flat, gen_graph,
                           gen_lambda_field, gen_line, gen_sine_graph,
                           write_manifest)
from gmtlab.errors import MAX_ATOMS, ContractError, GuardError
from gmtlab.measures import EllipseField, HalfSpace, restrict


def test_cantor_level_one_centers():
    entry = gen_four_corner_cantor(1)
    expected = {(0.125, 0.125), (0.875, 0.125), (0.125, 0.875), (0.875, 0.875)}
    got = {tuple(p) for p in entry.measure.points}
    assert got == expected
    assert np.all(entry.measure.weights == 0.25)


@pytest.mark.parametrize("depth", range(1, 8))
def test_cantor_total_mass_exact(depth):
    entry = gen_four_corner_cantor(depth)
    assert entry.measure.size == 4 ** depth
    assert entry.measure.total_mass == 1.0
    # Centers in integer units of 4^-depth / 2, built in the same order.
    corners = [(0, 0)]
    for _ in range(depth):
        corners = [(4 * x + 3 * dx, 4 * y + 3 * dy) for x, y in corners
                   for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))]
    centers = (2 * np.array(corners, dtype=float) + 1) / (2 * 4 ** depth)
    assert np.array_equal(entry.measure.points, centers)


def test_cantor_self_similarity_box_mass():
    # the level-j corner square carries exactly 4^{-j} of the mass
    entry = gen_four_corner_cantor(6)
    for j in (1, 2, 3):
        side = 4.0 ** -j
        # the corner square [0, side]^2; every point has positive coordinates
        sub = restrict(restrict(entry.measure, HalfSpace([1.0, 0.0], side)),
                       HalfSpace([0.0, 1.0], side))
        assert sub.total_mass == pytest.approx(4.0 ** -j, rel=1e-12)


def test_cantor_depth_validation():
    with pytest.raises(ContractError):
        gen_four_corner_cantor(0)
    with pytest.raises(ContractError):
        gen_four_corner_cantor(11)


def test_cantor_corners_are_exact_dyadics():
    corners = cantor_construction_corners(2)
    assert corners.shape == (16, 2)
    scaled = corners * 16
    assert np.array_equal(scaled, np.round(scaled))


def test_regeneration_bitwise():
    a = gen_four_corner_cantor(5)
    b = gen_four_corner_cantor(5)
    assert np.array_equal(a.measure.points, b.measure.points)
    assert np.array_equal(a.measure.weights, b.measure.weights)
    g1 = gen_sine_graph(0.002)
    g2 = gen_sine_graph(0.002)
    assert np.array_equal(g1.measure.points, g2.measure.points)
    assert np.array_equal(g1.measure.weights, g2.measure.weights)


def test_flat_zero_graph_agree():
    flat = gen_flat(2, 1, 1.0, 1.0, 0.01)
    graph = gen_graph(lambda t: 0.0, lip_bound=0.0, domain=(-1.0, 1.0), h=0.01,
                      grad=lambda t: 0.0)
    assert np.allclose(np.sort(flat.measure.points[:, 0]),
                       np.sort(graph.measure.points[:, 0]), atol=1e-12)
    assert np.allclose(graph.measure.weights, 0.01)


def test_graph_mass_is_arc_length():
    amp, freq = 0.1, 1.0
    entry = gen_sine_graph(0.001, amp, freq, extent=2.0)
    # Simpson quadrature oracle for the arc length
    t = np.linspace(-2, 2, 4001)
    integrand = np.sqrt(1 + (amp * freq * np.cos(freq * t)) ** 2)
    from scipy.integrate import simpson
    arc = simpson(integrand, x=t)
    assert entry.measure.total_mass == pytest.approx(arc, abs=2e-3)


def test_graph_local_density_is_length_factor():
    amp, freq = 0.3, 1.5
    entry = gen_graph(lambda t: amp * np.sin(freq * t), lip_bound=amp * freq,
                      domain=(-2, 2), h=0.001,
                      grad=lambda t: amp * freq * np.cos(freq * t))
    from gmtlab.measures import Ball, mass_in
    t0 = 0.7
    p = np.array([t0, amp * np.sin(freq * t0)])
    r = 0.05
    # mass of the parameter slab |t - t0| <= r picks up the arc-length factor
    slab = restrict(restrict(entry.measure, HalfSpace([1.0, 0.0], t0 + r)),
                    HalfSpace([-1.0, 0.0], r - t0))
    expect = 2.0 * np.sqrt(1 + (amp * freq * np.cos(freq * t0)) ** 2)
    assert slab.total_mass / r == pytest.approx(expect, rel=0.02)
    # euclidean-ball density of a C^1 curve is the rectifiable value 2
    got = mass_in(entry.measure, Ball(p, r)) / r
    assert got == pytest.approx(2.0, rel=0.02)


def test_graph_rejects_slope_over_bound():
    with pytest.raises(ContractError):
        gen_graph(lambda t: t, lip_bound=0.5, domain=(-1, 1), h=0.01)


BAD_SIZES = [0.0, -0.01, np.nan, np.inf]


@pytest.mark.parametrize("h", BAD_SIZES)
@pytest.mark.parametrize("make", [
    gen_cross, gen_circle, gen_sine_graph,
    lambda h: gen_graph(np.sin, lip_bound=1.0, domain=(-1.0, 1.0), h=h)],
    ids=["cross", "circle", "sine_graph", "graph"])
def test_generators_reject_a_bad_spacing(make, h):
    with pytest.raises(ContractError, match="h must be positive and finite"):
        make(h)


@pytest.mark.parametrize("size", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make", [
    lambda s: gen_cross(0.01, extent=s), lambda s: gen_circle(0.01, radius=s),
    lambda s: gen_sine_graph(0.01, extent=s),
    lambda s: gen_graph(np.sin, lip_bound=1.0, domain=(-1.0, s), h=0.01)],
    ids=["cross", "circle", "sine_graph", "graph"])
def test_generators_reject_a_non_finite_extent(make, size):
    with pytest.raises(ContractError, match="must be positive and finite"):
        make(size)


@pytest.mark.parametrize("n,m", [(3, -1), (3, 4), (1, 2), (-1, 1)])
def test_flat_rejects_a_plane_dimension_outside_1_to_n(n, m):
    with pytest.raises(ContractError, match=f"m={m} invalid in R\\^{n}"):
        gen_flat(n, m, 1.0, 1.0, 0.01)


@pytest.mark.parametrize("make", [
    lambda: gen_line(1e-9), lambda: gen_cross(0.01, extent=1e300),
    lambda: gen_circle(1e-300), lambda: gen_sine_graph(1e-9),
    lambda: gen_flat(3, 3, 1.0, 1.0, 0.001),
    lambda: gen_flat(60, 50, 1.0, 1.0, 0.1)],
    ids=["line", "cross", "circle", "sine_graph", "flat-3", "flat-50"])
def test_generators_refuse_a_sample_above_the_atom_cap(make):
    with pytest.raises(GuardError, match=f"above the cap of {MAX_ATOMS}"):
        make()


@pytest.mark.parametrize("amplitude,frequency", [
    (np.inf, 1.0), (0.1, np.nan), (1e200, 1.0), (0.1, 1e300)])
def test_sine_graph_rejects_what_makes_a_sample_or_weight_non_finite(
        amplitude, frequency):
    with pytest.raises(ContractError, match="finite"):
        gen_sine_graph(0.01, amplitude, frequency)


def test_cross_mass_and_origin(cross_entry):
    assert cross_entry.measure.total_mass == pytest.approx(4.0, abs=0.01)
    origin_rows = np.all(cross_entry.measure.points == 0.0, axis=1)
    assert origin_rows.sum() == 1  # kept exactly once


def test_half_line_is_one_sided(half_line_entry):
    pts = half_line_entry.measure.points
    assert pts[:, 0].min() >= 0.0
    assert half_line_entry.measure.total_mass == pytest.approx(1.5, abs=0.01)


def test_circle_mass(circle_entry):
    assert circle_entry.measure.total_mass == pytest.approx(2 * np.pi,
                                                            rel=1e-9)


def test_rotating_field_is_orthogonal_conjugate():
    field = gen_lambda_field("rotating", eccentricity=3.0, rate=2.0)
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = rng.normal(size=2)
        m = field.matrix(a)
        evals = np.sort(np.linalg.eigvalsh(m))
        assert np.allclose(evals, [1.0, 3.0], atol=1e-12)
    batch = field.matrices(rng.normal(size=(7, 2)))
    assert batch.shape == (7, 2, 2)


def test_checkerboard_field_two_phases():
    field = gen_lambda_field("checkerboard", m1=np.eye(2), m2=3 * np.eye(2),
                             cell=0.5)
    assert np.allclose(field.matrix(np.array([0.1, 0.1])), np.eye(2))
    assert np.allclose(field.matrix(np.array([0.6, 0.1])), 3 * np.eye(2))


def test_radial_holder_continuity():
    field = gen_lambda_field("radial_holder", alpha=0.5)
    a = field.matrix(np.array([0.01, 0.0]))[0, 0]
    b = field.matrix(np.array([0.0, 0.0]))[0, 0]
    assert abs(a - b) <= 0.15  # ~ 0.01**0.5


FIELD_PARAMS = {
    "constant": dict(kind="constant", matrix=[[2.0, 0.5], [0.1, 1.0]]),
    "rotating": dict(kind="rotating", eccentricity=3.0, rate=2.0),
    "checkerboard": dict(kind="checkerboard", m1=np.eye(2), m2=3 * np.eye(2),
                         cell=0.5),
    "radial_holder": dict(kind="radial_holder", alpha=0.3),
}
# Cell edges and corners, the origin, |a| = 1 and large |a|.
hostile_coords = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, -0.5, 1.0, -1.0, 0.6, 0.8,
                     1e6, -1e6, 1e12, 1e300, -1e300]),
    st.floats(-2.0, 2.0), st.floats(-1e9, 1e9))


def _pointwise(name, a):
    """FIELD_PARAMS[name] at one point, restated with scalar arithmetic."""
    if name == "rotating":
        c, s = np.cos(2.0 * a[0]), np.sin(2.0 * a[0])
        q = np.array([[c, -s], [s, c]])
        return q @ np.diag([3.0, 1.0]) @ q.T
    if name == "checkerboard":
        parity = int(np.sum(np.floor(a / 0.5))) % 2
        return np.eye(2) if parity == 0 else 3 * np.eye(2)
    if name == "radial_holder":
        with np.errstate(over="ignore"):
            t = min(float(np.linalg.norm(a)), 1.0)
        return (1.0 + t ** 0.3) * np.eye(2)
    return np.array(FIELD_PARAMS["constant"]["matrix"])


@settings(derandomize=True, max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(FIELD_PARAMS) + ["EllipseField.constant"]),
       pts=st.lists(st.tuples(hostile_coords, hostile_coords),
                    min_size=1, max_size=12))
def test_matrix_is_the_one_point_case_of_matrices(name, pts):
    # Bit for bit: matrix(a), row k of the batch and the scalar definition.
    if name == "EllipseField.constant":
        field = EllipseField.constant(FIELD_PARAMS["constant"]["matrix"])
    else:
        field = gen_lambda_field(**FIELD_PARAMS[name])
    P = np.array(pts, dtype=float)
    batch = field.matrices(P)
    for k, a in enumerate(P):
        assert field.matrix(a).tobytes() == batch[k].tobytes()
        assert batch[k].tobytes() == _pointwise(name, a).tobytes()


@pytest.mark.parametrize("name", sorted(FIELD_PARAMS))
def test_matrices_equal_the_pointwise_definition_on_a_seeded_cloud(name):
    P = np.random.default_rng(5).normal(scale=0.7, size=(2000, 2))
    batch = gen_lambda_field(**FIELD_PARAMS[name]).matrices(P)
    for k, a in enumerate(P):
        assert batch[k].tobytes() == _pointwise(name, a).tobytes()


@pytest.mark.parametrize("params,name", [
    (dict(kind="constant", matrix=[[1.0, np.nan], [0.0, 1.0]]), "matrix"),
    (dict(kind="rotating", eccentricity=np.inf), "eccentricity"),
    (dict(kind="rotating", rate=np.nan), "rate"),
    (dict(kind="checkerboard", m1=np.eye(2), m2=np.full((2, 2), np.inf)),
     "m2"),
    (dict(kind="checkerboard", m1=np.eye(2), m2=np.eye(2), cell=0.0), "cell"),
    (dict(kind="checkerboard", m1=np.eye(2), m2=np.eye(2), cell=np.inf),
     "cell"),
    (dict(kind="radial_holder", alpha=np.nan), "alpha"),
    (dict(kind="radial_holder", alpha=-1.0), "alpha"),
    (dict(kind="radial_holder", base=np.inf), "base"),
    # A misspelled keyword would otherwise leave its parameter at the default.
    (dict(kind="rotating", eccentricty=5.0), "^rotating field has no "
     "parameter 'eccentricty'; its parameters are eccentricity rate$"),
    (dict(kind="radial_holder", alpah=0.9, n=3), "^radial_holder field has "
     "no parameter 'alpah'; its parameters are alpha base n$"),
    (dict(kind="checkerboard", m1=np.eye(2), m2=2 * np.eye(2), cel=0.5),
     "^checkerboard field has no parameter 'cel'; its parameters are m1 m2 "
     "cell$"),
    (dict(kind="constant", matrix=np.eye(2), rate=1.0),
     "^constant field has no parameter 'rate'; its parameters are matrix$"),
])
def test_field_parameters_rejected_by_name(params, name):
    with pytest.raises(ContractError, match=name):
        gen_lambda_field(**params)


def test_checkerboard_rejects_an_overflowing_cell_index():
    field = gen_lambda_field("checkerboard", m1=np.eye(2), m2=2 * np.eye(2),
                             cell=1e-300)
    assert field.matrices(np.array([[1e-290, 0.0]]))[0][0, 0] == 1.0
    with pytest.raises(ContractError, match="checkerboard cell 1e-300"):
        field.matrices(np.array([[0.5, 0.5], [1e300, 1e300]]))


def test_unknown_field_kind():
    with pytest.raises(ContractError):
        gen_lambda_field("nope")


def test_manifest_roundtrip(tmp_path):
    entries = [gen_line(0.01), gen_four_corner_cantor(2)]
    path = tmp_path / "manifest.txt"
    write_manifest(entries, path)
    records = [dict(line.split(" = ", 1) for line in block.splitlines())
               for block in path.read_text().split("\n\n") if block]
    assert [r["name"] for r in records] == ["line", "cantor_2"]
    assert records[1]["label"] == "purely-unrectifiable"
    assert float(records[1]["mass"]) == 1.0
    assert records[0]["param.h"] == "0.01"

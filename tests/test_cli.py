import numpy as np
import pytest

from gmtlab import transport
from gmtlab.cli import RunConfig, _fmt, main
from gmtlab.cones import cone_floor
from gmtlab.errors import SolverError
from gmtlab.corpus import gen_half_line
from gmtlab.measures import lambda_rescale, save_measure_csv
from gmtlab.simplex import simplex_max_bounded

LINE_DENSITY_CFG = """
[measure]
kind = line
h = 0.001
extent = 1.0
[field]
kind = identity
[ladder]
r0 = 0.5
rho = 0.63096
count = 6
[density]
center = 0,0
m = 1
threshold = 0.05
"""

CANTOR_DENSITY_CFG = """
[measure]
kind = cantor
depth = 7
[field]
kind = identity
[ladder]
r0 = 0.25
rho = 0.5
count = 7
spacing = 6.103515625e-05
[density]
center = 0,0
m = 1
threshold = 0.05
"""

HALFLINE_PV_CFG = """
[measure]
kind = halfline
h = 0.001
extent = 1.5
[field]
kind = identity
[pv]
center = 0,0
m = 1
eps0 = 0.5
rungs = 5
R = 1.0
"""

METRIC_CFG = """
[measure]
kind = line
h = 0.01
extent = 1.0
[metric]
mode = fr
r = 1.0
"""

DMO_CFG = """
[dmo]
n = 2
radii = 0.8,0.4,0.2,0.1
probes = 16
[field]
kind = constant
matrix = 2,0,0,1
"""

BLOWUP_CFG = """
[measure]
kind = line
h = 0.01
extent = 1.0
[field]
kind = identity
[ladder]
r0 = 0.5
rho = 0.5
count = 2
[blowup]
center = 0,0
m = 1
sandwich_R = 0.5,1,2
"""

GENERATE_CFG = """
[measure]
kind = cantor
depth = 7
[generate]
manifest = {manifest}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(args):
    return main(args)


def test_density_line_small_gap(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_DENSITY_CFG)
    out = tmp_path / "density.csv"
    assert run_cli(["density", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# config_sha256=")
    assert "# verdict=small-gap" in text
    last_ratio = float(text.strip().splitlines()[-2].split(",")[-1])
    assert last_ratio <= 1.02


def test_density_cantor_large_gap(tmp_path):
    cfg = write_cfg(tmp_path, CANTOR_DENSITY_CFG)
    out = tmp_path / "cantor.csv"
    assert run_cli(["density", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert "# verdict=large-gap" in text
    last_ratio = float(text.strip().splitlines()[-2].split(",")[-1])
    assert last_ratio >= 1.1


def test_pv_halfline_diverging(tmp_path):
    cfg = write_cfg(tmp_path, HALFLINE_PV_CFG)
    out = tmp_path / "pv.csv"
    assert run_cli(["pv", "--config", cfg, "--out", str(out)]) == 0
    assert "# verdict=diverging" in out.read_text()


def test_metric_single_line(tmp_path):
    cfg = write_cfg(tmp_path, METRIC_CFG)
    out = tmp_path / "metric.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # hash comment + value
    value = float(lines[1])
    assert value == pytest.approx(1.0, abs=0.05)  # F_1(line, 0) = integral caps


def test_metric_series_and_scaling_modes(tmp_path):
    base = """
[measure]
kind = line
h = 0.01
[measure2]
kind = cross
h = 0.01
[metric]
mode = {mode}
r = 2.0
max_terms = 6
"""
    cfg = write_cfg(tmp_path, base.format(mode="series"), "series.cfg")
    out = tmp_path / "series.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 0
    value, tail = out.read_text().strip().splitlines()[1].split(",")
    assert 0.0 < float(value) <= 1.0
    assert float(tail) == 2.0 ** -6

    cfg = write_cfg(tmp_path, base.format(mode="scaling"), "scaling.cfg")
    out = tmp_path / "scaling.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 0
    assert float(out.read_text().strip().splitlines()[1]) <= 1e-7


def test_metric_dcone_mode(tmp_path):
    cfg = write_cfg(tmp_path, """
[measure]
kind = line
h = 0.001
[metric]
mode = dcone
m = 1
s = 1.0
""")
    out = tmp_path / "dcone.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 0
    assert float(out.read_text().strip().splitlines()[1]) <= 0.02


def test_dmo_constant_field_zeros(tmp_path):
    cfg = write_cfg(tmp_path, DMO_CFG)
    out = tmp_path / "dmo.csv"
    assert run_cli(["dmo", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    for row in rows:
        r, omega, tau, tau_hat, kappa, warn = row.split(",")
        assert float(omega) == 0.0 and float(tau) == 0.0
        assert float(kappa) == 1.0 and float(warn) == 0.0


def test_generate_cantor_row_count(tmp_path):
    manifest = tmp_path / "manifest.txt"
    cfg = write_cfg(tmp_path, GENERATE_CFG.format(manifest=manifest))
    out = tmp_path / "cantor.csv"
    assert run_cli(["generate", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_sha256=")
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 4 ** 7  # header + one row per point
    assert "cantor" in manifest.read_text()


def test_generate_flat_row_count_and_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, """
[measure]
kind = flat
n = 2
m = 1
radius = 1.0
h = 0.001
""")
    out = tmp_path / "flat.csv"
    assert run_cli(["generate", "--config", cfg, "--out", str(out)]) == 0
    data = [l for l in out.read_text().strip().splitlines()
            if not l.startswith("#")]
    assert len(data) == 1 + 2 * 1000 + 1
    from gmtlab.measures import load_measure_csv
    back = load_measure_csv(out, dim=2)
    assert back.size == 2001


def test_dmo_checkerboard_warning_column(tmp_path):
    cfg = write_cfg(tmp_path, """
[dmo]
n = 2
radii = 0.8,0.4,0.2,0.1
probes = 16
boundary_probe = 0.5,0.25
[field]
kind = checkerboard
contrast = 2.0
cell = 0.5
""")
    out = tmp_path / "dmo.csv"
    assert run_cli(["dmo", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    warn_col = [float(r.split(",")[-1]) for r in rows]
    assert all(w == 1.0 for w in warn_col)


def test_missing_config_exits_2(tmp_path):
    assert run_cli(["density", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_bad_config_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, "[measure]\nkind = wat\n")
    assert run_cli(["density", "--config", cfg]) == 2


def test_dmo_boundary_probe_of_wrong_length_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DMO_CFG.replace(
        "probes = 16", "probes = 16\nboundary_probe = 0.1, 0.2, 0.3"))
    assert run_cli(["dmo", "--config", cfg]) == 2
    assert "boundary_probe needs 2 coordinates" in capsys.readouterr().err


def test_dmo_rotating_field_in_3d_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[dmo]
n = 3
probes = 4
[field]
kind = rotating
""")
    assert run_cli(["dmo", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "rotating" in err and "n = 3" in err


def test_density_rotating_field_on_3d_measure_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[measure]
kind = flat
n = 3
m = 1
h = 0.001
[field]
kind = rotating
[density]
center = 0,0,0
m = 1
""")
    assert run_cli(["density", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "rotating" in err and "n = 3" in err


def test_generate_without_out_exits_2_before_building(tmp_path, monkeypatch,
                                                      capsys):
    from gmtlab import corpus

    def refuse(*args, **kwargs):
        raise AssertionError("measure built before --out was checked")

    monkeypatch.setattr(corpus, "gen_four_corner_cantor", refuse)
    cfg = write_cfg(tmp_path, "[measure]\nkind = cantor\ndepth = 10\n")
    assert run_cli(["generate", "--config", cfg]) == 2
    assert "requires --out" in capsys.readouterr().err


def test_blowup_builds_one_rescaling_per_rung(tmp_path, monkeypatch):
    from gmtlab import blowup
    calls = []

    def counted(mu, a, r, field):
        calls.append(r)
        return lambda_rescale(mu, a, r, field)

    monkeypatch.setattr(blowup, "lambda_rescale", counted)
    cfg = write_cfg(tmp_path, BLOWUP_CFG)
    assert run_cli(["blowup", "--config", cfg, "--out",
                    str(tmp_path / "blowup.csv")]) == 0
    assert calls == [0.5, 0.25]  # r0 = 0.5, rho = 0.5, count = 2


def test_blowup_sandwich_R_nan_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOWUP_CFG.replace("sandwich_R = 0.5,1,2",
                                                 "sandwich_R = 0.5,nan"))
    out = tmp_path / "blowup.csv"
    assert run_cli(["blowup", "--config", cfg, "--out", str(out)]) == 2
    assert "R list must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_density_threshold_nan_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_DENSITY_CFG.replace("threshold = 0.05",
                                                       "threshold = nan"))
    out = tmp_path / "density.csv"
    assert run_cli(["density", "--config", cfg, "--out", str(out)]) == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


def test_metric_dcone_infinite_scale_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, METRIC_CFG.replace(
        "mode = fr\nr = 1.0", "mode = dcone\nm = 1\ns = inf"))
    out = tmp_path / "dcone.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 2
    assert "positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_blowup_ladder_spacing_nan_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOWUP_CFG.replace("count = 2",
                                                 "count = 2\nspacing = nan"))
    out = tmp_path / "blowup.csv"
    assert run_cli(["blowup", "--config", cfg, "--out", str(out)]) == 2
    assert "spacing must be nonnegative and finite" in capsys.readouterr().err
    assert not out.exists()


def test_density_ladder_r0_inf_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_DENSITY_CFG.replace("r0 = 0.5", "r0 = inf"))
    out = tmp_path / "density.csv"
    assert run_cli(["density", "--config", cfg, "--out", str(out)]) == 2
    assert "top radius must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_density_center_nan_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_DENSITY_CFG.replace("center = 0,0",
                                                       "center = nan,0"))
    out = tmp_path / "density.csv"
    assert run_cli(["density", "--config", cfg, "--out", str(out)]) == 2
    assert "[density] center has a non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_pv_center_inf_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, HALFLINE_PV_CFG.replace("center = 0,0",
                                                      "center = inf,0"))
    out = tmp_path / "pv.csv"
    assert run_cli(["pv", "--config", cfg, "--out", str(out)]) == 2
    assert "[pv] center has a non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_dmo_boundary_probe_nan_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DMO_CFG.replace(
        "probes = 16", "probes = 16\nboundary_probe = nan, 0"))
    out = tmp_path / "dmo.csv"
    assert run_cli(["dmo", "--config", cfg, "--out", str(out)]) == 2
    assert "boundary_probe has a non-finite" in capsys.readouterr().err
    assert not out.exists()


_CONSTANT_FIELD = "kind = constant\nmatrix = 2,0,0,1"
_SINGULAR_PHASE = "kind = checkerboard\ncontrast = 0"


@pytest.mark.parametrize("command,cfg_text,message", [
    ("dmo", DMO_CFG.replace(_CONSTANT_FIELD, _SINGULAR_PHASE),
     "not in [1e-09, inf)"),
    ("density", LINE_DENSITY_CFG.replace("kind = identity", _SINGULAR_PHASE)
     .replace("center = 0,0", "center = 0.75,0"), "not in [1e-09, inf)"),
    ("pv", HALFLINE_PV_CFG.replace("kind = identity", _SINGULAR_PHASE)
     .replace("center = 0,0", "center = 0.75,0"), "not in [1e-09, inf)"),
    ("dmo", DMO_CFG.replace(_CONSTANT_FIELD, "kind = checkerboard\ncell = 0"),
     "cell must be positive and finite"),
    ("dmo", DMO_CFG.replace(_CONSTANT_FIELD,
                            "kind = checkerboard\ncell = 1e-310"),
     "checkerboard cell 1e-310"),
    ("dmo", DMO_CFG.replace(_CONSTANT_FIELD, "kind = rotating\nrate = nan"),
     "rate must be finite"),
    ("metric", METRIC_CFG.replace("r = 1.0", "r = inf"),
     "ball radius must be positive and finite"),
    ("dmo", DMO_CFG.replace("radii = 0.8,0.4,0.2,0.1", "radii = 0.8,nan"),
     "radius must be positive and finite"),
], ids=["dmo-contrast-0", "density-contrast-0", "pv-contrast-0",
        "dmo-cell-0", "dmo-cell-subnormal", "dmo-rate-nan", "metric-r-inf",
        "dmo-radius-nan"])
def test_singular_field_or_bad_radius_exits_2(tmp_path, capsys, command,
                                              cfg_text, message):
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_CSV_HALFLINE = "kind = csv\npath = {csv}\nh = "


@pytest.mark.parametrize("command,cfg_text,message", [
    ("pv", HALFLINE_PV_CFG.replace("kind = halfline\nh = 0.001",
                                   _CSV_HALFLINE + "nan"),
     "spacing must be nonnegative and finite, got nan"),
    ("pv", HALFLINE_PV_CFG.replace("kind = halfline\nh = 0.001",
                                   _CSV_HALFLINE + "-1"),
     "spacing must be nonnegative and finite, got -1.0"),
    ("dmo", DMO_CFG.replace("probes = 16", "probes = -1"),
     "[dmo] probes = -1 must be at least 1"),
    ("dmo", DMO_CFG.replace("n = 2", "n = -1"),
     "[dmo] n = -1 must be at least 1"),
], ids=["pv-csv-h-nan", "pv-csv-h-negative", "dmo-probes-negative",
        "dmo-n-negative"])
def test_bad_spacing_or_count_exits_2(tmp_path, capsys, command, cfg_text,
                                      message):
    csv = tmp_path / "halfline.csv"
    save_measure_csv(gen_half_line(0.01, 1.5).measure, csv)
    cfg = write_cfg(tmp_path, cfg_text.replace("{csv}", str(csv)))
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,h", [("cross", "0"), ("cross", "-0.01"),
                                    ("circle", "nan"), ("graph", "0")])
def test_generate_with_bad_spacing_exits_2(tmp_path, capsys, kind, h):
    cfg = write_cfg(tmp_path, f"[measure]\nkind = {kind}\nh = {h}\n")
    out = tmp_path / "measure.csv"
    assert run_cli(["generate", "--config", cfg, "--out", str(out)]) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_resolution_guard_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, """
[measure]
kind = line
h = 0.01
[field]
kind = identity
[ladder]
r0 = 0.05
rho = 0.5
count = 3
[density]
center = 0,0
m = 1
""")
    assert run_cli(["density", "--config", cfg]) == 3


def test_solver_refusal_exits_3(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise SolverError("transportation simplex exceeded 1 iterations")
    monkeypatch.setattr(transport, "transport_simplex", refuse)
    cfg = write_cfg(tmp_path, METRIC_CFG.replace("mode = fr", "mode = dcone"))
    assert run_cli(["metric", "--config", cfg]) == 3


def test_simplex_iteration_limit_exits_3(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        simplex_max_bounded(np.array([[1.0, 1.0]]), np.array([1.5]),
                            np.array([1.0, 1.0]), np.zeros(2), np.ones(2),
                            max_iter=1)
    monkeypatch.setattr(transport, "transport_simplex", refuse)
    cfg = write_cfg(tmp_path, METRIC_CFG.replace("mode = fr", "mode = dcone"))
    assert run_cli(["metric", "--config", cfg]) == 3


def test_fmt_never_prints_negative_zero():
    assert _fmt(-0.0) == "0"
    assert _fmt(0.0) == "0"
    assert _fmt(-1e-300) == "-1e-300"
    assert _fmt(float("nan")) == ""
    assert _fmt(7) == "7"


@pytest.mark.parametrize("command,cfg_text", [
    ("density", LINE_DENSITY_CFG),
    ("pv", HALFLINE_PV_CFG),
    ("metric", METRIC_CFG),
    ("dmo", DMO_CFG),
    ("blowup", BLOWUP_CFG),
    ("generate", "[measure]\nkind = cantor\ndepth = 5\n"),
])
def test_byte_identical_across_threads(tmp_path, command, cfg_text):
    cfg = write_cfg(tmp_path, cfg_text)
    out1 = tmp_path / "a.out"
    out2 = tmp_path / "b.out"
    assert run_cli([command, "--config", cfg, "--out", str(out1),
                    "--threads", "1"]) == 0
    assert run_cli([command, "--config", cfg, "--out", str(out2),
                    "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


CROSS_BLOWUP_CFG = """
[measure]
kind = cross
h = 0.01
extent = 1.0
[field]
kind = identity
[ladder]
r0 = 0.4
rho = 0.5
count = 2
[blowup]
center = 0,0
m = 1
"""


def test_blowup_cross_columns(tmp_path):
    cfg = write_cfg(tmp_path, CROSS_BLOWUP_CFG)
    out = tmp_path / "blowup.csv"
    assert run_cli(["blowup", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "r,flatness,symmetry_defect,sandwich_violation"
    rows = [l.split(",") for l in lines[2:] if l and not l.startswith("#")]
    for row in rows:
        # the cross is symmetric at 0 but never flat there
        assert float(row[2]) <= 0.02
        assert float(row[1]) >= 0.2


def test_blowup_prints_the_flatness_trend_after_the_verdict(tmp_path):
    cfg = write_cfg(tmp_path, CROSS_BLOWUP_CFG)
    out = tmp_path / "blowup.csv"
    assert run_cli(["blowup", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # header, CSV header, two rungs, then the sandwich verdict
    assert len(lines) == 7 and lines[4] == "# verdict=ok"
    # the cross is its own blowup at 0: its flatness never vanishes
    assert lines[5:] == ["# meta.flatness_verdict=non-vanishing",
                         "# meta.flatness_floor=" + _fmt(cone_floor(1.0, 1))]


def test_blowup_prints_flat_for_a_line(tmp_path):
    cfg = write_cfg(tmp_path, BLOWUP_CFG)
    out = tmp_path / "blowup.csv"
    assert run_cli(["blowup", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    # both rungs of a straight line lie within the cone floor: no trend
    assert lines[4:] == ["# verdict=ok", "# meta.flatness_verdict=flat",
                         "# meta.flatness_floor=" + _fmt(cone_floor(1.0, 1))]


def test_config_hash_is_canonical():
    a = RunConfig.parse("[b]\nx = 1\n[a]\ny = 2\n")
    b = RunConfig.parse("[a]\ny = 2\n[b]\nx = 1\n")
    assert a.sha256() == b.sha256()
    c = RunConfig.parse("[a]\ny = 3\n[b]\nx = 1\n")
    assert a.sha256() != c.sha256()


def test_config_parse_errors():
    with pytest.raises(Exception):
        RunConfig.parse("key = value outside section\n")

import re
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from gmtlab import transport
from gmtlab.cli import (_FIELD_KINDS, _MEASURE_KINDS, _METRIC_MODES,
                        ConfigError, RunConfig, _fmt, field_from_config, main)
from gmtlab.cones import cone_floor
from gmtlab.errors import SolverError
from gmtlab.corpus import gen_half_line, gen_lambda_field
from gmtlab.measures import DiscreteMeasure, lambda_pass, save_measure_csv
from gmtlab.simplex import simplex_max_bounded
from test_acceptance import CLI_CONFIGS

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
{key}
"""
    cfg = write_cfg(tmp_path, base.format(mode="series", key="max_terms = 6"),
                    "series.cfg")
    out = tmp_path / "series.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 0
    value, tail = out.read_text().strip().splitlines()[1].split(",")
    assert 0.0 < float(value) <= 1.0
    assert float(tail) == 2.0 ** -6

    cfg = write_cfg(tmp_path, base.format(mode="scaling", key="r = 2.0"),
                    "scaling.cfg")
    out = tmp_path / "scaling.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 0
    assert float(out.read_text().strip().splitlines()[1]) <= 1e-7


@pytest.mark.parametrize("mode,key", [("fr", "max_terms = 6"),
                                      ("series", "r = 2.0"),
                                      ("scaling", "s = 1.0"),
                                      ("dcone", "r = 1.0")])
def test_a_key_of_another_metric_mode_exits_2(tmp_path, capsys, mode, key):
    cfg = write_cfg(tmp_path, "[measure]\nkind = line\nh = 0.01\n"
                              f"[metric]\nmode = {mode}\n{key}\n")
    out = tmp_path / "metric.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 2
    name = key.split(" = ")[0]
    assert (f"gmt-lab: [metric] {name} is not read by this command"
            in capsys.readouterr().err)
    assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_lists_the_kinds_and_modes_of_the_tables():
    text = README.read_text()
    kinds = re.findall(r"^kind = \w+ +# (\S+)$", text, re.M)
    assert [names.split("|") for names in kinds] == [
        [*_MEASURE_KINDS, "csv"], ["identity", "constant", *_FIELD_KINDS]]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)\.(\w+)` \| (.+) \|$", text,
                      re.M)
    assert [(mode, module, call, re.findall(r"`(\w+) = ([^`]+)`", keys))
            for mode, module, call, keys in rows] == [
        (mode, module.__name__.split(".")[-1], call,
         [(key, str(default)) for key, default in keys.items()])
        for mode, (module, call, keys) in _METRIC_MODES.items()]


# A config that names only the field kind builds the field of the library's
# defaults; the checkerboard's phases are I and 2I (the default contrast).
@pytest.mark.parametrize("kind", _FIELD_KINDS)
def test_field_kind_defaults_are_the_library_defaults(kind):
    field = field_from_config(RunConfig.parse(f"[field]\nkind = {kind}\n"), 2)
    phases = {"checkerboard": dict(m1=np.eye(2), m2=2 * np.eye(2))}
    want = gen_lambda_field(kind, **phases.get(kind, {}))
    # (0.7, 0.1) lies in the second checkerboard phase at cell 0.5.
    pts = np.array([[0.0, 0.0], [0.7, 0.1], [0.3, -0.4], [-1.2, 0.9]])
    assert np.array_equal(field.matrices(pts), want.matrices(pts))


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


def test_metric_dcone_ignores_the_seed(tmp_path):
    # A 4-D cloud whose principal value is above floor/2, so the cone search
    # runs; its frames are fixed, and --seed seeds only the dmo probes.
    rng = np.random.default_rng(1)
    cloud = DiscreteMeasure(rng.normal(size=(25, 4)) * 0.4,
                            rng.uniform(0.5, 1, 25))
    save_measure_csv(cloud, tmp_path / "cloud.csv")
    cfg = write_cfg(tmp_path, f"""
[measure]
kind = csv
path = {tmp_path / "cloud.csv"}
dim = 4
[metric]
mode = dcone
m = 1
s = 1.0
""")
    texts = []
    for seed in ("0", "7"):
        out = tmp_path / f"dcone{seed}.txt"
        assert run_cli(["metric", "--config", cfg, "--out", str(out),
                        "--seed", seed]) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    assert float(texts[0].decode().splitlines()[1]) > cone_floor(1.0, 1) / 2


def test_metric_dcone_ignores_an_atom_far_outside_the_ball(tmp_path):
    # An atom at (1e200, 1e200) is outside B(0, s); its second moment would
    # overflow, and the cone distance is the line's.
    t = np.arange(-50, 51) * 0.02
    cloud = DiscreteMeasure(
        np.vstack([np.column_stack([t, 0 * t]), [[1e200, 1e200]]]),
        np.append(np.full(t.size, 0.02), 1.0))
    save_measure_csv(cloud, tmp_path / "cloud.csv")
    cfg = write_cfg(tmp_path, f"""
[measure]
kind = csv
path = {tmp_path / "cloud.csv"}
[metric]
mode = dcone
m = 1
s = 1.0
""")
    out = tmp_path / "dcone.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == _fmt(0.011249999999999996)


@pytest.mark.parametrize("command,cfg_text", [
    ("metric", METRIC_CFG.replace("mode = fr\nr = 1.0",
                                  "mode = scaling\nr = 1e7")),
    ("blowup", BLOWUP_CFG.replace("kind = identity",
                                  "kind = constant\nmatrix = 1e7,0,0,1e7"))],
    ids=["scaling-r-1e7", "blowup-field-1e7"])
def test_large_scale_maps_are_not_singular(tmp_path, command, cfg_text):
    # y -> y / 1e7 and M = 1e7 I are invertible; a scale-free |det| check
    # lets both run.
    assert "1e7" in cfg_text
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out.txt"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize("matrix", ["2,0,0,1", "0.3,0.1,0.1,0.7"])
def test_dmo_constant_field_zeros(tmp_path, matrix):
    cfg = write_cfg(tmp_path, DMO_CFG.replace("2,0,0,1", matrix))
    out = tmp_path / "dmo.csv"
    assert run_cli(["dmo", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    for row in rows:
        r, omega, tau, tau_hat, kappa, warn = row.split(",")
        assert float(omega) == 0.0 and float(tau) == 0.0
        assert float(kappa) == 1.0 and float(warn) == 0.0


def test_dmo_with_one_radius_prints_one_row(tmp_path):
    # One radius has no power law to fit below it: the modulus is
    # flat-extended on both sides, so the small-scale Dini integrand never
    # decays and the warning column reads 1; no warning escapes the command.
    cfg = write_cfg(tmp_path, """
[dmo]
radii = 0.5
probes = 4
[field]
kind = rotating
""")
    out = tmp_path / "dmo.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["dmo", "--config", cfg, "--out", str(out)]) == 0
    assert caught == []
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    assert len(rows) == 1
    r, omega, tau, tau_hat, kappa, warn = map(float, rows[0].split(","))
    assert r == 0.5 and omega > 0 and tau == tau_hat > 0
    assert kappa == 1.0 and warn == 1.0


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


_CSV_DENSITY_CFG = LINE_DENSITY_CFG.replace(
    "kind = line\nh = 0.001\nextent = 1.0", "kind = csv\npath = {csv}")


def _run_csv_density(tmp_path, csv_bytes, cfg_tail=b"", out=None):
    """Exit code of `density` on a measure CSV holding ``csv_bytes``, with
    ``cfg_tail`` appended to the config."""
    csv = tmp_path / "measure.csv"
    csv.write_bytes(csv_bytes)
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(_CSV_DENSITY_CFG.replace("{csv}", str(csv)).encode()
                    + cfg_tail)
    return run_cli(["density", "--config", str(cfg)]
                   + ([] if out is None else ["--out", str(out)]))


@pytest.mark.parametrize("csv_bytes,cfg_tail,message", [
    (b"x1,x2,w\n0.1,abc,1.0\n", b"",
     "measure.csv: row 2: could not convert string to float: 'abc'"),
    (b"x1,x2,w\n0.1,0.2,1.0\xff\n", b"",
     "measure.csv: 'utf-8' codec can't decode byte 0xff"),
    (b"x1,x2,w\n0.1,0.2,1.0\n", b"# \xff\n",
     "run.cfg: 'utf-8' codec can't decode byte 0xff"),
    (b"x1,x2,w\n0.1," + b"1" * 200_000 + b",1.0\n", b"",
     "measure.csv: field larger than field limit (131072)"),
    (b"x1,x2,w\n0.1,0.2\n", b"", "measure.csv: ragged row ['0.1', '0.2']"),
    (b"0.1,0.2,1.0\n", b"", "measure.csv: expected header x1,...,xn,w"),
    (b"", b"", "measure.csv: expected header x1,...,xn,w"),
    (b"x1,x2,w\n0.1,0.2,nan\n", b"", "weights must be finite"),
], ids=["csv-cell-not-a-number", "csv-not-utf8", "config-not-utf8",
        "csv-field-too-large", "csv-ragged-row", "csv-no-header",
        "csv-empty", "csv-nan-weight"])
def test_a_hostile_measure_or_config_file_exits_2(tmp_path, capsys,
                                                   csv_bytes, cfg_tail,
                                                   message):
    assert _run_csv_density(tmp_path, csv_bytes, cfg_tail) == 2
    err = capsys.readouterr().err
    assert err.startswith("gmt-lab: ") and message in err
    assert "Traceback" not in err


def test_a_header_only_measure_csv_is_the_empty_measure(tmp_path):
    out = tmp_path / "density.csv"
    assert _run_csv_density(tmp_path, b"x1,x2,w\n", out=out) == 0
    assert "# verdict=zero-density" in out.read_text()


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
    # Every rung and every sandwich mass reads the command's one
    # Lambda(a)-distance pass, made in blowup_report; none is made per rung.
    from gmtlab import blowup
    calls = []

    def counted(mu, center, inv=None):
        calls.append(sys._getframe(1).f_code.co_name)
        return lambda_pass(mu, center, inv)

    monkeypatch.setattr(blowup, "lambda_pass", counted)
    cfg = write_cfg(tmp_path, BLOWUP_CFG)
    assert run_cli(["blowup", "--config", cfg, "--out",
                    str(tmp_path / "blowup.csv")]) == 0
    assert calls == ["blowup_report"]


_LADDER = "r0 = 0.5\nrho = 0.5\ncount = 2"


@pytest.mark.parametrize("command,ladder,m,radius", [
    ("density", "r0 = 0.5\nrho = 0.5\ncount = 2000", 1, "5.563e-309"),
    ("density", "r0 = 0.5\nrho = 1e-160\ncount = 3", 2, "5e-161"),
    ("blowup", "r0 = 0.5\nrho = 0.5\ncount = 2000", 1, "5.563e-309"),
], ids=["r^-1-overflows", "r^-2-overflows", "blowup"])
def test_a_ladder_whose_densities_leave_the_float_range_exits_3(
        tmp_path, capsys, monkeypatch, command, ladder, m, radius):
    # With spacing 0 the resolution guard bounds no radius.  The densities
    # refuse the first radius whose r^-m is not finite (at 0.5^1024 and at
    # 5e-161 with m = 2), by r and m, before a blowup rung is built.
    from gmtlab import blowup

    def no_rung(*args, **kwargs):
        raise AssertionError("a rung was built")

    monkeypatch.setattr(blowup, "DiscreteMeasure", no_rung)
    text = BLOWUP_CFG.replace(_LADDER, f"{ladder}\nspacing = 0").replace(
        "m = 1", f"m = {m}")
    if command == "density":
        text = text.replace("[blowup]", "[density]").replace(
            "sandwich_R = 0.5,1,2\n", "")
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", write_cfg(tmp_path, text),
                    "--out", str(out)]) == 3
    assert (f"radius {radius} at density exponent m = {m} puts r^m, r^-m or "
            "the density out of floating-point range"
            in capsys.readouterr().err)
    assert not out.exists()


def test_dmo_refuses_a_ball_grid_above_the_sample_cap(tmp_path, capsys,
                                                      monkeypatch):
    # A ball's quadrature grid has BALL_GRID ** n points, capped like a
    # generated sample: n <= 5 runs and n = 6 is refused.  Under a cap
    # lowered to BALL_GRID ** 3 - 1, n = 3 is refused before the grid is
    # allocated and n = 2 still runs.
    from gmtlab import errors
    from gmtlab.measures import BALL_GRID
    assert BALL_GRID ** 5 <= errors.MAX_ATOMS < BALL_GRID ** 6
    monkeypatch.setattr(errors, "MAX_ATOMS", BALL_GRID ** 3 - 1)
    for n, code in ((3, 3), (2, 0)):
        cfg = write_cfg(tmp_path, f"[dmo]\nn = {n}\nprobes = 1\n"
                        "radii = 0.5\n[field]\nkind = identity\n")
        assert run_cli(["dmo", "--config", cfg]) == code
    assert (f"needs {BALL_GRID ** 3} points, above the cap of "
            f"{BALL_GRID ** 3 - 1}" in capsys.readouterr().err)


@pytest.mark.parametrize("dmo,message", [
    ("n = 6\nprobes = 4", f"per-ball grid of {16}^n points in dimension "
     f"n = 6 needs {16 ** 6} points"),
    ("n = 2\nprobes = 5000000", "probe count needs 5000000 points"),
], ids=["grid", "probes"])
def test_the_dmo_sample_cap_names_the_input_at_fault(tmp_path, capsys, dmo,
                                                     message):
    from gmtlab.measures import BALL_GRID
    assert BALL_GRID == 16
    cfg = write_cfg(tmp_path, f"[dmo]\n{dmo}\n[field]\nkind = identity\n")
    assert run_cli(["dmo", "--config", cfg]) == 3
    assert message + ", above the cap of 4194304" in capsys.readouterr().err


def test_dmo_refuses_a_negative_seed(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DMO_CFG)
    assert run_cli(["dmo", "--config", cfg, "--seed", "-1"]) == 2
    assert ("probe seed must be nonnegative and finite, got -1"
            in capsys.readouterr().err)


@pytest.mark.parametrize("matrix", ["1e7,1e7,0,1e-7", "1e7,0,1e7,1e-7"])
@pytest.mark.parametrize("command, text", [
    ("density", LINE_DENSITY_CFG), ("pv", HALFLINE_PV_CFG),
    ("blowup", BLOWUP_CFG)], ids=["density", "pv", "blowup"])
def test_a_field_that_passes_the_field_check_runs_every_scan(
        tmp_path, command, text, matrix):
    # Both matrices have det 1.  Lambda(a) meets the field's check alone:
    # no ellipse ball or affine map built from it may refuse it again.
    cfg = write_cfg(tmp_path, text.replace(
        "kind = identity", f"kind = constant\nmatrix = {matrix}"))
    assert run_cli([command, "--config", cfg, "--out",
                    str(tmp_path / "out.csv")]) == 0


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


@pytest.mark.parametrize("far", ["1e200", "1e300"])
@pytest.mark.parametrize("command,cfg_text", [("density", LINE_DENSITY_CFG),
                                              ("pv", HALFLINE_PV_CFG),
                                              ("blowup", BLOWUP_CFG)],
                         ids=["density", "pv", "blowup"])
def test_center_whose_distances_overflow_exits_2(tmp_path, capsys, command,
                                                 cfg_text, far):
    cfg = write_cfg(tmp_path, cfg_text.replace("center = 0,0",
                                               f"center = {far},0"))
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert (f"center ({float(far)!r}, 0.0) is too far from the sample"
            in capsys.readouterr().err)
    assert not out.exists()


def test_density_center_off_the_support_is_zero_density(tmp_path):
    cfg = write_cfg(tmp_path, LINE_DENSITY_CFG.replace("center = 0,0",
                                                       "center = 2,0"))
    out = tmp_path / "density.csv"
    assert run_cli(["density", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[-1] == "# verdict=zero-density"
    # Every density is 0, so no gap ratio exists: the column is empty.
    assert all(row.split(",")[1:] == ["0", ""] for row in lines[2:-1])


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


@pytest.mark.parametrize("contrast", ["inf", "-inf", "nan"])
def test_a_non_finite_contrast_exits_2_by_name_without_a_warning(
        tmp_path, capsys, contrast):
    # The contrast is refused before it scales the identity, whose zeros
    # times an infinite contrast would warn of an invalid value.
    cfg = write_cfg(tmp_path, DMO_CFG.replace(
        _CONSTANT_FIELD, f"kind = checkerboard\ncontrast = {contrast}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["dmo", "--config", cfg]) == 2
    assert (f"[field] contrast = {float(contrast)} is not finite"
            in capsys.readouterr().err)


def test_a_scale_whose_inverse_overflows_exits_2_before_a_solve(
        tmp_path, capsys, monkeypatch):
    from gmtlab import lipmetric

    def refuse(*args, **kwargs):
        raise AssertionError("F_r solved before the scale was checked")

    monkeypatch.setattr(lipmetric, "f_ball", refuse)
    cfg = write_cfg(tmp_path, METRIC_CFG.replace(
        "mode = fr\nr = 1.0", "mode = scaling\nr = 1e-320"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["metric", "--config", cfg]) == 2
    assert ("scale 1e-320 is too small: 1/r is not finite"
            in capsys.readouterr().err)


# The generated half-line's keys, replaced by a CSV measure's: a csv
# measure reads no extent, and an unread key is reported first.
_HALFLINE = "kind = halfline\nh = 0.001\nextent = 1.5"
_CSV_HALFLINE = "kind = csv\npath = {csv}\nh = "


@pytest.mark.parametrize("command,cfg_text,message", [
    ("pv", HALFLINE_PV_CFG.replace(_HALFLINE, _CSV_HALFLINE + "nan"),
     "spacing must be nonnegative and finite, got nan"),
    ("pv", HALFLINE_PV_CFG.replace(_HALFLINE, _CSV_HALFLINE + "-1"),
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
    cfg = write_cfg(tmp_path, METRIC_CFG.replace("mode = fr\nr = 1.0",
                                                 "mode = dcone"))
    assert run_cli(["metric", "--config", cfg]) == 3


def test_simplex_iteration_limit_exits_3(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        simplex_max_bounded(np.array([[1.0, 1.0]]), np.array([1.5]),
                            np.array([1.0, 1.0]), np.zeros(2), np.ones(2),
                            max_iter=1)
    monkeypatch.setattr(transport, "transport_simplex", refuse)
    cfg = write_cfg(tmp_path, METRIC_CFG.replace("mode = fr\nr = 1.0",
                                                 "mode = dcone"))
    assert run_cli(["metric", "--config", cfg]) == 3


def test_fmt_never_prints_negative_zero():
    assert _fmt(-0.0) == "0"
    assert _fmt(0.0) == "0"
    assert _fmt(-1e-300) == "-1e-300"
    assert _fmt(float("nan")) == ""
    assert _fmt(7) == "7"


COMMAND_CONFIGS = [
    ("density", LINE_DENSITY_CFG),
    ("pv", HALFLINE_PV_CFG),
    ("metric", METRIC_CFG),
    ("dmo", DMO_CFG),
    ("blowup", BLOWUP_CFG),
    ("generate", "[measure]\nkind = cantor\ndepth = 5\n"),
]


@pytest.mark.parametrize("command,cfg_text", COMMAND_CONFIGS)
def test_byte_identical_across_threads(tmp_path, command, cfg_text):
    cfg = write_cfg(tmp_path, cfg_text)
    out1 = tmp_path / "a.out"
    out2 = tmp_path / "b.out"
    assert run_cli([command, "--config", cfg, "--out", str(out1),
                    "--threads", "1"]) == 0
    assert run_cli([command, "--config", cfg, "--out", str(out2),
                    "--threads", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command,cfg_text", COMMAND_CONFIGS)
def test_no_out_file_holds_a_carriage_return(tmp_path, command, cfg_text):
    out = tmp_path / "a.out"
    assert run_cli([command, "--config", write_cfg(tmp_path, cfg_text),
                    "--out", str(out)]) == 0
    assert b"\r" not in out.read_bytes()


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


# ---------------------------------------------------------------------------
# Hostile configs: every run exits 0, 2 or 3 without a warning
# ---------------------------------------------------------------------------

_HOSTILE_FLOATS = ("0", "-1", "-0.0", "1e-300", "5e-324", "1e200", "1e300",
                   "nan", "inf", "1e-9", "2")
_HOSTILE_INTS = ("0", "-1", "1", "3", "40")


def _key_lines(keys):
    return "".join(f"{key} = {default}\n" for key, default in keys.items())


# Each generated kind with its keys at the defaults the CLI reads.
GENERATE_CONFIGS = {
    kind: _key_lines(({} if kind == "cantor" else {"h": 0.001}) | keys)
    for kind, (_, keys) in _MEASURE_KINDS.items()}

# Each metric mode on the line, and each field kind in the density config,
# with its keys at their defaults; only the lines after the prefix are swept.
METRIC_CONFIGS = {
    mode: (f"[metric]\nmode = {mode}\n" + _key_lines(keys),
           "[measure]\nkind = line\nh = 0.01\n")
    for mode, (_, _, keys) in _METRIC_MODES.items()}
FIELD_CONFIGS = {
    kind: (f"[field]\nkind = {kind}\n" + _key_lines(keys),
           CLI_CONFIGS["density"].replace("[field]\nkind = identity\n", ""))
    for kind, keys in {"constant": {"matrix": "2,0,0,1"},
                       **_FIELD_KINDS}.items()}


def _hostile_values(value):
    """Integers for an integer value, numbers for a number or a list of
    numbers (a list is replaced by one value), nothing for a name."""
    try:
        [float(v) for v in value.split(",")]
    except ValueError:
        return ()
    return _HOSTILE_INTS if value.isdigit() else _HOSTILE_FLOATS


def _hostile_cases(command, cfg_text, prefix, label):
    """``prefix`` and the config with each numeric value replaced, one at a
    time."""
    lines = cfg_text.strip().splitlines()
    for i, line in enumerate(lines):
        key, eq, value = (part.strip() for part in line.partition("="))
        for hostile in _hostile_values(value) if eq else ():
            text = lines[:i] + [f"{key} = {hostile}"] + lines[i + 1:]
            yield pytest.param(command, prefix + "\n".join(text) + "\n",
                               id=f"{label}-{key}={hostile}")


def _cells_not_finite(command, text):
    """Empty, nan and inf cells of an output, apart from pv's first
    successive difference, which has no predecessor."""
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    return [(i, rows[0][j], cell) for i, row in enumerate(rows)
            for j, cell in enumerate(row)
            if cell in ("", "nan", "inf", "-inf")
            and not (command == "pv" and i == 1
                     and rows[0][j] == "successive_diff")]


@pytest.mark.parametrize("command,cfg_text", [
    *(case for command, text in CLI_CONFIGS.items()
      for case in _hostile_cases(command, text, "", command)),
    *(case for kind, keys in GENERATE_CONFIGS.items()
      for case in _hostile_cases("generate",
                                 f"[measure]\nkind = {kind}\n{keys}", "",
                                 f"generate-{kind}")),
    *(case for mode, text in METRIC_CONFIGS.items()
      for case in _hostile_cases("metric", *text, f"metric-{mode}")),
    *(case for kind, text in FIELD_CONFIGS.items()
      for case in _hostile_cases("density", *text, f"field-{kind}")),
    *_hostile_cases("blowup", "sandwich_R = 0.5,1,2",
                    CLI_CONFIGS["blowup"].lstrip(), "blowup"),
])
def test_hostile_config_exits_0_2_or_3(tmp_path, capsys, command, cfg_text):
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli([command, "--config", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    if code == 0:
        assert _cells_not_finite(command, out.read_text()) == []
    else:
        assert err.startswith("gmt-lab: ") and not out.exists()


TYPO_BLOWUP_CFG = """
[measure]
kind = line
h = 0.001
[field]
kind = identity
[ladder]
r0 = 0.4
rho = 0.5
cuont = 3
[blowup]
center = 0,0
[blowupp]
m = 2
"""


def test_a_key_no_command_reads_exits_2_by_name(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TYPO_BLOWUP_CFG)
    out = tmp_path / "blowup.csv"
    assert run_cli(["blowup", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "gmt-lab: [blowupp] m is not read by this command; "
        "did you mean [blowup] m?\n")
    assert not out.exists()
    cfg = write_cfg(tmp_path, TYPO_BLOWUP_CFG.split("[blowupp]")[0])
    assert run_cli(["blowup", "--config", cfg, "--out", str(out)]) == 2
    assert "[ladder] cuont is not read by this command; did you mean " \
           "[ladder] count?" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "density"])
@pytest.mark.parametrize("h", ["0.5", "1e-9"])
def test_a_cantor_measure_reads_no_spacing(tmp_path, capsys, command, h):
    # The Cantor spacing comes from its depth, so an h key is a key no
    # command reads.
    text = CANTOR_DENSITY_CFG if command == "density" else GENERATE_CFG
    cfg = write_cfg(tmp_path, text.replace("depth = 7", f"depth = 7\nh = {h}")
                    .format(manifest=tmp_path / "manifest.json"))
    out = tmp_path / "out.csv"
    assert run_cli([command, "--config", cfg, "--out", str(out)]) == 2
    assert "[measure] h is not read by this command" in capsys.readouterr().err
    assert not out.exists()


def test_density_refuses_an_exponent_above_the_dimension(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_DENSITY_CFG.replace("m = 1", "m = 7"))
    out = tmp_path / "density.csv"
    assert run_cli(["density", "--config", cfg, "--out", str(out)]) == 2
    assert "density exponent m = 7 must lie in 1..2" in capsys.readouterr().err


def test_metric_series_with_a_huge_max_terms_returns(tmp_path):
    cfg = write_cfg(tmp_path, """
[measure]
kind = line
h = 0.01
[metric]
mode = series
max_terms = 1000000000000000000000000000000
""")
    out = tmp_path / "series.txt"
    assert run_cli(["metric", "--config", cfg, "--out", str(out)]) == 0
    value, tail = out.read_text().strip().splitlines()[1].split(",")
    assert 0.0 < float(value) <= 1.0 and float(tail) == 0.0


def test_a_typo_exits_2_before_the_blowup_is_computed(tmp_path, capsys):
    from gmtlab import blowup
    cfg = write_cfg(tmp_path, TYPO_BLOWUP_CFG.split("[blowupp]")[0])
    out = tmp_path / "blowup.csv"
    with mock.patch.object(blowup, "blowup_report") as report:
        assert run_cli(["blowup", "--config", cfg, "--out", str(out)]) == 2
    assert "[ladder] cuont is not read by this command" \
        in capsys.readouterr().err
    assert report.call_count == 0
    assert not out.exists()


def test_unread_keys_are_found_in_canonical_order():
    cfg = RunConfig.parse("[b]\nx = 1\n[a]\ny = 2\nz = 3\n[c]\n")
    cfg.get("a", "y")
    with pytest.raises(ConfigError, match=r"^\[a\] z is not read"):
        cfg.require_all_read()
    cfg.get("a", "z")
    with pytest.raises(ConfigError, match=r"^\[b\] x is not read"):
        cfg.require_all_read()
    cfg.get("b", "x")
    with pytest.raises(ConfigError, match=r"^\[c\] is not read"):
        cfg.require_all_read()
    cfg.get("c", "anything")
    cfg.require_all_read()


def test_generate_reads_the_manifest_key_before_writing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[measure]\nkind = cantor\ndepth = 2\n"
                              "[generate]\nmanfest = x.txt\n")
    out = tmp_path / "cantor.csv"
    assert run_cli(["generate", "--config", cfg, "--out", str(out)]) == 2
    assert "did you mean [generate] manifest?" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n,m", [(3, -1), (3, 40), (1, 2), (-1, 1)])
def test_generate_flat_with_a_bad_plane_dimension_exits_2(tmp_path, capsys,
                                                         n, m):
    cfg = write_cfg(tmp_path, f"[measure]\nkind = flat\nn = {n}\nm = {m}\n")
    out = tmp_path / "flat.csv"
    assert run_cli(["generate", "--config", cfg, "--out", str(out)]) == 2
    assert f"plane dimension m={m} invalid in R^{n}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radii,message", [
    ("5e-324", "radius 5e-324 is too small"),
    ("1e300,0.5", "radius 1e+300 leaves a probe ball without quadrature"),
])
def test_dmo_radius_that_underflows_or_overflows_exits_2(tmp_path, capsys,
                                                         radii, message):
    cfg = write_cfg(tmp_path, DMO_CFG.replace("radii = 0.8,0.4,0.2,0.1",
                                              f"radii = {radii}"))
    out = tmp_path / "dmo.csv"
    assert run_cli(["dmo", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_line_with_nan_spacing_names_the_spacing(tmp_path, capsys):
    cfg = write_cfg(tmp_path, LINE_DENSITY_CFG.replace("h = 0.001", "h = nan"))
    assert run_cli(["density", "--config", cfg]) == 2
    assert ("grid spacing must be positive and finite, got nan"
            in capsys.readouterr().err)


@pytest.mark.parametrize("kind,key", [("line", "h = 1e-9"),
                                      ("cross", "extent = 1e300"),
                                      ("circle", "radius = 1e200"),
                                      ("graph", "h = 1e-9"),
                                      ("flat", "n = 3\nm = 3")])
def test_generate_above_the_atom_cap_exits_3(tmp_path, capsys, kind, key):
    cfg = write_cfg(tmp_path, f"[measure]\nkind = {kind}\n{key}\n")
    out = tmp_path / "measure.csv"
    assert run_cli(["generate", "--config", cfg, "--out", str(out)]) == 3
    assert "above the cap of 4194304" in capsys.readouterr().err
    assert not out.exists()

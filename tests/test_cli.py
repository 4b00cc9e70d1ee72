import csv
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from wlab import config
from wlab.cli import main
from wlab.config import (
    SceneConfig,
    canonical_dumps,
    load_config,
    parse_scalar_function,
)
from wlab.errors import ConfigError
from wlab.meshio import write_csv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_config(tmp_path, data, filename="scene.json"):
    path = tmp_path / filename
    path.write_text(json.dumps(data))
    return str(path)


def read_csv_columns(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return header, cols


SPHERE = {"kind": "fixture", "params": {"shape": "sphere", "radius": 2.0},
          "grid": [16, 32], "name": "ball"}
CATENOID = {"kind": "fixture", "params": {"shape": "catenoid", "radius": 1.0},
            "grid": [12, 12], "name": "cat"}
TORUS = {"kind": "fixture",
         "params": {"shape": "torus", "radius_major": 2.0, "radius_minor": 1.0},
         "grid": [16, 16], "name": "donut"}
ROTATIONAL = {"kind": "rotational-lw",
              "params": {"rho0": 1.0, "theta0": 0.3, "s_range": [0.0, 1.0]},
              "relation": [2.0, -1.0], "grid": [12, 12], "name": "rot"}
RIEMANN_TYPE = {"kind": "riemann-type",
                "params": {"a": "u + 0.1 * sin(u)", "b": "0.3 * u + 0.1 * cos(u)",
                           "r": "1 + 0.1 * sin(u)", "u_range": [-1.0, 1.0]},
                "relation": [0.5, 0.0], "grid": [10, 10], "name": "rt"}


class TestConfig:
    def test_round_trip_byte_exact(self, tmp_path):
        path = write_config(tmp_path, SPHERE)
        cfg = load_config(path)
        text = canonical_dumps(cfg)
        path2 = tmp_path / "canon.json"
        path2.write_text(text)
        assert canonical_dumps(load_config(str(path2))) == text

    def test_m_zero_rejected(self):
        with pytest.raises(ConfigError, match="m != 0"):
            SceneConfig("rotational-lw",
                        {"rho0": 1.0, "theta0": 0.0, "s_range": [0.0, 1.0]},
                        relation=(0.0, 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            SceneConfig("moebius", {})

    def test_missing_params(self):
        with pytest.raises(ConfigError, match="missing required"):
            SceneConfig("fixture", {"shape": "sphere"})

    def test_bad_expression(self):
        with pytest.raises(ConfigError):
            SceneConfig("riemann-type",
                        {"a": "u +", "b": 0.0, "r": 1.0, "u_range": [0, 1]})

    @pytest.mark.parametrize("expr", [
        "().__class__.__mro__.__len__() + 0.5",
        "(1.5).__class__(u) * 0 + 2.0",
        "u.real",
        "u[0] + 1",
        "(lambda x: x)(u)",
        "sum([x for x in (u, u)])",
        "sum(x for x in (u, u))",
        "'1.0'",
        "sin(u, out=None)",
        "sin(*(u,))",
        "1 if u else 2",
        "u // 2",
        "True + u",
        "1j * u",
        "exp",
    ])
    def test_expression_outside_grammar_rejected(self, expr):
        with pytest.raises(ConfigError):
            SceneConfig("riemann-type",
                        {"a": expr, "b": 0.0, "r": 1.0, "u_range": [0, 1]})

    @pytest.mark.parametrize("expr", [
        "0.5*u + 0.2*sin(1.7*u)",
        "0.3*u + 0.25*cos(1.3*u)",
        "1.1 + 0.2*sin(u)",
        "-u**2 + +pi / 4",
        "exp(-u) / 2 + sqrt(abs(u)) - tanh(u)",
        "2",
    ])
    def test_arithmetic_expression_accepted(self, expr):
        fn = parse_scalar_function(expr, "params.a")
        us = np.linspace(-1.0, 1.0, 7)
        np.testing.assert_array_equal(np.broadcast_to(fn(us), us.shape),
                                      [fn(u) for u in us])

    def test_diagnostics_carry_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "fixture",}')
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))


CYCLIC = {"kind": "cyclic", "name": "cyc",
          "params": {"kappa": "1 + 0.2*sin(u)", "sigma": 0.3, "alpha": 2.0,
                     "beta": 0.2, "gamma": 0.3, "r": 0.5, "u_range": [0.0, 2.0]}}
RIEMANN_EXAMPLE = {"kind": "riemann-example", "name": "rex",
                   "params": {"lambda": 0.5, "mu": 0.3, "r0": 1.0, "dr0": 0.1}}


@pytest.mark.parametrize("base, key, value", [
    (CYCLIC, "u_range", [2.0, 0.5]),
    (RIEMANN_TYPE, "u_range", [2.0, 0.5]),
    (RIEMANN_EXAMPLE, "dr0", 1e300),
    (RIEMANN_EXAMPLE, "dr0", "0.1"),
    (RIEMANN_EXAMPLE, "dr0", math.nan),
], ids=["cyclic-u-range-reversed", "riemann-type-u-range-reversed",
        "dr0-past-blowup", "dr0-string", "dr0-nan"])
def test_malformed_config_exit_1(tmp_path, capsys, base, key, value):
    bad = dict(base, params=dict(base["params"], **{key: value}))
    path = write_config(tmp_path, bad)
    assert main(["generate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


def test_expressions_parsed_once_per_job(tmp_path, monkeypatch):
    """Validation parses each expression; the --grid override and the scene
    build reuse the parsed functions."""
    parsed = []
    parse = config.parse_scalar_function
    monkeypatch.setattr(config, "parse_scalar_function",
                        lambda *args, **kw: parsed.append(args[1]) or parse(*args, **kw))
    path = write_config(tmp_path, CYCLIC)
    assert main(["analyze", "--config", path, "--grid", "4x4",
                 "--out", str(tmp_path / "out")]) == 0
    assert len(parsed) == 6, parsed


def test_expression_test_point_inside_u_range(tmp_path):
    """An expression singular at u = 0.5 but regular on its u_range is valid."""
    path = write_config(tmp_path, dict(RIEMANN_TYPE, params=dict(
        RIEMANN_TYPE["params"], r="1/(u - 0.5)", u_range=[1.0, 2.0])))
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("params, code", [
    ({"r0": 1e-9}, 2),
    ({"r0": 0.01, "dr0": -1e7}, 2),  # the neck radius is about 1e-9
    ({"lambda": 1e-9, "mu": 0.0, "u_range": [-30.0, 30.0]}, 0),
], ids=["r0-collapsed", "neck-collapsed", "long-range-small-lambda"])
def test_riemann_example_exit_codes(tmp_path, capsys, params, code):
    path = write_config(tmp_path, dict(RIEMANN_EXAMPLE,
                                       params=dict(RIEMANN_EXAMPLE["params"], **params)))
    out = tmp_path / "out"
    assert main(["generate", "--config", path, "--out", str(out)]) == code
    if code == 0:
        assert json.loads((out / "rex.meta.json").read_text())["truncated"] is True
    else:
        err = capsys.readouterr().err
        assert "numerical failure" in err and "radius" in err


@pytest.mark.parametrize("params, message", [
    ({"gamma": "sqrt(u - 1)"}, r"gamma non-finite at u = (\S+)"),
    ({"kappa": "1/(u - 0.55)"}, r"missed tolerance .* with 4096 steps"),
], ids=["gamma-nan", "kappa-pole"])
def test_cyclic_transport_exit_2(tmp_path, capsys, params, message):
    """A non-finite coefficient names the first u where the transport met
    it; a pole that no step count resolves stops at the step cap."""
    path = write_config(tmp_path, dict(CYCLIC, params=dict(CYCLIC["params"], **params)))
    assert main(["generate", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    found = re.search(message, err)
    assert found, err
    if found.groups():
        assert 0.0 <= float(found.group(1)) < 1.0


@pytest.mark.parametrize("base, argv", [
    (RIEMANN_TYPE, ["harmonics", "--u-list=abc"]),
    (RIEMANN_TYPE, ["harmonics", "--u-list=0.5,nan"]),
    (RIEMANN_TYPE, ["harmonics", "--u-list=inf"]),
    (RIEMANN_TYPE, ["harmonics", "--max-harmonic", "-1"]),
    (ROTATIONAL, ["fit", "--tol", "nan"]),
    (ROTATIONAL, ["fit", "--tol", "0"]),
    (ROTATIONAL, ["fit", "--tol=-1e-6"]),
], ids=["u-list-text", "u-list-nan", "u-list-inf", "max-harmonic-negative",
        "tol-nan", "tol-zero", "tol-negative"])
def test_bad_cli_argument_exit_1(tmp_path, capsys, base, argv):
    path = write_config(tmp_path, base)
    assert main(argv + ["--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "wlab: config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _per_cell_csv(header, rows):
    """The per-cell CSV formatting that write_csv's "%" blocks must reproduce."""
    def fmt(x):
        if isinstance(x, float):
            return "" if math.isnan(x) else "%.12g" % x
        return str(x)

    lines = [",".join(header)] + [",".join(fmt(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_write_csv_matches_per_cell_writer(tmp_path):
    rows = ([[0.5, 3, 1.0 / 3.0, math.nan, "x", "True"],
             [0.5, 4, -0.0, math.inf, "", "False"],
             [0.5, 5, -math.inf, 0.0, "50%", "nan"],
             [np.float64(1e-300), np.int64(7), True, np.float64(math.nan), 2.5e20, -1],
             [np.float32(math.nan), np.float32(0.1), None, -0.0, -1e-7, 123456789012345.0],
             [1, 2, 3], [], [math.nan, math.nan], [math.nan, 1.0]]
            + np.random.default_rng(0).normal(size=(20, 4)).tolist()
            + [[0.25, math.nan, 7, "%s"]] * 3)
    header = ["u", "j", "x", "label"]
    path = tmp_path / "rows.csv"
    write_csv(path, header, rows)
    assert path.read_text() == _per_cell_csv(header, rows)
    write_csv(path, header, [])
    assert path.read_text() == "u,j,x,label\n"


class TestGenerate:
    def test_obj_counts(self, tmp_path):
        path = write_config(tmp_path, SPHERE)
        out = tmp_path / "out"
        assert main(["generate", "--config", path, "--out", str(out)]) == 0
        lines = (out / "ball.obj").read_text().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        normals = [l for l in lines if l.startswith("vn ")]
        faces = [l for l in lines if l.startswith("f ")]
        assert len(verts) == 16 * 32
        assert len(normals) == 16 * 32
        assert len(faces) == 2 * 15 * 31
        for face in faces:
            idx = [int(part.split("/")[0]) for part in face.split()[1:]]
            assert all(1 <= i <= 512 for i in idx)

    def test_sphere_vertices_on_sphere(self, tmp_path):
        path = write_config(tmp_path, SPHERE)
        out = tmp_path / "out"
        main(["generate", "--config", path, "--out", str(out)])
        for line in (out / "ball.obj").read_text().splitlines():
            if line.startswith("v "):
                x, y, z = (float(t) for t in line.split()[1:])
                assert abs(math.hypot(x, y, z) - 2.0) < 1e-8

    def test_metadata(self, tmp_path):
        path = write_config(tmp_path, SPHERE)
        out = tmp_path / "out"
        main(["generate", "--config", path, "--out", str(out)])
        meta = json.loads((out / "ball.meta.json").read_text())
        assert meta["truncated"] is False
        assert meta["config"]["kind"] == "fixture"

    def test_grid_override(self, tmp_path):
        path = write_config(tmp_path, SPHERE)
        out = tmp_path / "out"
        main(["generate", "--config", path, "--out", str(out), "--grid", "8x9"])
        lines = (out / "ball.obj").read_text().splitlines()
        assert sum(l.startswith("v ") for l in lines) == 72

    def test_m_zero_config_exit_1(self, tmp_path, capsys):
        bad = dict(ROTATIONAL, relation=[0.0, 1.0])
        path = write_config(tmp_path, bad)
        assert main(["generate", "--config", path, "--out", str(tmp_path)]) == 1
        assert "m != 0" in capsys.readouterr().err

    def test_no_leftover_temp_files(self, tmp_path):
        path = write_config(tmp_path, SPHERE)
        out = tmp_path / "out"
        main(["generate", "--config", path, "--out", str(out)])
        assert sorted(os.listdir(out)) == ["ball.meta.json", "ball.obj"]


class TestAnalyze:
    def test_catenoid_minimal_column(self, tmp_path):
        path = write_config(tmp_path, CATENOID)
        out = tmp_path / "out"
        assert main(["analyze", "--config", path, "--out", str(out)]) == 0
        header, cols = read_csv_columns(out / "cat.analysis.csv")
        assert header[:6] == ["u", "v", "H", "K", "kappa1", "kappa2"]
        H = np.array([float(x) for x in cols["H"]])
        assert np.abs(H).max() < 1e-8

    def test_sphere_constant_K(self, tmp_path):
        path = write_config(tmp_path, SPHERE)
        out = tmp_path / "out"
        main(["analyze", "--config", path, "--out", str(out)])
        _, cols = read_csv_columns(out / "ball.analysis.csv")
        K = np.array([float(x) for x in cols["K"]])
        assert np.abs(K - 0.25).max() < 1e-10

    def test_torus_K_changes_sign(self, tmp_path):
        path = write_config(tmp_path, TORUS)
        out = tmp_path / "out"
        main(["analyze", "--config", path, "--out", str(out)])
        _, cols = read_csv_columns(out / "donut.analysis.csv")
        K = np.array([float(x) for x in cols["K"]])
        assert K.min() < 0.0 < K.max()

    def test_residual_columns_with_relation(self, tmp_path):
        path = write_config(tmp_path, ROTATIONAL)
        out = tmp_path / "out"
        main(["analyze", "--config", path, "--out", str(out)])
        header, cols = read_csv_columns(out / "rot.analysis.csv")
        assert header[-3:] == ["res_linear", "res_signed", "res_poly"]
        # res_linear fixes the kappa1 >= kappa2 labeling; the polynomial
        # residual vanishes whichever curvature carries the relation
        res = np.array([float(x) for x in cols["res_poly"]])
        assert np.abs(res).max() < 1e-9


class TestHarmonicsCommand:
    def test_csv_with_closed_form_checks(self, tmp_path):
        path = write_config(tmp_path, RIEMANN_TYPE)
        out = tmp_path / "out"
        code = main(["harmonics", "--config", path, "--out", str(out),
                     "--u-list=-0.5,0.0,0.5", "--max-harmonic", "6"])
        assert code == 0
        _, cols = read_csv_columns(out / "rt.harmonics.csv")
        checked = [p for j, p in zip(cols["j"], cols["pass"]) if j == "3"]
        assert checked and all(p == "True" for p in checked)

    def test_cyclic_A6_rows_pass(self, tmp_path):
        path = write_config(tmp_path, dict(CYCLIC, relation=[2.0, 0.0]))
        out = tmp_path / "out"
        assert main(["harmonics", "--config", path, "--out", str(out),
                     "--u-list=0.5,1.0"]) == 0
        _, cols = read_csv_columns(out / "cyc.harmonics.csv")
        rows = [(float(r), p) for j, r, p in zip(cols["j"], cols["ratio"], cols["pass"])
                if j == "6"]
        assert len(rows) == 2
        assert all(abs(r - 1.0) < 1e-7 and p == "True" for r, p in rows), rows

    def test_requires_relation(self, tmp_path, capsys):
        path = write_config(tmp_path, CATENOID)
        assert main(["harmonics", "--config", path, "--out", str(tmp_path)]) == 1
        assert "relation" in capsys.readouterr().err


class TestFitCommand:
    def test_rotational_verdict(self, tmp_path):
        path = write_config(tmp_path, ROTATIONAL)
        out = tmp_path / "out"
        assert main(["fit", "--config", path, "--out", str(out)]) == 0
        text = (out / "rot.report.txt").read_text()
        assert "rotational LW surface" in text
        _, cols = read_csv_columns(out / "rot.fit.csv")
        ms = [float(x) for x in cols["m"]]
        assert any(abs(m - 2.0) < 1e-4 or abs(m - 0.5) < 1e-4 for m in ms)


class TestExportCommand:
    def test_obj_only(self, tmp_path):
        path = write_config(tmp_path, TORUS)
        out = tmp_path / "out"
        assert main(["export", "--config", path, "--out", str(out)]) == 0
        assert os.listdir(out) == ["donut.obj"]


def test_console_script(tmp_path):
    path = write_config(tmp_path, SPHERE)
    out = tmp_path / "out"
    proc = subprocess.run(["wlab", "generate", "--config", path,
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "ball.obj").exists()


def test_module_runs_cli(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "wlab.cli", "generate", "--config",
                           str(tmp_path / "missing.json"), "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "config error" in proc.stderr

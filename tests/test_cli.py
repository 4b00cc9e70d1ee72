import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wlab import cli, config, meshio
from wlab.cli import main
from wlab.config import (
    SceneConfig,
    canonical_dumps,
    load_config,
    parse_scalar_function,
)
from wlab.cyclic import CyclicSurface, build_cyclic
from wlab.errors import ConfigError
from wlab.functions import SmoothFunction, as_smooth
from wlab.meshio import write_csv
from wlab.scene import build_scene
from wlab.surface import evaluate_jet, interior_grid

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _joined(chunks) -> str:
    """The text of a writer's bytes chunks."""
    return b"".join(chunks).decode()


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
        text = canonical_dumps(cfg.to_dict())
        path2 = tmp_path / "canon.json"
        path2.write_text(text)
        assert canonical_dumps(load_config(str(path2)).to_dict()) == text

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

    @pytest.mark.parametrize("expr,message", [
        ("1" + "0" * 400 + " * u", "invalid expression .*int too large to convert to float"),
        ("-(1" + "0" * 400 + ") + sin(u)", "invalid expression .*int too large"),
        ("1" + "0" * 400 + " + u.real", "is not arithmetic in u"),
        ("cos(1" + "0" * 400 + ") + u[0]", "is not arithmetic in u"),
    ], ids=["in-grammar", "nested", "outside-after", "outside-in-call"])
    def test_int_beyond_float_range(self, expr, message):
        """An int constant beyond float range is reported as such, but only
        when the rest of the tree is in the grammar."""
        with pytest.raises(ConfigError, match=message):
            parse_scalar_function(expr, "params.a")

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

    @pytest.mark.parametrize("value", [0.3, 1.234567, -2.718281, 0.481516, 2])
    def test_number_is_an_exact_constant(self, value):
        """A number's derivatives are exactly 0; the 4th-order stencil of a
        constant callable leaves roundoff in most of them (up to 2.2e-8 in
        d2 for these values)."""
        fn = as_smooth(parse_scalar_function(value, "params.alpha"))
        us = np.linspace(-1.0, 1.0, 7)
        assert fn(0.5) == value
        np.testing.assert_array_equal(fn(us), np.full(7, value))
        for d in (fn.d1, fn.d2):
            assert d(0.5) == 0.0
            np.testing.assert_array_equal(d(us), np.zeros(7))

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
    (RIEMANN_TYPE, "a", math.nan),
    (RIEMANN_TYPE, "r", math.inf),
    (CYCLIC, "alpha", math.nan),
], ids=["cyclic-u-range-reversed", "riemann-type-u-range-reversed",
        "dr0-past-blowup", "dr0-string", "dr0-nan", "function-nan", "function-inf",
        "cyclic-function-nan"])
def test_malformed_config_exit_1(tmp_path, capsys, base, key, value):
    bad = dict(base, params=dict(base["params"], **{key: value}))
    path = write_config(tmp_path, bad)
    assert main(["generate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "harmonics", "fit"])
@pytest.mark.parametrize("base, relation", [
    (SPHERE, [math.nan, 0.3]),
    (RIEMANN_TYPE, [1.5, math.inf]),
], ids=["m-nan", "n-inf"])
def test_non_finite_relation_exit_1(tmp_path, capsys, base, relation, command):
    """JSON NaN and Infinity literals in the relation are config errors."""
    path = write_config(tmp_path, dict(base, relation=relation))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 1
    assert "wlab: config error: relation: expected finite" in capsys.readouterr().err
    assert not out.exists()


HUGE = "9" * 400  # an integer far beyond float range


def _with_literal(data, literal):
    """The config text of data with its one "HUGE" string replaced by literal,
    which json.dumps may refuse to write itself."""
    return json.dumps(data).replace('"HUGE"', literal)


@pytest.mark.parametrize("text", [
    _with_literal(dict(SPHERE, relation=["HUGE", 0.0]), HUGE),
    _with_literal(dict(SPHERE, params={"shape": "sphere", "radius": "HUGE"}), HUGE),
    _with_literal(dict(RIEMANN_TYPE, params=dict(RIEMANN_TYPE["params"], a="HUGE")),
                  HUGE),
    _with_literal(dict(RIEMANN_TYPE, params=dict(RIEMANN_TYPE["params"],
                                                 u_range=[-1.0, "HUGE"])), HUGE),
    _with_literal(dict(RIEMANN_EXAMPLE, params=dict(RIEMANN_EXAMPLE["params"],
                                                    dr0="HUGE")), "-" + HUGE),
    _with_literal(dict(SPHERE, grid=["HUGE", 16]), HUGE),
    _with_literal(dict(SPHERE, params={"shape": "sphere", "radius": "HUGE"}), "9" * 5000),
    _with_literal(dict(SPHERE, params={"shape": "sphere", "radius": "HUGE"}),
                  "[" * 100_000 + "]" * 100_000),
    _with_literal(dict(SPHERE, name="HUGE"), '"\xff"'),
    json.dumps(dict(SPHERE, grid=[2 ** 62, 2])),
], ids=["relation-m", "fixture-radius", "constant-function", "u-range-entry",
        "dr0", "grid-entry", "5000-digits", "nested-100000-deep", "not-utf-8",
        "grid-points"])
def test_hostile_config_exit_1(tmp_path, capsys, text):
    """Integers beyond float range, files that the JSON reader cannot hold
    and grids of more than config.MAX_POINTS points are config errors, not
    tracebacks."""
    path = tmp_path / "scene.json"
    path.write_bytes(text.encode("latin-1"))  # "\xff" becomes a byte that is not UTF-8
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wlab: config error: ") and "Traceback" not in err
    assert not out.exists()


_HOSTILE = st.one_of(
    st.integers(-10 ** 400, 10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(), st.text(max_size=6), st.none(),
    st.lists(st.one_of(st.integers(-10 ** 400, 10 ** 400), st.floats()), max_size=3))


def _slot(plain):
    """A plain value three times in four, so that validation gets past the
    earlier slots, else anything from _HOSTILE."""
    return st.integers(0, 3).flatmap(lambda k: _HOSTILE if k == 3 else plain)


_NUMBER = _slot(st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0)))
_FUNCTION = _slot(st.one_of(st.floats(0.5, 2.0),
                            st.sampled_from(["u", "1 + 0.1*sin(u)", "exp(-u) / 2"])))
_PAIR = _slot(st.one_of(st.lists(_NUMBER, min_size=2, max_size=2),
                       st.tuples(st.floats(-3.0, 0.0), st.floats(0.5, 3.0)).map(list)))


@st.composite
def _config_dicts(draw):
    """Config dicts of every kind whose slots (relation, grid, radii,
    riemann-example numbers, ranges and their entries, functions) are each
    plain or hostile."""
    kind = draw(st.sampled_from(config.KINDS))
    params = {
        "fixture": st.one_of(
            st.fixed_dictionaries({"shape": st.sampled_from(["sphere", "cylinder",
                                                            "catenoid"]),
                                   "radius": _NUMBER}),
            st.fixed_dictionaries({"shape": st.just("torus"), "radius_major": _NUMBER,
                                   "radius_minor": _NUMBER})),
        "riemann-type": st.fixed_dictionaries(
            {"a": _FUNCTION, "b": _FUNCTION, "r": _FUNCTION, "u_range": _PAIR}),
        "riemann-example": st.fixed_dictionaries(
            {"lambda": _NUMBER, "mu": _NUMBER, "r0": _NUMBER},
            optional={"dr0": _NUMBER, "u_range": _PAIR}),
        "rotational-lw": st.fixed_dictionaries(
            {"rho0": _NUMBER, "theta0": _NUMBER, "s_range": _PAIR}),
        "cyclic": st.fixed_dictionaries(
            {**{key: _FUNCTION for key in ("kappa", "sigma", "alpha", "beta", "gamma",
                                           "r")},
             "u_range": _PAIR}),
    }[kind]
    return draw(st.fixed_dictionaries(
        {"kind": st.just(kind), "params": params,
         "grid": st.lists(_slot(st.integers(2, 64)), min_size=2, max_size=2)},
        optional={"relation": _PAIR}))


@settings(max_examples=300, deadline=None)
@given(data=_config_dicts())
def test_config_rejected_or_round_trips(data):
    """from_dict returns a config or raises ConfigError, never anything else;
    an accepted config survives its canonical JSON unchanged."""
    try:
        cfg = SceneConfig.from_dict(data)
    except ConfigError:
        return
    assert SceneConfig.from_dict(json.loads(canonical_dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_non_finite_jet_exit_2(tmp_path, capsys, command):
    """A config function that is NaN inside its u range (u ** 1.5 for u < 0)
    stops every subcommand with exit 2, naming the first u of its grid
    where the jet is not finite, and writes no file."""
    path = write_config(tmp_path, dict(
        RIEMANN_TYPE, params=dict(RIEMANN_TYPE["params"], a="u ** 1.5"),
        relation=[1.5, 0.3], grid=[6, 6]))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    found = re.fullmatch(r"wlab: numerical failure: jet non-finite at u = (\S+)\n",
                         capsys.readouterr().err)
    assert found and -1.0 < float(found.group(1)) < 0.0
    assert not out.exists() or not any(out.iterdir())


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


@pytest.mark.parametrize("base", [SPHERE, TORUS, RIEMANN_TYPE, RIEMANN_EXAMPLE,
                                  ROTATIONAL, CYCLIC],
                         ids=["fixture", "torus", "riemann-type", "riemann-example",
                              "rotational-lw", "cyclic"])
def test_build_scene_reads_validated_args_only(base):
    """build_scene builds from the arguments validation checked, not from
    the raw params."""
    cfg = SceneConfig.from_dict(base)
    us, vs = interior_grid(build_scene(cfg).surface, 4, 5)
    expected = evaluate_jet(build_scene(cfg).surface, us, vs)
    cfg.params = {}
    jet = evaluate_jet(build_scene(cfg).surface, us, vs)
    for name in ("p", "xu", "xv", "xuu", "xuv", "xvv"):
        np.testing.assert_array_equal(getattr(jet, name), getattr(expected, name))


def test_cyclic_numbers_are_exact_constants():
    """A cyclic config whose sigma, alpha, beta, gamma and r are numbers
    gives the jets of the surface built from SmoothFunction.constant, bit
    for bit."""
    params = dict(CYCLIC["params"], alpha=1.734521)
    result = build_scene(SceneConfig.from_dict(dict(CYCLIC, params=params)))
    data = CyclicSurface(result.cyclic_data.kappa,
                         *map(SmoothFunction.constant, (0.3, 1.734521, 0.2, 0.3, 0.5)),
                         (0.0, 2.0))
    us, vs = interior_grid(result.surface, 6, 7)
    got = evaluate_jet(result.surface, us, vs)
    want = evaluate_jet(build_cyclic(data), us, vs)
    for name in ("p", "xu", "xv", "xuu", "xuv", "xvv"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


CYLINDER = {"kind": "fixture", "params": {"shape": "cylinder", "radius": 1.5},
            "grid": [6, 6], "name": "can"}
CYCLIC_VARYING = dict(CYCLIC, params={
    "kappa": "1 + 0.2*sin(u)", "sigma": "0.3 + 0.1*cos(u)", "alpha": "2 + 0.1*u",
    "beta": "0.2 + 0.05*sin(u)", "gamma": "0.3 + 0.05*cos(u)",
    "r": "0.5 + 0.1*cos(u)", "u_range": [0.0, 2.0]})


@pytest.mark.parametrize("base", [SPHERE, TORUS, CYLINDER, RIEMANN_TYPE, RIEMANN_EXAMPLE,
                                  ROTATIONAL, CYCLIC, CYCLIC_VARYING],
                         ids=["fixture", "torus", "cylinder", "riemann-type",
                              "riemann-example", "rotational-lw", "cyclic",
                              "cyclic-varying"])
def test_partials_have_degree_one_in_v(base):
    """Every partial of a circle foliation is P0 + P1 cos v + P2 sin v with
    coefficients that depend on u only: four equispaced v determine it, and
    it predicts three other v to 1e-14 of the partial's largest magnitude
    (exactly, for a partial that is identically zero)."""
    surface = build_scene(SceneConfig.from_dict(base)).surface
    us = interior_grid(surface, 5, 2)[0]
    known = evaluate_jet(surface, us, np.arange(4) * (0.5 * math.pi))
    others = np.array([0.3, 2.2, 4.9])
    got = evaluate_jet(surface, us, others)
    for name in ("p", "xu", "xv", "xuu", "xuv", "xvv"):
        f = getattr(known, name)
        p0 = 0.25 * (f[:, 0] + f[:, 1] + f[:, 2] + f[:, 3])
        p1, p2 = 0.5 * (f[:, 0] - f[:, 2]), 0.5 * (f[:, 1] - f[:, 3])
        want = (p0[:, None] + p1[:, None] * np.cos(others)[:, None]
                + p2[:, None] * np.sin(others)[:, None])
        scale = max(np.abs(f).max(), np.abs(getattr(got, name)).max())
        assert np.abs(getattr(got, name) - want).max() <= 1e-14 * scale, name


@pytest.mark.parametrize("base", [RIEMANN_TYPE, dict(CYCLIC, relation=[2.0, 0.0])],
                         ids=["riemann-type", "cyclic"])
def test_one_jet_grid_per_harmonics_job(tmp_path, monkeypatch, base):
    """harmonics evaluates all of its circles as one jet grid."""
    grids = []
    build = cli.build_scene

    def build_counted(cfg):
        result = build(cfg)
        partials = result.surface.partials

        def counted(us, vs):
            grids.append((len(us), len(vs)))
            return partials(us, vs)

        return dataclasses.replace(
            result, surface=dataclasses.replace(result.surface, partials=counted))

    monkeypatch.setattr(cli, "build_scene", build_counted)
    path = write_config(tmp_path, base)
    out = tmp_path / "out"
    us = ",".join(repr(u) for u in np.linspace(0.2, 0.9, 8).tolist())
    assert main(["harmonics", "--config", path, "--out", str(out), "--u-list=" + us]) == 0
    assert grids == [(8, 64)]
    _, cols = read_csv_columns(out / f"{base['name']}.harmonics.csv")
    assert len(cols["u"]) == 8 * 13


DEGENERATE_CIRCLE = dict(RIEMANN_TYPE, name="deg", params=dict(
    RIEMANN_TYPE["params"], a=0.0, b=0.0, r="abs(u) + 1e-14"))


@pytest.mark.parametrize("base, u_list, message", [
    (RIEMANN_TYPE, "0.5,5.0", "u = 5.0 outside (-1.0, 1.0)"),
    (RIEMANN_TYPE, "-0.5,0.0,-1.0", "u = -1.0 outside (-1.0, 1.0)"),
    (DEGENERATE_CIRCLE, "0.5,0.0", "|Xu x Xv| = 1.000e-14 below 1e-12"),
    # every circle's domain is checked before any jet is evaluated
    (DEGENERATE_CIRCLE, "0.0,5.0", "u = 5.0 outside (-1.0, 1.0)"),
], ids=["out-of-range-after-in-range", "range-end", "degenerate",
        "out-of-range-after-degenerate"])
def test_harmonics_bad_circle_exit_2(tmp_path, capsys, base, u_list, message):
    path = write_config(tmp_path, base)
    out = tmp_path / "out"
    assert main(["harmonics", "--config", path, "--out", str(out),
                 "--u-list=" + u_list]) == 2
    assert capsys.readouterr().err == f"wlab: numerical failure: {message}\n"
    assert not out.exists()


def test_expression_test_point_inside_u_range(tmp_path):
    """An expression singular at u = 0.5 but regular on its u_range is valid."""
    path = write_config(tmp_path, dict(RIEMANN_TYPE, params=dict(
        RIEMANN_TYPE["params"], r="1/(u - 0.5)", u_range=[1.0, 2.0])))
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("params, code, err", [
    ({"r0": 1e-9}, 2, r"wlab: numerical failure: .*radius.*\n"),
    # the neck radius is about 1e-9
    ({"r0": 0.01, "dr0": -1e7}, 2, r"wlab: numerical failure: .*radius.*\n"),
    ({"lambda": 1e-9, "mu": 0.0, "u_range": [-30.0, 30.0]}, 0, ""),
    ({"lambda": -1.0}, 1, r"wlab: config error: lam and mu must be nonnegative\n"),
    ({"mu": -0.5}, 1, r"wlab: config error: lam and mu must be nonnegative\n"),
    ({"r0": 0.0}, 1, r"wlab: config error: r0 must be positive\n"),
    ({"r0": 1.0, "dr0": 1e8}, 1,
     r"wlab: config error: r0 \+ \|dr0\| must stay below 1e\+08\n"),
    ({"u_range": [1.0, 1.0]}, 1, r"wlab: config error: empty u_range\n"),
], ids=["r0-collapsed", "neck-collapsed", "long-range-small-lambda", "lambda-negative",
        "mu-negative", "r0-zero", "past-blowup", "u-range-empty"])
def test_riemann_example_exit_codes(tmp_path, capsys, params, code, err):
    path = write_config(tmp_path, dict(RIEMANN_EXAMPLE,
                                       params=dict(RIEMANN_EXAMPLE["params"], **params)))
    out = tmp_path / "out"
    assert main(["generate", "--config", path, "--out", str(out)]) == code
    assert re.fullmatch(err, capsys.readouterr().err)
    if code == 0:
        assert json.loads((out / "rex.meta.json").read_text())["truncated"] is True
    else:
        assert not out.exists()


@pytest.mark.parametrize("name", ["/escaped", "../up", "sub/dir", "nul\0name"],
                         ids=["absolute", "parent", "subdirectory", "nul"])
def test_name_with_path_separator_exit_1(tmp_path, capsys, name):
    """A config name is a file name inside --out: one that holds a path
    separator or a NUL is a config error, and nothing is written."""
    if name.startswith("/"):
        name = str(tmp_path) + name
    workdir = tmp_path / "work"
    workdir.mkdir()
    path = write_config(workdir, dict(SPHERE, name=name))
    out = workdir / "out"
    assert main(["analyze", "--config", path, "--out", str(out)]) == 1
    assert re.fullmatch(r"wlab: config error: name: .*\n", capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["scene.json", "work"]


@pytest.mark.parametrize("under_file", [False, True], ids=["is-a-file", "under-a-file"])
def test_unusable_out_exit_1(tmp_path, capsys, under_file):
    """An --out that is a file, or lies under one, is a config error that
    names --out, not a traceback."""
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker / "sub" if under_file else blocker
    path = write_config(tmp_path, SPHERE)
    assert main(["analyze", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"wlab: config error: --out: cannot create .*\n", err), err
    assert blocker.read_text() == "keep\n"


def test_name_too_long_exit_1(tmp_path):
    """A name the file system cannot take (300 bytes, above the common
    255-byte limit) is one output-error line and exit 1, not a traceback,
    and the new file the write started is gone from --out."""
    path = write_config(tmp_path, dict(SPHERE, name="a" * 300))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "wlab.cli", "analyze", "--config", path,
                           "--out", str(out)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 1
    assert re.fullmatch(r"wlab: output error: cannot write .*\n", proc.stderr), proc.stderr
    assert list(out.iterdir()) == []


class _DiskFull(io.BufferedWriter):
    """A buffered file whose third write fails as a full disk does."""
    writes = 0

    def write(self, chunk):
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(chunk)


def test_disk_full_mid_csv_keeps_target_exit_1(tmp_path, capsys, monkeypatch):
    """A write that fails partway through a streamed analyze CSV (the numpy
    path, 32 x 32 rows of 6 cells) leaves the old file as it was and no new
    file behind, and is one output-error line and exit 1."""
    path = write_config(tmp_path, SPHERE)
    out = tmp_path / "out"
    out.mkdir()
    target = out / "ball.analysis.csv"
    target.write_bytes(b"old,table\n")
    monkeypatch.setattr(meshio.os, "fdopen", lambda fd, mode: _DiskFull(io.FileIO(fd, "w")))
    assert 32 * 32 * 6 >= meshio._VECTOR_MIN_CELLS
    assert main(["analyze", "--config", path, "--out", str(out), "--grid", "32x32"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"wlab: output error: cannot write .*: No space left on device\n",
                        err), err
    assert target.read_bytes() == b"old,table\n"
    assert os.listdir(out) == ["ball.analysis.csv"]


@pytest.mark.parametrize("command", ["export", "analyze"])
def test_jets_fail_before_any_file(tmp_path, capsys, command):
    """The jets run before the output file is created: a scene whose jet is
    not finite exits 2 on its numbers even when its name (300 bytes) is
    one no file can take, and nothing is written."""
    path = write_config(tmp_path, dict(
        RIEMANN_TYPE, params=dict(RIEMANN_TYPE["params"], a="u ** 1.5"),
        grid=[20, 20], name="n" * 300))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert re.fullmatch(r"wlab: numerical failure: jet non-finite at u = -0\.99748\d*\n",
                        capsys.readouterr().err)
    assert not out.exists() or not any(out.iterdir())


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


def test_expression_beyond_parser_stack_is_config_error(tmp_path, capsys):
    """An r of 3,000 u's joined by ** makes ast.parse raise MemoryError (its
    stack limit; 2,500 parse): one config-error line and exit 1.  The line
    quotes the expression's first 60 characters with its length, and gives
    a reason, which the MemoryError's empty text does not."""
    r = "**".join(["u"] * 3000)
    path = write_config(tmp_path, dict(RIEMANN_TYPE, params=dict(RIEMANN_TYPE["params"], r=r)))
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("wlab: config error") and err.count("\n") == 1, err[:200]
    assert err == (f"wlab: config error: params[riemann-type].r: invalid expression "
                   f"{r[:60]!r}... (8998 characters): too deeply nested for the parser\n")
    assert len(err) < 200
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("base, params, relation, command", [
    (RIEMANN_TYPE, {}, [-1e308, -0.24], "harmonics"),
    (RIEMANN_TYPE, {}, [1e200, 0.0], "analyze"),
    (CYCLIC, {"alpha": 1e308}, [1.3, 0.2], "generate"),
    (CATENOID, {"radius": 1e308}, None, "generate"),
    (ROTATIONAL, {}, [1.5, -1e308], "fit"),
    (ROTATIONAL, {"s_range": [-1e308, 0.99]}, None, "export"),
    (SPHERE, {"radius": 1e308}, None, "generate"),
    (SPHERE, {"radius": 1e100}, None, "analyze"),
    (SPHERE, {"radius": 1e40}, None, "analyze"),
    (dict(SPHERE, relation=[1.5, 0.3]), {"radius": 2 ** 63}, None, "harmonics"),
    (CYCLIC, {}, [1.3, -1e308], "harmonics"),
    (RIEMANN_TYPE, {}, [-1e308, -0.24], "analyze"),
    (ROTATIONAL, {"rho0": 1.036713, "theta0": 0.783115,
                  "s_range": [-8.036911764833946e+307, 8.036911764833946e+307]},
     [1.122367, -0.308909], "export"),
], ids=["relation-m-squared-overflows", "relation-m-squared-overflows-n-0",
        "cyclic-alpha-1e308", "catenoid-radius-1e308", "rotational-n-1e308",
        "rotational-s-range-1e308", "sphere-radius-1e308", "sphere-radius-1e100",
        "sphere-curvature-1e40", "sphere-residual-2-63", "cyclic-residual-n-1e308",
        "relation-m-1e308-analyze", "rotational-s-range-near-float-max"])
def test_extreme_number_is_one_failure_line(tmp_path, capsys, base, params, relation,
                                            command):
    """Configs the CLI fuzzer (tools/fuzz.py) found: a float ** overflowing on
    an extreme relation (an OverflowError traceback), numpy warnings before
    the failure line, a rotational profile whose overflowed table indexed
    its pieces at random (an IndexError traceback), a sphere whose Xu x Xv
    overflows (NaN normals and empty curvature cells on exit 0) or whose
    W^2 does (K = 0 and wrong principal curvatures on exit 0), and
    residuals that overflow (NaN spectra on exit 0), a rotational profile
    whose branch loop doubled a length near the float max as a numpy
    scalar (an overflow warning).  Each exits 2 with one
    numerical-failure line and no warning, each overflow caught where it
    happens."""
    data = dict(base, params=dict(base["params"], **params))
    if relation is not None:
        data["relation"] = relation
    path = write_config(tmp_path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert [f"{w.filename}:{w.lineno}: {w.message}" for w in caught] == []
    assert re.fullmatch(r"wlab: numerical failure: [^\n]*\n", capsys.readouterr().err)


_WIDE = [-1.7e308, 1.7e308]     # each end a float; their difference is not


@pytest.mark.parametrize("base, params, command, shown", [
    (RIEMANN_TYPE, {"u_range": _WIDE}, "analyze", "(-1.7e+308, 1.7e+308)"),
    (CYCLIC, {"kappa": 1.0, "u_range": _WIDE}, "generate", "(-1.7e+308, 1.7e+308)"),
    (dict(CATENOID, relation=[-1.0, 0.0]), {"radius": 1e308}, "harmonics",
     "(-1.5e+308, 1.5e+308)"),
], ids=["riemann-type-radius-check", "cyclic-radius-check", "catenoid-default-circles"])
def test_u_range_wider_than_a_float_is_one_failure_line(tmp_path, capsys, base, params,
                                                        command, shown):
    """A u range whose span overflows is rejected where the span is first
    taken: by the radius check of a riemann-type scene (which read min r =
    nan after two numpy warnings) and of a cyclic one (which ran the frame
    transport to its step limit first), and by the default circles of
    harmonics without --u-list (u = nan outside the range).  Each exits 2
    with interior_grid's line and no warning."""
    path = write_config(tmp_path, dict(base, params=dict(base["params"], **params)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert [f"{w.filename}:{w.lineno}: {w.message}" for w in caught] == []
    assert capsys.readouterr().err == (
        f"wlab: numerical failure: u range {shown} is wider than a float holds\n")


@pytest.mark.parametrize("s_range", [[0.0, 1e6], [-1e307, 1e307]])
def test_periodic_profile_past_the_branch_cap_fails_at_once(tmp_path, capsys, s_range):
    """Found by the CLI fuzzer: a periodic rotational profile on an s_range
    it would take more than 100,000 branches to cover built all of them
    (26 s of CPU) before it failed.  Its whole branches repeat, so it fails
    after the first one, with the same line."""
    data = dict(ROTATIONAL, relation=[-0.578231, 0.377552],
                params={"rho0": 1.478017, "theta0": -0.709518, "s_range": s_range})
    start = time.process_time()
    assert main(["generate", "--config", write_config(tmp_path, data),
                 "--out", str(tmp_path / "out")]) == 2
    assert time.process_time() - start < 2.0
    assert capsys.readouterr().err == (
        "wlab: numerical failure: rotational profile turns more than 100000 times\n")


@pytest.mark.parametrize("s_range", [[-1e20, 1e20], [-8.04e307, 8.04e307]])
def test_profile_reaching_the_axis_within_an_ulp_of_its_start(tmp_path, capsys, s_range):
    """Found by the CLI fuzzer: a profile that reaches the axis about 5.67
    past its start truncates to a range of zero width when its start is far
    beyond that, and export failed with "u = s0 outside (s0, s0)".  It
    fails where the profile truncates, with its reach."""
    data = dict(ROTATIONAL, relation=[1.122367, -0.308909],
                params={"rho0": 1.036713, "theta0": 0.783115, "s_range": s_range})
    assert main(["export", "--config", write_config(tmp_path, data),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "wlab: numerical failure: rotational profile reaches the axis at s0 + 5.6653; a float"
        f" at s0 = {s_range[0]!r} cannot hold that range\n")


@pytest.mark.parametrize("m", [5e-324, 1e-17])
def test_rotational_m_near_zero_builds(tmp_path, capsys, m):
    """Found by the CLI fuzzer: for 0 < m <= 2**-54, m - 1 rounds to -1, and
    the critical point's log1p(m - 1) raised ValueError (a traceback); its
    log(m) / (m - 1) is -log(m) there."""
    path = write_config(tmp_path, dict(ROTATIONAL, relation=[m, -0.58]))
    assert main(["export", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("r", ["exp(exp(exp(u)))*1e308", "u*0+log(-1)"],
                         ids=["overflow", "log-domain"])
def test_numerical_failure_warns_nothing(tmp_path, capsys, r):
    """An expression that overflows or leaves its domain, at its test
    evaluation and in the radius check, raises no numpy warning: stderr is
    the one numerical-failure line, and the exit code is 2."""
    path = write_config(tmp_path, dict(RIEMANN_TYPE, params=dict(RIEMANN_TYPE["params"], r=r)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["analyze", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert [f"{w.filename}:{w.lineno}: {w.message}" for w in caught] == []
    assert re.fullmatch(r"wlab: numerical failure: [^\n]*\n", capsys.readouterr().err)


@pytest.mark.parametrize("base, argv", [
    (RIEMANN_TYPE, ["harmonics", "--u-list=abc"]),
    (RIEMANN_TYPE, ["harmonics", "--u-list=0.5,nan"]),
    (RIEMANN_TYPE, ["harmonics", "--u-list=inf"]),
    (RIEMANN_TYPE, ["harmonics", "--max-harmonic", "-1"]),
    (ROTATIONAL, ["fit", "--tol", "nan"]),
    (ROTATIONAL, ["fit", "--tol", "0"]),
    (ROTATIONAL, ["fit", "--tol=-1e-6"]),
    # more points than config.MAX_POINTS, refused before any array is made
    (RIEMANN_TYPE, ["analyze", "--grid", "100000000000000x2"]),
    (RIEMANN_TYPE, ["harmonics", "--max-harmonic", "100000000000000"]),
    (RIEMANN_TYPE, ["harmonics", "--max-harmonic", str(2 ** 62)]),
], ids=["u-list-text", "u-list-nan", "u-list-inf", "max-harmonic-negative",
        "tol-nan", "tol-zero", "tol-negative", "grid-points", "max-harmonic-points",
        "max-harmonic-2-62"])
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


def _with_label(rows, column, cells):
    """The rows of a float array as lists, with cells[i] inserted into row i
    at column: the rows _per_cell_csv formats."""
    return [row[:column] + [cell] + row[column:] for row, cell in zip(rows.tolist(), cells)]


def test_write_csv_matches_per_cell_writer(tmp_path):
    """Floats, NaN, infinities and -0.0 with a label column of str cells,
    among them cells holding "%", an empty one and "nan", at the start and
    at the end of each row."""
    rows = np.array([[0.5, 3, 1.0 / 3.0, math.nan],
                     [0.5, 4, -0.0, math.inf],
                     [0.5, 5, -math.inf, 0.0],
                     [1e-300, 7, 1.0, math.nan],
                     [math.nan, 0.1, 2.5e20, -1],
                     [math.nan, math.nan, math.nan, math.nan],
                     [math.nan, 1.0, -1e-7, 123456789012345.0]]
                    + np.random.default_rng(0).normal(size=(20, 4)).tolist()
                    + [[0.25, math.nan, 7, 1]] * 3)
    cells = (["x", "True", "", "50%", "nan", "False", "%s"]
             + ["True", "", "", "False"] * 5 + ["%s"] * 3)
    path = tmp_path / "rows.csv"
    for column in (0, 4):
        header = ["u", "j", "x", "y"]
        header.insert(column, "label")
        write_csv(path, header, rows, label=(column, cells))
        assert path.read_text() == _per_cell_csv(header, _with_label(rows, column, cells))
        write_csv(path, header, rows[:0], label=(column, []))
        assert path.read_text() == ",".join(header) + "\n"


@pytest.mark.parametrize("base, argv", [
    (SPHERE, ["generate", "--config", "CFG", "--bogus", "1"]),
    (SPHERE, ["generate"]),
    (ROTATIONAL, ["fit", "--config", "CFG", "--tol", "abc"]),
    (RIEMANN_TYPE, ["harmonics", "--config", "CFG", "--max-harmonic", "x"]),
    (SPHERE, []),
    (SPHERE, ["frob", "--config", "CFG"]),
], ids=["unknown-option", "missing-config", "tol-text", "max-harmonic-text",
        "no-subcommand", "unknown-subcommand"])
def test_argument_error_exit_1(tmp_path, capsys, base, argv):
    path = write_config(tmp_path, base)
    argv = [path if a == "CFG" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert "wlab: config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
def test_help_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: wlab" in capsys.readouterr().out


def test_parser_carries_nothing_between_calls(tmp_path, monkeypatch):
    path = write_config(tmp_path, RIEMANN_TYPE)
    out = tmp_path / "out"
    assert main(["harmonics", "--config", path, "--out", str(out),
                 "--u-list=-0.5,0.5", "--max-harmonic", "3"]) == 0
    _, cols = read_csv_columns(out / "rt.harmonics.csv")
    assert len(cols["u"]) == 2 * 4
    assert main(["harmonics", "--config", path, "--out", str(out)]) == 0
    _, cols = read_csv_columns(out / "rt.harmonics.csv")
    assert len(set(cols["u"])) == 5 and len(cols["u"]) == 5 * 13

    tols = []
    real_classify = cli.classify

    def classify(*args, lw_tol, **kwargs):
        tols.append(lw_tol)
        return real_classify(*args, lw_tol=lw_tol, **kwargs)

    monkeypatch.setattr(cli, "classify", classify)
    path = write_config(tmp_path, ROTATIONAL)
    assert main(["fit", "--config", path, "--out", str(out), "--tol", "1e-3"]) == 0
    assert main(["fit", "--config", path, "--out", str(out)]) == 0
    assert tols == [1e-3, 1e-6]


def _per_line_obj(verts, normals, nu, nv):
    """The per-line OBJ formatting that the OBJ chunks must reproduce."""
    lines = ["v %.9g %.9g %.9g" % tuple(p) for p in verts.tolist()]
    lines += ["vn %.9g %.9g %.9g" % tuple(n) for n in normals.tolist()]
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b, c = a + 1, a + nv
            d = c + 1
            lines.append("f %d//%d %d//%d %d//%d" % (a, a, b, b, d, d))
            lines.append("f %d//%d %d//%d %d//%d" % (a, a, d, d, c, c))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("nu, nv", [(2, 2), (2, 17), (17, 2), (31, 29), (101, 100)])
def test_obj_text_matches_per_line_writer(nu, nv):
    rng = np.random.default_rng(nu * 1000 + nv)
    verts = rng.normal(size=(nu * nv, 3)) * 10.0 ** rng.integers(-5, 6, size=(nu * nv, 1))
    normals = rng.normal(size=(nu * nv, 3))
    assert (_joined(meshio._obj_chunks(verts, normals, nu, nv))
            == _per_line_obj(verts, normals, nu, nv))


_CSV_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 2.5e20]),
    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _float_grids(draw):
    """2-D float arrays built from repeated rows, so NaN patterns come in runs."""
    k = draw(st.integers(0, 6))
    runs = draw(st.lists(st.tuples(st.lists(_CSV_FLOATS, min_size=k, max_size=k),
                                   st.integers(1, 4)), max_size=8))
    rows = [row for row, count in runs for _ in range(count)]
    return np.array(rows, dtype=float).reshape(len(rows), k)


@settings(max_examples=200, deadline=None)
@given(rows=_float_grids())
def test_write_csv_float_array_matches_per_cell_writer(rows):
    header = [f"c{i}" for i in range(rows.shape[1])]
    expected = _per_cell_csv(header, rows.tolist())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, header, rows)
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == expected


_LABELS = st.sampled_from(["50%", "%s", "", "True", "False", "as_given", "swapped"])


@st.composite
def _labelled_tables(draw):
    """(rows, column, cells, vector): a _float_grids array, as drawn or
    repeated to one chunk of the numpy path less one row, one chunk or one
    chunk plus one; a label column at index 0 or at the end, one cell per
    row in runs; and the path to force."""
    rows = draw(_float_grids())
    k = rows.shape[1]
    if len(rows) and draw(st.booleans()):
        chunk = max(1, meshio._CSV_CHUNK_CELLS // (k + 1))
        rows = np.resize(rows, (chunk + draw(st.sampled_from([-1, 0, 1])), k))
    cells = []
    while len(cells) < len(rows):
        cells += [draw(_LABELS)] * draw(st.integers(1, 40))
    return rows, draw(st.sampled_from([0, k])), cells[:len(rows)], draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(table=_labelled_tables())
@example(table=(np.zeros((0, 3)), 0, [], True))
@example(table=(np.zeros((0, 3)), 3, [], False))
def test_write_csv_label_column_matches_per_cell_writer(table):
    """A float array with a label column is the per-cell text on the numpy
    path (meshio._VECTOR_MIN_CELLS = 0) and on the "%" blocks (above the
    table's size), the table of no rows included."""
    rows, column, cells, vector = table
    header = [f"c{i}" for i in range(rows.shape[1] + 1)]
    expected = _per_cell_csv(header, _with_label(rows, column, cells))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(meshio, "_VECTOR_MIN_CELLS", 0 if vector else rows.size + 1)
        path = os.path.join(tmp, "rows.csv")
        write_csv(path, header, rows, label=(column, cells))
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == expected


def _wide_floats(rng, shape, nan_every):
    """Floats over 40 decades, with -0.0, infinities and NaN cells spread
    inside every chunk."""
    rows = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
    flat = rows.reshape(-1)
    flat[rng.integers(0, flat.size, size=8)] = [0.0, -0.0, math.inf, -math.inf, 1e-300, 2.5e20, 1.0, -1e21]
    flat[3::nan_every] = math.nan
    return rows


def _csv_text(tmp_path, monkeypatch, header, rows, min_cells) -> str:
    """write_csv's text of rows with meshio._VECTOR_MIN_CELLS set to
    min_cells: 0 puts a float array on the numpy path, more than its size
    on the "%" blocks."""
    monkeypatch.setattr(meshio, "_VECTOR_MIN_CELLS", min_cells)
    path = tmp_path / "paths.csv"
    write_csv(path, header, rows)
    return path.read_text()


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("k", [1, 9])
def test_write_csv_vector_path_matches_per_cell_writer(tmp_path, monkeypatch, k, extra):
    """Row counts of one chunk less one, one chunk and one chunk plus one."""
    rows = _wide_floats(np.random.default_rng(k * 10 + extra),
                        (max(1, meshio._CSV_CHUNK_CELLS // k) + extra, k), 17)
    crossover = meshio._VECTOR_MIN_CELLS
    assert rows.size >= crossover
    header = [f"c{i}" for i in range(k)]
    expected = _per_cell_csv(header, rows.tolist())
    assert _csv_text(tmp_path, monkeypatch, header, rows, 0) == expected
    assert _csv_text(tmp_path, monkeypatch, header, rows, crossover) == expected


def test_write_csv_vector_path_all_nan_rows_and_many_chunks(tmp_path):
    rows = _wide_floats(np.random.default_rng(11), (1000, 9), 5)
    rows[100:130] = math.nan
    rows[:, 4] = math.nan
    header = [f"c{i}" for i in range(9)]
    path = tmp_path / "rows.csv"
    write_csv(path, header, rows)
    assert path.read_text() == _per_cell_csv(header, rows.tolist())


@pytest.mark.parametrize("base", [RIEMANN_EXAMPLE, ROTATIONAL, CYCLIC, RIEMANN_TYPE],
                         ids=["riemann-example", "rotational-lw", "cyclic", "riemann-type"])
def test_analyze_grid_csv_paths_agree(tmp_path, monkeypatch, base):
    """The 32 x 32 analyze array of each fine-grid scene kind, written by
    the "%" blocks and by numpy."""
    tables = []
    monkeypatch.setattr(cli, "write_csv", lambda path, header, rows: tables.append((header, rows)))
    path = write_config(tmp_path, {**base, "relation": base.get("relation", [-1.0, 0.0])})
    assert main(["analyze", "--config", path, "--out", str(tmp_path / "out"),
                 "--grid", "32x32"]) == 0
    (header, rows), = tables
    assert rows.shape == (32 * 32, 9)
    text = _csv_text(tmp_path, monkeypatch, header, rows, 0)
    assert text == _csv_text(tmp_path, monkeypatch, header, rows, rows.size + 1)
    assert text == _per_cell_csv(header, rows.tolist())


def test_obj_and_csv_switch_path_at_one_cell_count(tmp_path, monkeypatch):
    """One crossover, meshio._VECTOR_MIN_CELLS = 768, picks "%" or numpy for
    OBJ sections and CSV arrays alike, and an OBJ's faces always take numpy:
    a 15 x 17 OBJ (255 vertices, 765 cells) formats its sections with no
    numpy kernel and its faces with _face_tokens, a 16 x 16 OBJ both
    sections with _g_slots and its faces with _face_tokens, 767-cell CSVs
    call no numpy kernel and 768-cell CSVs call _g_slots once.  Every file
    is the per-line or per-cell text."""
    calls = []
    for name in ("_g_slots", "_face_tokens"):
        real = getattr(meshio, name)
        monkeypatch.setattr(meshio, name,
                            lambda *args, real=real, name=name: calls.append(name) or real(*args))
    assert meshio._VECTOR_MIN_CELLS == 768
    torus = build_scene(load_config(write_config(tmp_path, TORUS))).surface
    path = tmp_path / "mesh.obj"
    for nu, nv, expected in [(15, 17, ["_face_tokens"]),
                             (16, 16, ["_g_slots", "_g_slots", "_face_tokens"])]:
        calls.clear()
        meshio.write_obj(path, torus, nu, nv)
        assert calls == expected
        assert path.read_text() == _per_line_obj(*meshio.surface_mesh(torus, nu, nv), nu, nv)
    rng = np.random.default_rng(768)
    path = tmp_path / "rows.csv"
    for shape, expected in [((767, 1), []), ((59, 13), []),
                            ((768, 1), ["_g_slots"]), ((64, 12), ["_g_slots"])]:
        rows = _wide_floats(rng, shape, 17)
        header = [f"c{i}" for i in range(shape[1])]
        calls.clear()
        write_csv(path, header, rows)
        assert calls == expected
        assert path.read_text() == _per_cell_csv(header, rows.tolist())


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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_files_honour_umask(self, tmp_path, umask, mode):
        path = write_config(tmp_path, SPHERE)
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            assert main(["generate", "--config", path, "--out", str(out)]) == 0
            assert main(["analyze", "--config", path, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {name: stat.S_IMODE(os.stat(out / name).st_mode) for name in os.listdir(out)}
        assert modes == {"ball.obj": mode, "ball.meta.json": mode, "ball.analysis.csv": mode}


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

    @pytest.mark.parametrize("relation, options, j, tail", [
        ([1.5, 0.0], ["--u-list=-0.5,0.0,0.5", "--max-harmonic", "4"], "3", ",-0,-0,,True"),
        ([1.5, 0.4], ["--u-list=-0.5,0.5"], "12", ",0,0,,True"),
    ], ids=["A3-B3", "A12-B12"])
    def test_zero_closed_form_rows(self, tmp_path, relation, options, j, tail):
        """On a centered scene (a = b = 0) the closed form is exactly zero: its
        rows keep the closed form's signed zeros, an empty ratio cell and the
        zero-branch pass."""
        scene = dict(RIEMANN_TYPE, relation=relation, params=dict(
            RIEMANN_TYPE["params"], a=0.0, b=0.0, r="1 + 0.2*sin(u)"))
        out = tmp_path / "out"
        assert main(["harmonics", "--config", write_config(tmp_path, scene),
                     "--out", str(out), *options]) == 0
        lines = (out / "rt.harmonics.csv").read_text().splitlines()[1:]
        checked = [line for line in lines if line.split(",")[1] == j]
        assert len(checked) == options[0].count(",") + 1
        assert all(line.endswith(tail) for line in checked), checked

    def test_requires_relation(self, tmp_path, capsys):
        path = write_config(tmp_path, CATENOID)
        assert main(["harmonics", "--config", path, "--out", str(tmp_path)]) == 1
        assert "relation" in capsys.readouterr().err


def test_grid_on_range_shorter_than_fd_inset(tmp_path, capsys):
    """A profile that reaches the axis at s = 3.7e-7 leaves a u-range far
    shorter than the 4 _fd_step inset of interior_grid: the grid commands
    still run on it, and fit finds the relation."""
    short = dict(ROTATIONAL, name="tiny",
                 params={"rho0": 1e-7, "theta0": 0.3, "s_range": [0.0, 5.0]})
    path, out = write_config(tmp_path, short), tmp_path / "out"
    for command in ("generate", "analyze", "fit"):
        assert main([command, "--config", path, "--out", str(out)]) == 0, command
    assert capsys.readouterr().err == ""
    assert json.loads((out / "tiny.meta.json").read_text())["truncated"] is True
    assert "verdict: rotational LW surface" in (out / "tiny.report.txt").read_text()


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

    def test_tilted_cylinder_rotational(self, tmp_path):
        # a unit cylinder whose axis is tilted by 1e-9: the curvatures do
        # not depend on v, so no center drift may make it a counterexample
        # to the classification
        tilted = {"kind": "riemann-type", "name": "tilt", "relation": [1.5, 1.0],
                  "params": {"a": "1e-9*u", "b": "0", "r": "1", "u_range": [-1.0, 1.0]}}
        out = tmp_path / "out"
        assert main(["fit", "--config", write_config(tmp_path, tilted),
                     "--out", str(out)]) == 0
        text = (out / "tilt.report.txt").read_text()
        assert "rotational: True" in text
        assert "verdict: rotational LW surface" in text

    def test_drifting_center_not_rotational(self, tmp_path):
        # the benchmark workloads' riemann-type drift: a linear term plus a wave
        drift = dict(RIEMANN_TYPE, params={
            "a": "0.3*u + 0.1*sin(2.5*u)", "b": "0.1*u + 0.1*cos(2.5*u)",
            "r": "1.4 + 0.05*sin(u)", "u_range": [-0.6, 0.6]})
        out = tmp_path / "out"
        assert main(["fit", "--config", write_config(tmp_path, drift),
                     "--out", str(out)]) == 0
        text = (out / "rt.report.txt").read_text()
        assert "rotational: False" in text
        assert "verdict: not LW of Riemann-type" in text


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


# Run in a fresh interpreter: in this one, other tests have imported scipy.
_COLD_START = """
import sys
import wlab.cli
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, f"import wlab.cli loaded {loaded[:3]}"
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    code = wlab.cli.main(["generate", "--config", config, "--out", out])
    assert code == 0, f"{config}: exit {code}"
"""


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_cold_start_writes_the_warm_bytes(tmp_path):
    """import wlab.cli leaves scipy unloaded, and a fresh interpreter's
    riemann-example and rotational-lw generate runs exit 0 and write the
    bytes the same runs write in this interpreter."""
    configs = [write_config(tmp_path, base, f"{base['name']}.json")
               for base in (RIEMANN_EXAMPLE, ROTATIONAL)]
    argv = []
    for config in configs:
        name = os.path.basename(config)
        argv += [config, str(tmp_path / "cold" / name)]
        assert main(["generate", "--config", config,
                     "--out", str(tmp_path / "warm" / name)]) == 0
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    cold, warm = _tree_bytes(tmp_path / "cold"), _tree_bytes(tmp_path / "warm")
    assert len(cold) >= 2 and cold == warm


@pytest.mark.parametrize("base", [ROTATIONAL, RIEMANN_EXAMPLE],
                         ids=["rotational-lw", "riemann-example"])
def test_job_loads_no_scipy(tmp_path, base):
    """A rotational-lw profile comes from its first integral and a Riemann
    example from numpy elliptic functions: a fresh interpreter runs their
    analyze without loading scipy."""
    config = write_config(tmp_path, base)
    script = (
        "import sys, wlab.cli\n"
        "code = wlab.cli.main(['analyze', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "loaded = sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "print(code, loaded[:3])\n")
    proc = subprocess.run([sys.executable, "-c", script, config, str(tmp_path / "out")],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.stdout == "0 []\n", proc.stderr

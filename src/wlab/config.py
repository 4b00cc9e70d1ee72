"""Scene configuration: schema validation and canonical serialization.

Configs are JSON files.  The canonical form (sorted keys, two-space
indentation, trailing newline) is what cmd_generate writes into metadata,
so round trips are byte-exact.
"""
from __future__ import annotations

import ast
import copy
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .functions import SmoothFunction

KINDS = ("fixture", "cyclic", "riemann-type", "riemann-example", "rotational-lw")
FIXTURE_SHAPES = ("sphere", "cylinder", "torus", "catenoid")
# the most (u, v) points one job evaluates; analyze peaks near 1 GB at 2**20
MAX_POINTS = 2 ** 22

_EXPR_FUNCTIONS = {name: getattr(np, name) for name in
                   ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log",
                    "sqrt", "arctan", "arcsin", "arccos", "abs")}
_EXPR_NAMES = {**_EXPR_FUNCTIONS, "pi": np.pi}
_UNARY_OPS = (ast.UAdd, ast.USub)
_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _in_grammar(node, too_big: list) -> bool:
    """True when the expression tree only holds int/float constants, the
    names u and pi, unary + and -, binary + - * / ** and positional calls
    of the _EXPR_FUNCTIONS.  On the way every constant becomes a float, so
    that 9**9**9 overflows at once instead of building a huge integer; the
    OverflowError of an int beyond float range goes to too_big, because a
    tree outside the grammar is reported as such first."""
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):
            return False
        try:
            node.value = float(node.value)
        except OverflowError as exc:
            too_big.append(exc)
        return True
    if isinstance(node, ast.Name):
        return node.id in ("u", "pi")
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, _UNARY_OPS) and _in_grammar(node.operand, too_big)
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, _BINARY_OPS) and _in_grammar(node.left, too_big)
                and _in_grammar(node.right, too_big))
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCTIONS
                and not node.keywords and all(_in_grammar(a, too_big) for a in node.args))
    return False


def parse_scalar_function(spec, where: str, test_u: float = 0.5):
    """A number becomes a constant, whose derivatives are exactly 0; a
    string is an arithmetic expression in u (see _in_grammar), which
    evaluates elementwise on an array u."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        if not _finite(spec):
            raise ConfigError(f"{where}: expected a finite number, got {spec!r}")
        return SmoothFunction.constant(spec)
    if isinstance(spec, str):
        try:
            tree = ast.parse(spec, filename=f"<{where}>", mode="eval")
            code, too_big = None, []
            if _in_grammar(tree.body, too_big):
                if too_big:
                    raise too_big[0]
                code = compile(tree, f"<{where}>", "eval")
        except (SyntaxError, ValueError, RecursionError, OverflowError) as exc:
            raise ConfigError(f"{where}: invalid expression {spec!r}: {exc}") from None
        if code is None:
            raise ConfigError(f"{where}: expression {spec!r} is not arithmetic in u "
                              f"(numbers, u, pi, + - * / **, "
                              f"{', '.join(_EXPR_FUNCTIONS)})")

        def fn(u):
            value = eval(code, {"__builtins__": {}}, {**_EXPR_NAMES, "u": u})
            return float(value) if np.ndim(u) == 0 else value

        try:
            fn(test_u)
        except Exception as exc:
            raise ConfigError(f"{where}: expression {spec!r} failed to evaluate: {exc}")
        return fn
    raise ConfigError(f"{where}: expected a number or expression string, got "
                      f"{type(spec).__name__}")


def _require(params: dict, keys, where: str):
    missing = [k for k in keys if k not in params]
    if missing:
        raise ConfigError(f"{where}: missing required key(s) {', '.join(missing)}")


def _finite(x) -> bool:
    # exact for ints, so one beyond float range fails instead of overflowing
    return (not isinstance(x, bool) and isinstance(x, (int, float))
            and abs(x) <= sys.float_info.max)


def _number(params: dict, key: str, where: str) -> float:
    val = params[key]
    if not _finite(val):
        raise ConfigError(f"{where}.{key}: expected a finite number, got {val!r}")
    return float(val)


def _pair(params: dict, key: str, where: str):
    val = params.get(key)
    if not isinstance(val, (list, tuple)) or len(val) != 2 or not all(map(_finite, val)):
        raise ConfigError(f"{where}.{key}: expected a pair of finite numbers, got {val!r}")
    return float(val[0]), float(val[1])


def _increasing(params: dict, key: str, where: str):
    lo, hi = _pair(params, key, where)
    if not lo < hi:
        raise ConfigError(f"{where}.{key}: expected {key}[0] < {key}[1], got {[lo, hi]}")
    return lo, hi


def _check_grid(grid) -> None:
    nu, nv = grid
    if not all(isinstance(n, int) and 2 <= n <= sys.maxsize for n in (nu, nv)):
        raise ConfigError(f"grid: nu, nv must be integers >= 2, got {grid}")
    if nu * nv > MAX_POINTS:
        raise ConfigError(f"grid: nu * nv = {nu * nv} above {MAX_POINTS} points")


@dataclass
class SceneConfig:
    """A validated scene.  args holds its builder arguments, checked and
    converted once and keyed by the builders' parameter names; expressions
    are parsed once and test-evaluated at the middle of u_range.
    build_scene reads only args, to_dict only params."""

    kind: str
    params: dict = field(default_factory=dict)
    grid: tuple = (32, 32)
    relation: Optional[tuple] = None
    name: str = "surface"
    args: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind: {self.kind!r} not one of {', '.join(KINDS)}")
        _check_grid(self.grid)
        if self.relation is not None:
            m, n = self.relation
            if not (_finite(m) and _finite(n)):
                raise ConfigError(f"relation: expected finite [m, n], got {[m, n]}")
            if m == 0:
                raise ConfigError("relation.m: violates the m != 0 constraint")
            self.relation = (float(m), float(n))
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("name: must be a non-empty string")
        # the name is a file name inside --out, never a path
        if any(c and c in self.name for c in ("/", os.sep, os.altsep, "\0")):
            raise ConfigError(f"name: must not contain a path separator or NUL, "
                              f"got {self.name!r}")
        self.args = self._validate_params()

    def with_grid(self, grid) -> "SceneConfig":
        """This scene on another grid, without parsing its expressions again."""
        _check_grid(grid)
        cfg = copy.copy(self)
        cfg.grid = grid
        return cfg

    def _parse(self, keys, where: str, u_range) -> dict:
        mid = 0.5 * (u_range[0] + u_range[1])
        return {key: parse_scalar_function(self.params[key], f"{where}.{key}",
                                           test_u=mid)
                for key in keys}

    def _validate_params(self) -> dict:
        p, kind = self.params, self.kind
        where = f"params[{kind}]"
        if kind == "fixture":
            _require(p, ["shape"], where)
            if p["shape"] not in FIXTURE_SHAPES:
                raise ConfigError(f"{where}.shape: {p['shape']!r} not one of "
                                  f"{', '.join(FIXTURE_SHAPES)}")
            keys = (["radius_major", "radius_minor"] if p["shape"] == "torus"
                    else ["radius"])
            _require(p, keys, where)
            return {"kind": p["shape"], **{k: _number(p, k, where) for k in keys}}
        if kind == "riemann-type":
            _require(p, ["a", "b", "r", "u_range"], where)
            u_range = _increasing(p, "u_range", where)
            return {**self._parse(("a", "b", "r"), where, u_range), "u_range": u_range}
        if kind == "riemann-example":
            _require(p, ["lambda", "mu", "r0"], where)
            args = {"lam": _number(p, "lambda", where), "mu": _number(p, "mu", where),
                    "r0": _number(p, "r0", where)}
            if "dr0" in p:
                args["dr0"] = _number(p, "dr0", where)
            if "u_range" in p:
                args["u_range"] = _pair(p, "u_range", where)
            return args
        if kind == "rotational-lw":
            _require(p, ["rho0", "theta0", "s_range"], where)
            args = {key: _number(p, key, where) for key in ("rho0", "theta0")}
            args["s_range"] = _pair(p, "s_range", where)
            if self.relation is None:
                raise ConfigError("relation: required for rotational-lw scenes")
            return args
        # cyclic
        _require(p, ["kappa", "sigma", "alpha", "beta", "gamma", "r",
                     "u_range"], where)
        u_range = _increasing(p, "u_range", where)
        return {**self._parse(("kappa", "sigma", "alpha", "beta", "gamma", "r"), where,
                              u_range), "u_range": u_range}

    @classmethod
    def from_dict(cls, d: dict) -> "SceneConfig":
        if not isinstance(d, dict):
            raise ConfigError("config root must be an object")
        unknown = set(d) - {"kind", "params", "grid", "relation", "name"}
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
        if "kind" not in d:
            raise ConfigError("kind: required")
        grid = d.get("grid", [32, 32])
        if (not isinstance(grid, (list, tuple)) or len(grid) != 2):
            raise ConfigError(f"grid: expected [nu, nv], got {grid!r}")
        relation = d.get("relation")
        if relation is not None and (
                not isinstance(relation, (list, tuple)) or len(relation) != 2 or
                any(isinstance(x, bool) or not isinstance(x, (int, float))
                    for x in relation)):
            raise ConfigError(f"relation: expected [m, n], got {relation!r}")
        params = d.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params: must be an object")
        return cls(kind=d["kind"], params=params,
                   grid=(grid[0], grid[1]), relation=relation,
                   name=d.get("name", "surface"))

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "params": self.params,
             "grid": [self.grid[0], self.grid[1]], "name": self.name}
        if self.relation is not None:
            d["relation"] = [self.relation[0], self.relation[1]]
        return d


def canonical_dumps(obj: dict) -> str:
    """The JSON text wlab writes: indented by 2, keys sorted, one final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def load_config(path) -> SceneConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # too many digits, too deep, not UTF-8
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return SceneConfig.from_dict(data)

"""Scene configuration: schema validation and canonical serialization.

Configs are JSON files.  The canonical form (sorted keys, two-space
indentation, trailing newline) is what cmd_generate writes into metadata,
so round trips are byte-exact.
"""
from __future__ import annotations

import ast
import copy
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError

KINDS = ("fixture", "cyclic", "riemann-type", "riemann-example", "rotational-lw")
FIXTURE_SHAPES = ("sphere", "cylinder", "torus", "catenoid")

_EXPR_FUNCTIONS = {name: getattr(np, name) for name in
                   ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log",
                    "sqrt", "arctan", "arcsin", "arccos", "abs")}
_EXPR_NAMES = {**_EXPR_FUNCTIONS, "pi": np.pi}
_UNARY_OPS = (ast.UAdd, ast.USub)
_BINARY_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _in_grammar(node) -> bool:
    """True when the expression tree only holds int/float constants, the
    names u and pi, unary + and -, binary + - * / ** and positional calls
    of the _EXPR_FUNCTIONS."""
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Name):
        return node.id in ("u", "pi")
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, _UNARY_OPS) and _in_grammar(node.operand)
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, _BINARY_OPS) and _in_grammar(node.left)
                and _in_grammar(node.right))
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id in _EXPR_FUNCTIONS
                and not node.keywords and all(map(_in_grammar, node.args)))
    return False


def parse_scalar_function(spec, where: str, test_u: float = 0.5):
    """A number becomes a constant; a string is an arithmetic expression in
    u (see _in_grammar), which evaluates elementwise on an array u."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        value = float(spec)
        return lambda u: value
    if isinstance(spec, str):
        try:
            tree = ast.parse(spec, filename=f"<{where}>", mode="eval")
            code = None
            if _in_grammar(tree.body):
                # float constants: 9**9**9 overflows at once instead of
                # building a huge integer
                for node in ast.walk(tree):
                    if isinstance(node, ast.Constant):
                        node.value = float(node.value)
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
    return (not isinstance(x, bool) and isinstance(x, (int, float))
            and math.isfinite(x))


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
    if not (isinstance(nu, int) and isinstance(nv, int) and nu >= 2 and nv >= 2):
        raise ConfigError(f"grid: nu, nv must be integers >= 2, got {grid}")


@dataclass
class SceneConfig:
    """A validated scene.  functions holds the parsed riemann-type or cyclic
    expressions by key, each parsed once and test-evaluated at the middle of
    u_range; build_scene uses them."""

    kind: str
    params: dict = field(default_factory=dict)
    grid: tuple = (32, 32)
    relation: Optional[tuple] = None
    name: str = "surface"
    functions: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind: {self.kind!r} not one of {', '.join(KINDS)}")
        _check_grid(self.grid)
        if self.relation is not None:
            m, n = self.relation
            if m == 0:
                raise ConfigError("relation.m: violates the m != 0 constraint")
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("name: must be a non-empty string")
        self._validate_params()

    def with_grid(self, grid) -> "SceneConfig":
        """This scene on another grid, without parsing its expressions again."""
        _check_grid(grid)
        cfg = copy.copy(self)
        cfg.grid = grid
        return cfg

    def _parse(self, keys, where: str, u_range) -> None:
        mid = 0.5 * (u_range[0] + u_range[1])
        self.functions = {key: parse_scalar_function(self.params[key], f"{where}.{key}",
                                                     test_u=mid)
                          for key in keys}

    def _validate_params(self):
        p, kind = self.params, self.kind
        where = f"params[{kind}]"
        if kind == "fixture":
            _require(p, ["shape"], where)
            if p["shape"] not in FIXTURE_SHAPES:
                raise ConfigError(f"{where}.shape: {p['shape']!r} not one of "
                                  f"{', '.join(FIXTURE_SHAPES)}")
            if p["shape"] == "torus":
                _require(p, ["radius_major", "radius_minor"], where)
                _number(p, "radius_major", where)
                _number(p, "radius_minor", where)
            else:
                _require(p, ["radius"], where)
                _number(p, "radius", where)
        elif kind == "riemann-type":
            _require(p, ["a", "b", "r", "u_range"], where)
            self._parse(("a", "b", "r"), where, _increasing(p, "u_range", where))
        elif kind == "riemann-example":
            _require(p, ["lambda", "mu", "r0"], where)
            for key in ("lambda", "mu", "r0"):
                _number(p, key, where)
            if "dr0" in p:
                _number(p, "dr0", where)
            if "u_range" in p:
                _pair(p, "u_range", where)
        elif kind == "rotational-lw":
            _require(p, ["rho0", "theta0", "s_range"], where)
            _number(p, "rho0", where)
            _number(p, "theta0", where)
            _pair(p, "s_range", where)
            if self.relation is None:
                raise ConfigError("relation: required for rotational-lw scenes")
        elif kind == "cyclic":
            _require(p, ["kappa", "sigma", "alpha", "beta", "gamma", "r",
                         "u_range"], where)
            self._parse(("kappa", "sigma", "alpha", "beta", "gamma", "r"), where,
                        _increasing(p, "u_range", where))

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
        if relation is not None:
            if (not isinstance(relation, (list, tuple)) or len(relation) != 2 or
                    any(isinstance(x, bool) or not isinstance(x, (int, float))
                        for x in relation)):
                raise ConfigError(f"relation: expected [m, n], got {relation!r}")
            relation = (float(relation[0]), float(relation[1]))
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


def canonical_dumps(cfg: SceneConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n"


def load_config(path) -> SceneConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return SceneConfig.from_dict(data)

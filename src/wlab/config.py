"""Scene configuration: schema validation, expressions and canonical JSON.

Configs are JSON files; an expression in u is checked and evaluated as a
tree, never compiled.  The canonical form (sorted keys, indent 2, a final
newline) that cmd_generate writes into metadata makes round trips byte-exact.
"""
from __future__ import annotations

import ast
import copy
import json
import operator
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .functions import SmoothFunction
from .surface import LWRelation

KINDS = ("fixture", "cyclic", "riemann-type", "riemann-example", "rotational-lw")
FIXTURE_SHAPES = ("sphere", "cylinder", "torus", "catenoid")
# the most (u, v) points one job evaluates; at this cap, on a riemann-type scene,
# `wlab harmonics --max-harmonic 2000000` peaks (VmHWM) at 1.32 GB in 7-9 s of CPU,
# `wlab analyze` at 1.39 GB in 8-10 s (367 MB at 2**20), and `wlab export`, which
# evaluates the 1-jet only, at 561 MB in 4-5.4 s (tools/point_cap.py)
MAX_POINTS = 2 ** 22

_EXPR_FUNCTIONS = {name: getattr(np, name) for name in
                   ("sin", "cos", "tan", "sinh", "cosh", "tanh", "exp", "log",
                    "sqrt", "arctan", "arcsin", "arccos", "abs")}
_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Add: operator.add,
        ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
        ast.Pow: operator.pow}


def _closure(node, too_big: list):
    """The function of u that tree node computes, as closures applying CPython's
    operations in its order; None for a tree of more than int/float constants,
    u, pi, unary + -, binary + - * / ** and positional calls of _EXPR_FUNCTIONS."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            value = float(node.value)   # so that 9**9**9 overflows at once
        except OverflowError as exc:    # raised once the whole tree is in the grammar
            too_big.append(exc)
        return lambda u: value
    if isinstance(node, ast.Name):
        return {"u": lambda u: u, "pi": lambda u: np.pi}.get(node.id)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _OPS:
        op, a = _OPS[type(node.op)], _closure(node.operand, too_big)
        return a and (lambda u: op(a(u)))
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        op, a = _OPS[type(node.op)], _closure(node.left, too_big)
        b = a and _closure(node.right, too_big)
        return b and (lambda u: op(a(u), b(u)))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCTIONS and not node.keywords):
        f, args = _EXPR_FUNCTIONS[node.func.id], []
        for arg in node.args:   # up to the first argument outside the grammar
            args.append(_closure(arg, too_big))
            if args[-1] is None:
                return None
        return lambda u: f(*[a(u) for a in args])
    return None


def parse_scalar_function(spec, where: str, test_u: float = 0.5):
    """A number is a constant, whose derivatives are exactly 0; a string is
    closures (_closure) elementwise in u: no Python code is compiled or run."""
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        if not _finite(spec):
            raise ConfigError(f"{where}: expected a finite number, got {spec!r}")
        return SmoothFunction.constant(spec)
    if isinstance(spec, str):
        shown = repr(spec) if len(spec) <= 80 else f"{spec[:60]!r}... ({len(spec)} characters)"
        try:
            too_big = []
            root = _closure(ast.parse(spec, filename=f"<{where}>", mode="eval").body, too_big)
            if root is not None and too_big:
                raise too_big[0]
        except (SyntaxError, ValueError, RecursionError, OverflowError, MemoryError) as exc:
            raise ConfigError(f"{where}: invalid expression {shown}: "
                              f"{str(exc) or 'too deeply nested for the parser'}") from None
        if root is None:
            raise ConfigError(f"{where}: expression {shown} is not arithmetic in u "
                              f"(numbers, u, pi, + - * / **, "
                              f"{', '.join(_EXPR_FUNCTIONS)})")

        def fn(u):
            try:
                return root(u)
            except RecursionError:  # a frame per level, deeper in the stack than the walk
                raise NumericalError(f"{where}: expression {shown} nests too deeply") from None

        try:
            with np.errstate(all="ignore"):     # a non-finite value fails where it is used
                float(fn(test_u))               # and a complex one here
        except Exception as exc:
            raise ConfigError(f"{where}: expression {shown} failed to evaluate: {exc}")
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
    are parsed once and test-evaluated at the middle of u_range.  relation
    is given as a pair [m, n] and held as an LWRelation once checked.
    build_scene reads args, not params; to_dict params, not args."""

    kind: str
    params: dict = field(default_factory=dict)
    grid: tuple = (32, 32)
    relation: Optional[LWRelation] = None
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
            self.relation = LWRelation(float(m), float(n))
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
            d["relation"] = [self.relation.m, self.relation.n]
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

#!/usr/bin/env python3
"""Fuzz the wlab command line with mutated scene configs.

    python3 tools/fuzz.py [--seed S] [--cases N]

Draws N cases (default 500) from the hypothesis strategy cases() at seed S
(default 0) and runs each through this checkout's wlab.cli.main, in this
interpreter, for one command, with its outputs in a new temporary
directory.  A case is a valid config of one scene kind, made by
bench/workloads.py's scene builders on a grid of at most 10 x 10, with at
most one mutation:

* number: a number becomes an extreme, a negative, a bool or a string;
* expression: an expression (a number, for kinds without one) becomes a
  hostile one: attribute access, names outside the grammar, huge literals,
  chains of 900-1,000 unary -, unary +, binary + or **, or calls nested up
  to the parser's limit of 200 parentheses;
* key: a key of params or of the config is dropped, duplicated (the JSON
  text holds it twice, the second time with another value) or misspelled;
* range: a pair, a u_range or s_range of params (the relation for a kind
  without one), becomes (-x, x) with x from 1e307 to the float max, so
  that its span may or may not overflow;
* grid: the grid, in the config or as --grid, has more points than
  config.MAX_POINTS (never exactly that many: such a job would run for
  7-10 s), or is not a pair of integers >= 2.

run_case checks the contract every case must keep: the exit code is 0, 1
or 2 and no exception escapes; on exit 1 or 2 stderr is one line that
starts with "wlab: ", and on exit 0 it is empty; no warning is raised (a
warning is more stderr, and numpy's mark a value that overflowed, which
must fail as one line, not reach the outputs); no .wlab-*.tmp file is
left; a config error writes no output file; and the case takes at most
CPU_BOUND seconds of CPU.  Prints one JSON object: the number of cases per
exit code and per mutation kind, the slowest case, the slowest case
without a mutation, and each case that broke the contract with what it
broke.  Exits 0 when none did.  tests/test_cli_fuzz.py runs
the same strategy at a fixed seed.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import glob
import io
import json
import math
import os
import random
import sys
import tempfile
import time
import warnings

from hypothesis import HealthCheck, Phase, given, seed, settings, strategies as st

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from wlab import cli, config  # noqa: E402

# Per case on a 2-vCPU virtual machine, in 117,000 cases at seeds 0-3: the
# slowest valid case took 0.28 s of CPU (a rotational-lw analyze; 0.062 s in
# most runs), the slowest of all 0.45 s (a cyclic export whose r is a chain
# of 900 **).  A job at the point cap would take 7-10 s.
CPU_BOUND = 2.0
COMMANDS = workloads.COMMANDS
MUTATIONS = ("none", "number", "expression", "key", "range", "grid")

_BUILDERS = {
    "fixture": lambda rng, grid, flag: workloads.fixture_scene(
        rng, "fz", grid, rng.choice(workloads.SHAPES)),
    "riemann-example": lambda rng, grid, flag: workloads.riemann_example_scene(
        rng, "fz", grid, flag, rotational=rng.random() < 0.25),
    "rotational-lw": lambda rng, grid, flag: workloads.rotational_scene(rng, "fz", grid, flag),
    "cyclic": lambda rng, grid, flag: workloads.cyclic_scene(rng, "fz", grid, n_zero=flag),
    "riemann-type": lambda rng, grid, flag: workloads.riemann_type_scene(
        rng, "fz", grid, n_zero=flag),
}
_EXTREMES = (1e308, -1e308, 5e-324, 1e-300, 0.0, -0.0, 2 ** 63, 10 ** 400, -10 ** 400,
             math.inf, -math.inf, math.nan)
_FIXED_HOSTILE = workloads.HOSTILE_EXPRESSIONS + (
    "u.real + 1", "__import__('os').getcwd()", "open('x')", "x + u", "np.sin(u)",
    "sum([u, u])", "(lambda: u)()", "u if u else 1", "u // 2", "sin(u, out=None)",
    "1" + "0" * 400 + " * u", "1e999 * u", "9**9**9 + u", "-" + "9" * 5000 + " + u",
    "exp(1e308) * u")
_CHAINS = {"unary -": lambda d: "-" * d + "u", "unary +": lambda d: "+" * d + "u",
           "binary +": lambda d: "+".join(["u"] * d), "**": lambda d: "**".join(["u"] * d)}


@dataclasses.dataclass(frozen=True)
class Case:
    kind: str           # scene kind
    mutation: str       # one of MUTATIONS
    detail: str         # what the mutation did, short
    command: str
    text: str           # the config file
    extra: tuple = ()   # more arguments, after --config and --out


def _number_paths(cfg: dict) -> list:
    """(name, container, key) of every number of the relation and params."""
    paths = [(f"relation[{i}]", cfg["relation"], i) for i in range(2)]
    for key, value in cfg["params"].items():
        if isinstance(value, list):
            paths += [(f"{key}[{i}]", value, i) for i in range(len(value))]
        elif isinstance(value, (int, float)):
            paths.append((key, cfg["params"], key))
    return paths


def _hostile(draw) -> tuple:
    """(expression, detail) of a hostile shape."""
    shape = draw(st.sampled_from(("fixed", "chain", "calls")))
    if shape == "fixed":
        expr = draw(st.sampled_from(_FIXED_HOSTILE))
        return expr, expr if len(expr) <= 60 else f"{expr[:40]}... ({len(expr)} characters)"
    if shape == "chain":
        name, depth = draw(st.sampled_from(sorted(_CHAINS))), draw(st.integers(900, 1000))
        return _CHAINS[name](depth), f"{name} chain of {depth}"
    depth = draw(st.integers(150, 205))
    fn = draw(st.sampled_from(("sin", "exp", "abs", "1.5 + cos")))
    return f"{fn}(" * depth + "u" + ")" * depth, f"{depth} nested {fn}("


def _mutate_number(draw, cfg: dict) -> str:
    name, container, key = draw(st.sampled_from(_number_paths(cfg)))
    old = container[key]
    how = draw(st.sampled_from(("extreme", "negative", "bool", "string")))
    container[key] = {"extreme": lambda: draw(st.sampled_from(_EXTREMES)),
                      "negative": lambda: -abs(old) if old else -1.0,
                      "bool": lambda: draw(st.booleans()),
                      "string": lambda: draw(st.sampled_from((str(old), "", "one")))}[how]()
    return f"{name} = {container[key]!r} ({how})"


def _mutate_expression(draw, cfg: dict) -> str:
    params = cfg["params"]
    slots = [k for k, v in params.items() if isinstance(v, str)] or [
        k for k, v in params.items() if isinstance(v, (int, float))]
    key = draw(st.sampled_from(slots))
    params[key], detail = _hostile(draw)
    return f"{key} = {detail}"


def _mutate_range(draw, cfg: dict) -> str:
    params = cfg["params"]
    pairs = [(k, params) for k, v in params.items() if isinstance(v, list)] or [
        ("relation", cfg)]
    key, container = draw(st.sampled_from(pairs))
    x = draw(st.floats(1e307, sys.float_info.max))
    container[key] = [-x, x]
    return f"{key} = [-{x!r}, {x!r}]"


def _mutate_key(draw, cfg: dict):
    """(detail, config text) with one key dropped, duplicated or misspelled."""
    in_params = draw(st.booleans())
    section = cfg["params"] if in_params else cfg
    key = draw(st.sampled_from(sorted(section)))
    how = draw(st.sampled_from(("drop", "duplicate", "misspell")))
    if how == "drop":
        del section[key]
    elif how == "misspell":
        section[draw(st.sampled_from((key + "_", key.upper(), key[:-1], "_" + key)))] = \
            section.pop(key)
    else:  # JSON keeps the last of two equal keys: the second value is the one read
        value = draw(st.one_of(st.sampled_from(_EXTREMES), st.sampled_from(_FIXED_HOSTILE),
                               st.just(section[key])))
        text = json.dumps(section)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}"
        if in_params:
            text = json.dumps({**cfg, "params": "PARAMS"}).replace('"PARAMS"', text)
        return f"{how} {key}, then {value!r}"[:120], text
    return f"{how} {key}", json.dumps(cfg)


def _mutate_grid(draw, cfg: dict, case_extra: list) -> str:
    how = draw(st.sampled_from(("beyond the cap", "beyond the cap (--grid)", "malformed")))
    if how == "malformed":
        cfg["grid"] = draw(st.sampled_from(([2.5, 4], [True, 4], [1, 4], [-4, 4], "4x4", [4],
                                            [4, 4, 4], [4, None], [2 ** 64, 2])))
        return f"grid = {cfg['grid']!r}"
    nu = draw(st.integers(2, config.MAX_POINTS))
    nv = config.MAX_POINTS // nu + 1          # nu * nv > MAX_POINTS, never equal to it
    if how == "beyond the cap":
        cfg["grid"] = [nu, nv]
    else:
        case_extra += ["--grid", f"{nu}x{nv}"]
    return f"{how}: {nu} x {nv}"


@st.composite
def cases(draw) -> Case:
    """A valid config of a random scene kind with at most one mutation, and
    a command to run on it."""
    kind = draw(st.sampled_from(sorted(_BUILDERS)))
    grid = (draw(st.integers(2, 10)), draw(st.integers(2, 10)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    cfg = json.loads(_BUILDERS[kind](rng, grid, draw(st.booleans())).text)
    mutation, extra = draw(st.sampled_from(MUTATIONS)), []
    text = None
    if mutation == "none":
        detail = "valid"
    elif mutation == "number":
        detail = _mutate_number(draw, cfg)
    elif mutation == "expression":
        detail = _mutate_expression(draw, cfg)
    elif mutation == "key":
        detail, text = _mutate_key(draw, cfg)
    elif mutation == "range":
        detail = _mutate_range(draw, cfg)
    else:
        detail = _mutate_grid(draw, cfg, extra)
    return Case(kind, mutation, detail, draw(st.sampled_from(COMMANDS)),
                text or json.dumps(cfg), tuple(extra))


def run_case(case: Case) -> dict:
    """Runs case through cli.main in a new temporary directory: its exit
    code (None when an exception escaped), CPU seconds, stderr and the list
    of the ways it broke the contract (empty when it kept it)."""
    broken, err = [], io.StringIO()
    with tempfile.TemporaryDirectory(prefix="wlab-fuzz-") as work:
        path, out = os.path.join(work, "scene.json"), os.path.join(work, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.text)
        argv = [case.command, "--config", path, "--out", out, *case.extra]
        start = time.process_time()
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except Exception as exc:  # the contract says none escapes
                code = None
                broken.append(f"{type(exc).__name__} escaped: {str(exc)[:200]}")
        cpu = time.process_time() - start
        stderr = err.getvalue()
        if code not in (0, 1, 2, None):
            broken.append(f"exit code {code!r}")
        if code in (1, 2) and not (stderr.startswith("wlab: ") and stderr.count("\n") == 1
                                   and stderr.endswith("\n")):
            broken.append(f"stderr is not one wlab: line: {stderr[:200]!r}")
        if code == 0 and stderr:
            broken.append(f"stderr on exit 0: {stderr[:200]!r}")
        broken += [f"warning: {w.category.__name__}: {w.message}" for w in caught]
        if glob.glob(os.path.join(work, "**", ".wlab-*.tmp"), recursive=True):
            broken.append("a .wlab-*.tmp file is left")
        if (code == 1 and stderr.startswith("wlab: config error")
                and os.path.isdir(out) and os.listdir(out)):
            broken.append(f"config error after writing {sorted(os.listdir(out))}")
        if cpu > CPU_BOUND:
            broken.append(f"{cpu:.2f} s of CPU, above {CPU_BOUND} s")
    return {"exit": code, "cpu_s": cpu, "stderr": stderr, "broken": broken}


def fuzz(seed_value: int, n_cases: int) -> dict:
    """The report of n_cases cases drawn at seed_value (see the module
    docstring)."""
    by_exit, by_mutation = collections.Counter(), collections.defaultdict(collections.Counter)
    slowest, broken = {}, []

    @seed(seed_value)
    @settings(max_examples=n_cases, database=None, deadline=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck))
    @given(case=cases())
    def drive(case):
        result = run_case(case)
        by_exit[str(result["exit"])] += 1
        by_mutation[case.mutation][str(result["exit"])] += 1
        summary = {"kind": case.kind, "mutation": case.mutation, "detail": case.detail,
                   "command": case.command, "extra": list(case.extra),
                   "exit": result["exit"], "cpu_s": round(result["cpu_s"], 4)}
        for key in ("any", "valid") if case.mutation == "none" else ("any",):
            if key not in slowest or result["cpu_s"] > slowest[key]["cpu_s"]:
                slowest[key] = summary
        if result["broken"]:
            broken.append({**summary, "broken": result["broken"]})

    drive()
    return {"seed": seed_value, "cases": sum(by_exit.values()), "by_exit": dict(by_exit),
            "by_mutation": {k: dict(v) for k, v in sorted(by_mutation.items())},
            "cpu_bound_s": CPU_BOUND, "slowest": slowest.get("any"),
            "slowest_valid": slowest.get("valid"), "broken": broken}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cases", type=int, default=500)
    args = parser.parse_args(argv)
    report = fuzz(args.seed, args.cases)
    print(json.dumps(report, indent=2))
    return 1 if report["broken"] else 0


if __name__ == "__main__":
    sys.exit(main())

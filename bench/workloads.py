"""Seeded workload generator for the wlab benchmark.

Each workload is a list of scenes (a JSON config plus what the mathematics
says about it) and a list of CLI jobs over those scenes.  Every expectation
is derived from the construction, never from running wlab:

* fixtures: a sphere is umbilic; a cylinder (kappa = 1/r, 0) and a catenoid
  (kappa1 = -kappa2) are rotational LW; a torus has one constant principal
  curvature and is not LW;
* riemann-example: minimal, so kappa1 = -kappa2 holds; lambda = mu = 0 is the
  catenoid (rotational), otherwise the center drifts (Riemann example);
* rotational-lw: the generator integrates kappa_meridian = m kappa_parallel + n,
  so the relation holds in one of the two labelings at every point;
* cyclic and riemann-type scenes with non-trivial coefficients are not LW.

Malformed configs must be rejected with exit code 1.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

COMMANDS = ("generate", "analyze", "fit", "harmonics", "export")
HARMONIC_SAMPLES = 64  # samples per circle at J <= 31 (harmonics.DEFAULT_SAMPLES)
WORKLOADS = ("sweep", "fine-grid", "mesh-export")

UMBILIC, ROTATIONAL, RIEMANN, NOT_LW = "umbilic", "rotational", "riemann", "not_lw"

# Attribute-walking expressions: none of them is arithmetic in u, so a
# config containing one must be rejected.  Each evaluates to a positive
# number under a plain eval, which is how a missing sandbox shows up.
HOSTILE_EXPRESSIONS = (
    "().__class__.__mro__.__len__() + 0.5",
    "().__class__.__base__.__subclasses__().__len__() * 0 + 1.5",
    "(1.5).__class__(u) * 0 + 2.0",
)


@dataclass(frozen=True)
class Scene:
    name: str
    kind: str
    text: str                    # config file contents
    expect_exit: int             # 0, or 1 for a malformed config
    grid: tuple = (0, 0)
    relation: tuple | None = None
    lw_known: bool = False       # `relation` holds in one labeling at every point
    verdict: str | None = None
    u_list: tuple = ()           # harmonic circles known to lie in the domain


@dataclass(frozen=True)
class Job:
    scene: Scene
    command: str
    grid: tuple                  # --grid override actually requested
    u_list: tuple = ()
    max_harmonic: int = 12

    def argv(self, config_path: str, out: str) -> list:
        args = [self.command, "--config", config_path, "--out", out,
                "--grid", f"{self.grid[0]}x{self.grid[1]}"]
        if self.command == "harmonics":
            args += ["--u-list=" + ",".join(repr(u) for u in self.u_list),
                     "--max-harmonic", str(self.max_harmonic)]
        return args

    def points(self) -> int:
        """Surface points this job requests (0 for a config that must fail)."""
        if self.scene.expect_exit != 0:
            return 0
        if self.command == "harmonics":
            return HARMONIC_SAMPLES * len(self.u_list)
        return self.grid[0] * self.grid[1]


@dataclass
class Workload:
    name: str
    seed: int
    scenes: list = field(default_factory=list)
    jobs: list = field(default_factory=list)

    def warmup_jobs(self) -> list:
        """One 4x4 job per subcommand on the first riemann-type scene: every
        workload has one, and its cost does not depend on the seed."""
        scene = next(s for s in self.scenes
                     if s.kind == "riemann-type" and s.expect_exit == 0)
        return [Job(scene, cmd, (4, 4), scene.u_list[:1]) for cmd in COMMANDS]


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _signed(rng, lo, hi) -> float:
    return _u(rng, lo, hi) * rng.choice((-1.0, 1.0))


def _spread(lo: float, hi: float, k: int) -> tuple:
    """k circles evenly inside [lo, hi], 10% in from each end."""
    pad = 0.1 * (hi - lo)
    if k == 1:
        return (round(0.5 * (lo + hi), 6),)
    return tuple(round(lo + pad + i * (hi - lo - 2 * pad) / (k - 1), 6)
                 for i in range(k))


def _dump(cfg: dict) -> str:
    return json.dumps(cfg, indent=2, sort_keys=True) + "\n"


def _scene(name, kind, params, relation, grid, *, lw_known, verdict, u_list):
    cfg = {"kind": kind, "name": name, "params": params,
           "grid": list(grid), "relation": list(relation)}
    return Scene(name, kind, _dump(cfg), 0, tuple(grid), tuple(relation), lw_known,
                 verdict, u_list)


def fixture_scene(rng, name, grid, shape, k=1):
    """Closed-form fixtures; u circles stay inside the documented ranges."""
    if shape == "torus":
        R = _u(rng, 1.5, 3.0)
        params = {"shape": "torus", "radius_major": R,
                  "radius_minor": round(R * rng.uniform(0.2, 0.6), 6)}
        return _scene(name, "fixture", params,
                      (_signed(rng, 0.5, 2.0), _u(rng, -1.0, 1.0)), grid,
                      lw_known=False, verdict=NOT_LW, u_list=_spread(0.0, 6.0, k))
    r = _u(rng, 0.5, 2.0)
    params = {"shape": shape, "radius": r}
    if shape == "sphere":
        # inward normal: kappa1 = kappa2 = 1/R, so n = (1 - m)/R for any m
        m = _signed(rng, 0.5, 2.5)
        return _scene(name, "fixture", params, (m, (1.0 - m) / r), grid,
                      lw_known=True, verdict=UMBILIC, u_list=_spread(-1.2, 1.2, k))
    if shape == "cylinder":
        # kappa1 = 1/r, kappa2 = 0: kappa1 = m kappa2 + 1/r for any m
        return _scene(name, "fixture", params, (_signed(rng, 0.5, 2.5), 1.0 / r),
                      grid, lw_known=True, verdict=ROTATIONAL,
                      u_list=_spread(-1.8, 1.8, k))
    return _scene(name, "fixture", params, (-1.0, 0.0), grid, lw_known=True,
                  verdict=ROTATIONAL, u_list=_spread(-1.4 * r, 1.4 * r, k))


def riemann_example_scene(rng, name, grid, long_range, k=1, *, rotational):
    lam = mu = 0.0
    if not rotational:
        lam, mu = _u(rng, 0.0, 1.2), _u(rng, 0.0, 1.2)
        if max(lam, mu) < 0.3:  # keep the center drift clearly nonzero
            lam = 0.3
    if long_range:
        u_range = (-_u(rng, 2.0, 4.0), _u(rng, 2.0, 4.0))
        # within 0.05 of the anchor u = 0 the radius neither collapses
        # (r'' > 0) nor reaches the blow-up limit, whatever gets truncated
        circles = _spread(0.0, 0.05, k)
    else:
        u_range = (-_u(rng, 0.4, 0.7), _u(rng, 0.4, 0.7))
        circles = _spread(u_range[0], u_range[1], k)
    params = {"lambda": lam, "mu": mu, "r0": _u(rng, 0.7, 1.3),
              "dr0": _u(rng, -0.2, 0.2), "u_range": list(u_range)}
    return _scene(name, "riemann-example", params, (-1.0, 0.0), grid, lw_known=True,
                  verdict=ROTATIONAL if rotational else RIEMANN, u_list=circles)


def rotational_scene(rng, name, grid, long_range, k=1):
    rho0 = _u(rng, 1.0, 1.5)
    # rho' = cos(theta) >= -1, so the profile cannot reach the axis before
    # s = rho0; a long range may be truncated there.
    length = _u(rng, 3.0, 6.0) if long_range else round(rho0 * rng.uniform(0.6, 0.9), 6)
    params = {"rho0": rho0, "theta0": _u(rng, -0.8, 0.8), "s_range": [0.0, length]}
    rel = (_signed(rng, 0.4, 2.5), _u(rng, -0.8, 0.8))
    return _scene(name, "rotational-lw", params, rel, grid, lw_known=True,
                  verdict=ROTATIONAL, u_list=_spread(0.0, min(length, 0.9 * rho0), k))


def cyclic_scene(rng, name, grid, k=1, *, n_zero):
    k0, s0 = _u(rng, 0.5, 1.2), _u(rng, 0.1, 0.5)
    r0 = _u(rng, 0.4, 0.7)
    # alpha > r kappa keeps a tangential component in X_u: the surface is regular
    params = {
        "kappa": f"{k0} + {_u(rng, 0.05, 0.3)}*sin(u)",
        "sigma": f"{s0} + {_u(rng, 0.05, 0.2)}*cos(u)",
        "alpha": _u(rng, 1.6, 2.4),
        "beta": f"{_u(rng, 0.1, 0.4)} + {_u(rng, 0.02, 0.1)}*sin(u)",
        "gamma": f"{_u(rng, 0.2, 0.5)} + {_u(rng, 0.02, 0.1)}*cos(u)",
        "r": f"{r0} + {_u(rng, 0.02, 0.1)}*cos(u)",
        "u_range": [0.0, _u(rng, 1.5, 2.5)],
    }
    rel = (_signed(rng, 0.5, 2.5), 0.0 if n_zero else _u(rng, -0.8, 0.8))
    return _scene(name, "cyclic", params, rel, grid, lw_known=False, verdict=NOT_LW,
                  u_list=_spread(0.0, params["u_range"][1], k))


def riemann_type_scene(rng, name, grid, k=1, *, n_zero):
    half = _u(rng, 0.6, 1.2)
    w = _u(rng, 1.0, 2.5)
    params = {
        "a": f"{_u(rng, 0.3, 1.0)}*u + {_u(rng, 0.1, 0.4)}*sin({w}*u)",
        "b": f"{_u(rng, 0.1, 0.5)}*u + {_u(rng, 0.1, 0.4)}*cos({w}*u)",
        "r": f"{_u(rng, 0.8, 1.4)} + {_u(rng, 0.05, 0.3)}*sin(u)",
        "u_range": [-half, half],
    }
    rel = (_signed(rng, 0.3, 2.0), 0.0 if n_zero else _u(rng, -0.8, 0.8))
    return _scene(name, "riemann-type", params, rel, grid, lw_known=False,
                  verdict=NOT_LW, u_list=_spread(-half, half, k))


FLAWS = ("hostile", "json", "syntax", "m0", "missing", "type")


def malformed_scene(rng, name, grid, k: int) -> Scene:
    """The k-th malformed config: the flaws and the hostile expressions are
    taken in turn, so every pass of six or more holds each flaw."""
    base = {"kind": "riemann-type", "name": name, "grid": list(grid),
            "relation": [1.5, 0.2],
            "params": {"a": "0.5*u", "b": 0.0, "r": "1 + 0.1*sin(u)",
                       "u_range": [-0.8, 0.8]}}
    flaw = FLAWS[k % len(FLAWS)]
    if flaw == "json":
        return Scene(name, base["kind"], _dump(base)[:-3] + "\n", 1, tuple(grid))
    if flaw == "syntax":
        base["params"]["r"] = "1.0 +* u"
    elif flaw == "m0":
        base["relation"] = [0.0, 0.5]
    elif flaw == "missing":
        del base["params"][rng.choice(("a", "r", "u_range"))]
    elif flaw == "type":
        base["params"]["u_range"] = ["-0.8", 0.8]
    else:
        expr = HOSTILE_EXPRESSIONS[(k // len(FLAWS)) % len(HOSTILE_EXPRESSIONS)]
        base["params"][rng.choice(("a", "r"))] = expr
    return Scene(name, base["kind"], _dump(base), 1, tuple(grid))


SHAPES = ("sphere", "cylinder", "torus", "catenoid")
SWEEP_GRIDS = tuple((a, b) for a in (6, 7, 8) for b in (6, 7, 8))


def _sweep(rng: random.Random, w: Workload, rounds: int) -> None:
    """Rounds of one scene per kind in shuffled order; every other round adds
    one malformed config.  Every valid scene runs generate, analyze, fit and
    export; in each round one kind (in rotation) also runs harmonics on one
    circle.  The discrete choices (shape, grid, long range, lambda = mu = 0,
    n = 0) follow the round number, so every seed gets the same mix and only
    the continuous parameters vary."""
    builders = (
        lambda rnd, n, g: fixture_scene(rng, n, g, SHAPES[rnd % len(SHAPES)]),
        lambda rnd, n, g: riemann_example_scene(rng, n, g, rnd % 3 == 0,
                                                rotational=rnd % 4 == 1),
        lambda rnd, n, g: rotational_scene(rng, n, g, rnd % 3 == 1),
        lambda rnd, n, g: cyclic_scene(rng, n, g, n_zero=rnd % 2 == 0),
        lambda rnd, n, g: riemann_type_scene(rng, n, g, n_zero=rnd % 2 == 1),
    )
    for rnd in range(rounds):
        kinds = list(range(len(builders)))
        rng.shuffle(kinds)
        batch = []
        for kind in kinds:
            grid = SWEEP_GRIDS[(rnd * len(builders) + kind) % len(SWEEP_GRIDS)]
            scene = builders[kind](rnd, f"s{len(w.scenes) + len(batch):03d}", grid)
            cmds = ["generate", "analyze", "fit", "export"]
            if kind == rnd % len(builders):
                cmds.append("harmonics")
            batch.append((scene, cmds))
        if rnd % 2 == 0:
            bad = malformed_scene(rng, f"s{len(w.scenes) + len(batch):03d}", (7, 7),
                                  rnd // 2)
            batch.insert(rng.randrange(len(batch) + 1),
                         (bad, ["generate", "analyze", "fit"]))
        for scene, cmds in batch:
            w.scenes.append(scene)
            w.jobs += [Job(scene, c, scene.grid, scene.u_list) for c in cmds]


def _fine_grid(rng: random.Random, w: Workload, n: int, circles: int,
               mesh_n: int) -> None:
    """One scene of each ODE/foliation kind at n x n: analyze, fit and
    harmonics on `circles` circles; generate and export at mesh_n x mesh_n."""
    grid = (n, n)
    w.scenes = [
        riemann_example_scene(rng, "riemann", grid, False, circles, rotational=False),
        rotational_scene(rng, "rotational", grid, False, circles),
        cyclic_scene(rng, "cyclic", grid, circles, n_zero=True),
        riemann_type_scene(rng, "rtype", grid, circles, n_zero=False),
    ]
    for s in w.scenes:
        w.jobs += [Job(s, "analyze", grid), Job(s, "fit", grid),
                   Job(s, "harmonics", grid, s.u_list)]
        w.jobs += [Job(s, "generate", (mesh_n, mesh_n)),
                   Job(s, "export", (mesh_n, mesh_n))]
    rng.shuffle(w.jobs)


def _mesh_export(rng: random.Random, w: Workload, n: int, small: int) -> None:
    """The four fixtures and one riemann-type scene exported at n x n; the
    other subcommands run at small x small (harmonics on two circles).
    Every job is listed three times, so a pass of about 30 s times each job
    three times and a run's medians do not depend on how many passes fit
    into it."""
    grid = (n, n)
    w.scenes = [fixture_scene(rng, shape, grid, shape, 2) for shape in SHAPES]
    w.scenes.append(riemann_type_scene(rng, "rtype", grid, 2, n_zero=False))
    for s in w.scenes:
        w.jobs += 3 * [Job(s, "generate", grid), Job(s, "export", grid),
                       Job(s, "analyze", (small, small)), Job(s, "fit", (small, small)),
                       Job(s, "harmonics", (small, small), s.u_list)]
    rng.shuffle(w.jobs)


def make_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build a workload from its seed.  scale < 1 shrinks grids and counts
    (used by the smoke test only)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    w = Workload(name, seed)

    def scaled(n, least=4):
        return max(least, round(n * scale))

    if name == "sweep":
        _sweep(rng, w, rounds=scaled(30, least=2))
    elif name == "fine-grid":
        _fine_grid(rng, w, n=scaled(32), circles=scaled(8, least=1), mesh_n=scaled(24))
    else:
        _mesh_export(rng, w, n=scaled(96), small=scaled(16))
    return w

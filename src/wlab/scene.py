"""Build surfaces from scene configurations."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import SceneConfig, parse_scalar_function
from .cyclic import (
    CyclicFoliationData,
    FrenetCurve,
    RiemannTypeSurface,
    build_cyclic,
    build_riemann_type,
)
from .generators import (
    RiemannExampleParams,
    gen_fixture,
    gen_riemann_example,
    gen_rotational_lw,
)
from .surface import LWRelation, ParamSurface


@dataclass
class SceneResult:
    surface: ParamSurface
    riemann_data: Optional[RiemannTypeSurface] = None
    cyclic_data: Optional[tuple[FrenetCurve, CyclicFoliationData]] = None
    truncated: bool = False


def relation_of(cfg: SceneConfig) -> Optional[LWRelation]:
    if cfg.relation is None:
        return None
    return LWRelation(cfg.relation[0], cfg.relation[1])


def build_scene(cfg: SceneConfig) -> SceneResult:
    p = cfg.params
    if cfg.kind == "fixture":
        shape = p["shape"]
        if shape == "torus":
            surface = gen_fixture("torus", radius_major=p["radius_major"],
                                  radius_minor=p["radius_minor"])
        else:
            surface = gen_fixture(shape, radius=p["radius"])
        return SceneResult(surface)

    if cfg.kind == "riemann-type":
        u_range = tuple(p["u_range"])
        mid = 0.5 * (u_range[0] + u_range[1])
        fns = {k: parse_scalar_function(p[k], f"params.{k}", test_u=mid)
               for k in ("a", "b", "r")}
        data = RiemannTypeSurface(fns["a"], fns["b"], fns["r"], u_range)
        return SceneResult(build_riemann_type(data), riemann_data=data)

    if cfg.kind == "riemann-example":
        params = RiemannExampleParams(
            lam=p["lambda"], mu=p["mu"], r0=p["r0"], dr0=p.get("dr0", 0.0),
            u_range=tuple(p.get("u_range", (-1.0, 1.0))))
        data = gen_riemann_example(params)
        return SceneResult(build_riemann_type(data), riemann_data=data,
                           truncated=data.truncated)

    if cfg.kind == "rotational-lw":
        rel = relation_of(cfg)
        profile, surface = gen_rotational_lw(rel, p["rho0"], p["theta0"],
                                             tuple(p["s_range"]))
        return SceneResult(surface, truncated=profile.truncated)

    # cyclic
    u_range = tuple(p["u_range"])
    mid = 0.5 * (u_range[0] + u_range[1])
    fns = {k: parse_scalar_function(p[k], f"params.{k}", test_u=mid)
           for k in ("kappa", "sigma", "alpha", "beta", "gamma", "r")}
    curve = FrenetCurve(fns["kappa"], fns["sigma"], u_range)
    data = CyclicFoliationData(fns["alpha"], fns["beta"], fns["gamma"], fns["r"])
    return SceneResult(build_cyclic(curve, data), cyclic_data=(curve, data))

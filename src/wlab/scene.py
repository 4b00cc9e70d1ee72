"""Build surfaces from scene configurations."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import SceneConfig
from .cyclic import CyclicSurface, RiemannTypeSurface, build_cyclic, build_riemann_type
from .generators import gen_fixture, gen_riemann_example, gen_rotational_lw
from .surface import ParamSurface


@dataclass
class SceneResult:
    surface: ParamSurface
    riemann_data: Optional[RiemannTypeSurface] = None
    cyclic_data: Optional[CyclicSurface] = None
    truncated: bool = False


def build_scene(cfg: SceneConfig) -> SceneResult:
    args = cfg.args
    if cfg.kind == "fixture":
        return SceneResult(gen_fixture(**args))

    if cfg.kind == "riemann-type":
        data = RiemannTypeSurface(**args)
        return SceneResult(build_riemann_type(data), riemann_data=data)

    if cfg.kind == "riemann-example":
        data = gen_riemann_example(**args)
        return SceneResult(build_riemann_type(data), riemann_data=data,
                           truncated=data.truncated)

    if cfg.kind == "rotational-lw":
        profile, surface = gen_rotational_lw(cfg.relation, **args)
        return SceneResult(surface, truncated=profile.truncated)

    # cyclic
    data = CyclicSurface(**args)
    return SceneResult(build_cyclic(data), cyclic_data=data)

"""Command-line front end.

Subcommands: generate | analyze | harmonics | fit | export.
Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import harmonics as hm
from .config import SceneConfig, load_config
from .errors import ConfigError, WlabError
from .fitting import classify
from .meshio import atomic_write_text, write_csv, write_obj
from .scene import SceneResult, build_scene, relation_of
from .surface import (
    curvature,
    evaluate_jet,
    interior_grid,
    lw_residual_linear,
    lw_residual_poly,
    lw_residual_signed,
)


def _apply_overrides(cfg: SceneConfig, args) -> SceneConfig:
    if args.grid:
        try:
            nu, nv = (int(x) for x in args.grid.lower().split("x"))
        except ValueError:
            raise ConfigError(f"--grid: expected NUxNV, got {args.grid!r}")
        cfg = cfg.with_grid((nu, nv))
    return cfg


def cmd_generate(cfg: SceneConfig, outdir: str, args) -> None:
    result = build_scene(cfg)
    nu, nv = cfg.grid
    os.makedirs(outdir, exist_ok=True)
    write_obj(os.path.join(outdir, f"{cfg.name}.obj"), result.surface, nu, nv)
    meta = {"config": cfg.to_dict(), "truncated": result.truncated}
    atomic_write_text(os.path.join(outdir, f"{cfg.name}.meta.json"),
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_analyze(cfg: SceneConfig, outdir: str, args) -> None:
    result = build_scene(cfg)
    rel = relation_of(cfg)
    nu, nv = cfg.grid
    us, vs = interior_grid(result.surface, nu, nv)
    header = ["u", "v", "H", "K", "kappa1", "kappa2"]
    if rel is not None:
        header += ["res_linear", "res_signed", "res_poly"]
    jet = evaluate_jet(result.surface, us, vs)
    c = curvature(jet)
    columns = [*np.meshgrid(us, vs, indexing="ij"), c.H, c.K, c.kappa1, c.kappa2]
    if rel is not None:
        columns += [lw_residual_linear(c, rel), lw_residual_signed(jet, rel),
                    lw_residual_poly(jet, rel)]
    rows = np.stack(columns, axis=-1).reshape(-1, len(columns)).tolist()
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, f"{cfg.name}.analysis.csv"), header, rows)


def _closed_form(result: SceneResult, rel, u: float, J: int):
    """(j, (A_j, B_j)) for the one harmonic j <= J on the u-circle whose
    closed form the toolkit knows, else None."""
    data = result.riemann_data
    if data is not None and J >= (12 if rel.n != 0 else 3):
        da, db, r = data.a.d1(u), data.b.d1(u), data.r(u)
        if rel.n != 0:
            return 12, hm.closed_form_A12_B12(rel.n, r, da, db)
        return 3, hm.closed_form_A3_B3(rel.m, r, da, db, data.a.d2(u), data.b.d2(u))
    if result.cyclic_data is not None and rel.n == 0 and J >= 6:
        curve, fol = result.cyclic_data
        return 6, hm.closed_form_A6_B6(rel.m, curve.kappa(u), fol.r(u),
                                       fol.beta(u), fol.gamma(u))
    return None


def _u_list(text):
    """The --u-list values, each a finite float; [] when not given."""
    if not text:
        return []
    try:
        us = [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"--u-list: expected comma-separated numbers, "
                          f"got {text!r}") from None
    if not all(math.isfinite(u) for u in us):
        raise ConfigError(f"--u-list: expected finite numbers, got {text!r}")
    return us


def cmd_harmonics(cfg: SceneConfig, outdir: str, args) -> None:
    rel = relation_of(cfg)
    if rel is None:
        raise ConfigError("relation: required for the harmonics command")
    J = args.max_harmonic
    if J < 0:
        raise ConfigError(f"--max-harmonic: expected >= 0, got {J}")
    us = _u_list(args.u_list)
    result = build_scene(cfg)
    if not us:
        lo, hi = result.surface.u_range
        pad = 0.1 * (hi - lo)
        us = list(np.linspace(lo + pad, hi - pad, 5))
    rows = []
    for u in us:
        spectrum = hm.circle_spectrum(result.surface, rel, u, J)
        closed = _closed_form(result, rel, u, J)
        for j in range(J + 1):
            if closed is None or closed[0] != j:
                rows.append([u, j, float(spectrum.A[j]), float(spectrum.B[j]),
                             math.nan, math.nan, math.nan, ""])
            else:
                report = hm.compare_coefficient(spectrum, u, j, closed[1])
                rows.append([u, j, report.dft_A, report.dft_B, report.closed_A,
                             report.closed_B, report.ratio, str(report.passed)])
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, f"{cfg.name}.harmonics.csv"),
              ["u", "j", "dft_A", "dft_B", "closed_A", "closed_B", "ratio", "pass"],
              rows)


def cmd_fit(cfg: SceneConfig, outdir: str, args) -> None:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol: expected a finite number > 0, got {args.tol}")
    result = build_scene(cfg)
    report = classify(result.surface, grid=cfg.grid,
                      riemann_data=result.riemann_data, lw_tol=args.tol)
    os.makedirs(outdir, exist_ok=True)
    atomic_write_text(os.path.join(outdir, f"{cfg.name}.report.txt"),
                      report.to_text())
    rows = []
    for labeling, fit in (("as_given", report.fit_as_given),
                          ("swapped", report.fit_swapped)):
        if fit is not None:
            rows.append([labeling, fit.m, fit.n, fit.rms])
    write_csv(os.path.join(outdir, f"{cfg.name}.fit.csv"),
              ["labeling", "m", "n", "rms"], rows)


def cmd_export(cfg: SceneConfig, outdir: str, args) -> None:
    result = build_scene(cfg)
    nu, nv = cfg.grid
    os.makedirs(outdir, exist_ok=True)
    write_obj(os.path.join(outdir, f"{cfg.name}.obj"), result.surface, nu, nv)


_COMMANDS = {"generate": cmd_generate, "analyze": cmd_analyze,
             "harmonics": cmd_harmonics, "fit": cmd_fit, "export": cmd_export}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wlab",
        description="Linear Weingarten surface toolkit: generation, curvature "
                    "analysis, harmonic checks and classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="scene config (JSON)")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--grid", default=None, help="grid override, NUxNV")
        if name == "fit":
            sp.add_argument("--tol", type=float, default=1e-6,
                            help="fit rms, relative to the curvature scale, below "
                                 "which the surface is LW (> 0)")
        if name == "harmonics":
            sp.add_argument("--u-list", default=None,
                            help="comma-separated u values")
            sp.add_argument("--max-harmonic", type=int, default=12)
    args = parser.parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        _COMMANDS[args.command](cfg, args.out, args)
    except ConfigError as exc:
        print(f"wlab: config error: {exc}", file=sys.stderr)
        return 1
    except WlabError as exc:
        print(f"wlab: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()

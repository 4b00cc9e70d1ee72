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
from .config import SceneConfig, load_config, parse_scalar_function
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
        cfg = SceneConfig(cfg.kind, cfg.params, (nu, nv), cfg.relation, cfg.name)
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


def _closed_form_for(cfg: SceneConfig, result: SceneResult, rel, u: float, j: int):
    """Closed-form (A_j, B_j) where the toolkit knows one, else None."""
    data = result.riemann_data
    if data is not None:
        da, db, r = data.a.d1(u), data.b.d1(u), data.r(u)
        if rel.n != 0 and j == 12:
            A, B, _ = hm.closed_form_A12_B12(rel.n, r, da, db)
            return A, B
        if rel.n == 0 and j == 3:
            return hm.closed_form_A3_B3(rel.m, r, da, db,
                                        data.a.d2(u), data.b.d2(u))
    if cfg.kind == "cyclic" and rel.n == 0 and j == 6:
        p = cfg.params
        fns = {k: parse_scalar_function(p[k], f"params.{k}", test_u=u)
               for k in ("kappa", "beta", "gamma", "r")}
        return hm.closed_form_A6_B6(rel.m, fns["kappa"](u), fns["r"](u),
                                    fns["beta"](u), fns["gamma"](u))
    return None


def cmd_harmonics(cfg: SceneConfig, outdir: str, args) -> None:
    rel = relation_of(cfg)
    if rel is None:
        raise ConfigError("relation: required for the harmonics command")
    result = build_scene(cfg)
    J = args.max_harmonic
    if args.u_list:
        us = [float(x) for x in args.u_list.split(",")]
    else:
        lo, hi = result.surface.u_range
        pad = 0.1 * (hi - lo)
        us = list(np.linspace(lo + pad, hi - pad, 5))
    rows = []
    for u in us:
        # at least 12 harmonics, so that the pass rule sees the same
        # spectrum scale as verify_coefficient_identity
        spectrum = hm._circle_spectrum(result.surface, rel, u, max(J, 12),
                                       max(hm.DEFAULT_SAMPLES, 2 * J + 2))
        for j in range(J + 1):
            closed = _closed_form_for(cfg, result, rel, u, j)
            if closed is None:
                rows.append([u, j, float(spectrum.A[j]), float(spectrum.B[j]),
                             math.nan, math.nan, math.nan, ""])
            else:
                report = hm.compare_coefficient(spectrum, u, j, closed)
                rows.append([u, j, report.dft_A, report.dft_B, report.closed_A,
                             report.closed_B, report.ratio, str(report.passed)])
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, f"{cfg.name}.harmonics.csv"),
              ["u", "j", "dft_A", "dft_B", "closed_A", "closed_B", "ratio", "pass"],
              rows)


def cmd_fit(cfg: SceneConfig, outdir: str, args) -> None:
    result = build_scene(cfg)
    report = classify(result.surface, grid=cfg.grid,
                      riemann_data=result.riemann_data,
                      lw_tol=args.tol if args.tol else 1e-6)
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
        sp.add_argument("--tol", type=float, default=None,
                        help="tolerance override for fit classification")
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

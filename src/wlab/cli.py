"""Command-line front end.

Subcommands: generate | analyze | harmonics | fit | export.
Exit codes: 0 success, 1 validation error (a malformed config or argument),
2 numerical failure.  --help exits 0.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import harmonics as hm
from .config import MAX_POINTS, SceneConfig, canonical_dumps, load_config
from .errors import ConfigError, OutputError, WlabError
from .fitting import classify
from .meshio import atomic_write_text, write_csv, write_obj
from .scene import SceneResult, build_scene
from .surface import (
    _inset,
    _u_span,
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


def _out_path(outdir: str, cfg: SceneConfig, suffix: str) -> str:
    """outdir/<name>.<suffix>, creating outdir first; a directory that
    cannot be created is a ConfigError naming --out."""
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out: cannot create {outdir}: {exc.strerror}") from None
    return os.path.join(outdir, f"{cfg.name}.{suffix}")


def cmd_generate(cfg: SceneConfig, outdir: str, args) -> None:
    result = cmd_export(cfg, outdir, args)
    meta = {"config": cfg.to_dict(), "truncated": result.truncated}
    atomic_write_text(_out_path(outdir, cfg, "meta.json"), canonical_dumps(meta))


def cmd_analyze(cfg: SceneConfig, outdir: str, args) -> None:
    result = build_scene(cfg)
    rel = cfg.relation
    nu, nv = cfg.grid
    us, vs = interior_grid(result.surface, nu, nv)
    header = ["u", "v", "H", "K", "kappa1", "kappa2"]
    if rel is not None:
        header += ["res_linear", "res_signed", "res_poly"]
    c = curvature(evaluate_jet(result.surface, us, vs))
    columns = [*np.meshgrid(us, vs, indexing="ij"), c.H, c.K, c.kappa1, c.kappa2]
    if rel is not None:
        columns += [lw_residual_linear(c, rel), lw_residual_signed(c, rel),
                    lw_residual_poly(c, rel)]
    rows = np.stack(columns, axis=-1).reshape(-1, len(columns))
    write_csv(_out_path(outdir, cfg, "analysis.csv"), header, rows)


def _closed_form(result: SceneResult, rel, us: np.ndarray, J: int):
    """(j, (A_j, B_j)) for the one harmonic j <= J whose closed form the
    toolkit knows, A_j and B_j arrays over the u-circles us; else None."""
    data = result.riemann_data
    if data is not None and J >= (12 if rel.n != 0 else 3):
        (_, da, dda), (_, db, ddb), r = data.a.jet(us), data.b.jet(us), data.r(us)
        if rel.n != 0:
            return 12, hm.closed_form_A12_B12(rel.n, r, da, db)
        return 3, hm.closed_form_A3_B3(rel.m, r, da, db, dda, ddb)
    if result.cyclic_data is not None and rel.n == 0 and J >= 6:
        cyc = result.cyclic_data
        return 6, hm.closed_form_A6_B6(rel.m, cyc.kappa(us), cyc.r(us),
                                       cyc.beta(us), cyc.gamma(us))
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
    rel = cfg.relation
    if rel is None:
        raise ConfigError("relation: required for the harmonics command")
    J = args.max_harmonic
    if J < 0:
        raise ConfigError(f"--max-harmonic: expected >= 0, got {J}")
    us = np.array(_u_list(args.u_list), dtype=float)
    result = build_scene(cfg)
    if not us.size:
        u_range = result.surface.u_range
        us = np.linspace(*_inset(u_range, 0.1 * _u_span(u_range)), 5)
    N = hm.circle_samples(J)
    if us.size * N > MAX_POINTS:
        raise ConfigError(f"harmonics: {us.size} circles x {N} samples above {MAX_POINTS}")
    spectra = hm.circle_spectrum(result.surface, rel, us, J)
    # u, j, dft_A, dft_B, closed_A, closed_B, ratio per circle and harmonic;
    # NaN (an empty cell) where a harmonic has no closed form
    table = np.full((us.size, J + 1, 7), math.nan)
    table[..., 0] = us[:, None]
    table[..., 1] = np.arange(J + 1)
    table[..., 2] = spectra.A[:, :J + 1]
    table[..., 3] = spectra.B[:, :J + 1]
    passed = np.full((us.size, J + 1), "", dtype="<U5")   # the pass column
    j_closed, closed = _closed_form(result, rel, us, J) or (None, None)
    if j_closed is not None:
        ratio, passed[:, j_closed] = hm.compare_coefficient(spectra, j_closed, closed)
        table[:, j_closed, 4:] = np.column_stack((*closed, ratio))
    write_csv(_out_path(outdir, cfg, "harmonics.csv"),
              ["u", "j", "dft_A", "dft_B", "closed_A", "closed_B", "ratio", "pass"],
              table.reshape(-1, 7), label=(7, passed.ravel()))


def cmd_fit(cfg: SceneConfig, outdir: str, args) -> None:
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ConfigError(f"--tol: expected a finite number > 0, got {args.tol}")
    result = build_scene(cfg)
    report = classify(result.surface, grid=cfg.grid, lw_tol=args.tol)
    atomic_write_text(_out_path(outdir, cfg, "report.txt"), report.to_text())
    fits = {"as_given": report.fit_as_given, "swapped": report.fit_swapped}
    table = {name: (fit.m, fit.n, fit.rms) for name, fit in fits.items() if fit is not None}
    write_csv(_out_path(outdir, cfg, "fit.csv"), ["labeling", "m", "n", "rms"],
              np.array(list(table.values())).reshape(-1, 3), label=(0, list(table)))


def cmd_export(cfg: SceneConfig, outdir: str, args) -> SceneResult:
    result = build_scene(cfg)
    nu, nv = cfg.grid
    write_obj(_out_path(outdir, cfg, "obj"), result.surface, nu, nv)
    return result


_COMMANDS = {"generate": cmd_generate, "analyze": cmd_analyze,
             "harmonics": cmd_harmonics, "fit": cmd_fit, "export": cmd_export}


class _Parser(argparse.ArgumentParser):
    """An argument error raises ConfigError (exit 1) instead of exiting 2."""

    def error(self, message):
        raise ConfigError(message)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                            help="comma-separated u values; write --u-list=-0.5,0.5 "
                                 "when the first is negative")
            sp.add_argument("--max-harmonic", type=int, default=12)
    return parser


_PARSER = _parser()  # constant: parse_args keeps nothing from one call to the next


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        cfg = _apply_overrides(load_config(args.config), args)
        _COMMANDS[args.command](cfg, args.out, args)
    except ConfigError as exc:
        print(f"wlab: config error: {exc}", file=sys.stderr)
        return 1
    except OutputError as exc:
        print(f"wlab: output error: {exc}", file=sys.stderr)
        return 1
    except WlabError as exc:
        print(f"wlab: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()

"""Mesh and report output: OBJ export, CSV writers, atomic file writes.

Numbers are written with "%.9g" in OBJ files and "%.12g" in CSV files.
All writes go through a temp file in the target directory followed by an
atomic rename.
"""
from __future__ import annotations

import itertools
import os
import tempfile
from typing import Optional

import numpy as np

from .surface import ParamSurface, evaluate_jet


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def obj_grid(surface: ParamSurface, nu: int, nv: int):
    """Vertex parameter grid for export: u inset by the jet margin, v over
    the full closed range (seam vertices duplicated so that vertex and face
    counts stay nu*nv and 2 (nu-1)(nv-1))."""
    margin = 4.0 * surface.fd_step()
    u0, u1 = surface.u_range
    us = np.linspace(u0 + margin, u1 - margin, nu)
    v0, v1 = surface.v_range
    vs = np.linspace(v0, v1, nv)
    return us, vs


def surface_mesh(surface: ParamSurface, nu: int, nv: int, with_normals=True):
    """(vertices, normals) arrays of shape (nu*nv, 3), v fastest."""
    jet = evaluate_jet(surface, *obj_grid(surface, nu, nv))
    normals = jet.normal.reshape(-1, 3) if with_normals else None
    return jet.p.reshape(-1, 3), normals


def obj_text(verts: np.ndarray, normals: Optional[np.ndarray],
             nu: int, nv: int) -> str:
    """OBJ text: one "%.9g" block per section, two triangles per grid cell."""
    blocks = [("v %.9g %.9g %.9g\n" * len(verts)) % tuple(verts.ravel().tolist())]
    if normals is not None:
        blocks.append(("vn %.9g %.9g %.9g\n" * len(normals))
                      % tuple(normals.ravel().tolist()))
    a = (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1) + 1).ravel()  # 1-based
    b, c = a + 1, a + nv
    d = c + 1
    if normals is not None:
        face = "f %d//%d %d//%d %d//%d\n"
        corners = (a, a, b, b, d, d, a, a, d, d, c, c)
    else:
        face = "f %d %d %d\n"
        corners = (a, b, d, a, d, c)
    blocks.append((2 * face * len(a)) % tuple(np.stack(corners, axis=1).ravel().tolist()))
    return "".join(blocks)


def write_obj(path, surface: ParamSurface, nu: int, nv: int,
              with_normals: bool = True) -> None:
    verts, normals = surface_mesh(surface, nu, nv, with_normals)
    atomic_write_text(path, obj_text(verts, normals, nu, nv))


def _cell(x) -> str:
    """The "%" spec of one CSV cell: "%.12g" for a float, "" (an empty cell)
    for NaN, "%s" (str) for anything else."""
    if isinstance(x, float):
        return "%.12g" if x == x else ""
    return "%s"


def write_csv(path, header, rows) -> None:
    """CSV text; each run of rows with one template is one "%" block."""
    blocks = [",".join(header) + "\n"]
    for template, run in itertools.groupby(
            rows, key=lambda row: ",".join(map(_cell, row)) + "\n"):
        run = list(run)
        cells = [x for row in run for x in row if _cell(x)]
        blocks.append((template * len(run)) % tuple(cells))
    atomic_write_text(path, "".join(blocks))

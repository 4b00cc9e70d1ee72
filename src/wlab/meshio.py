"""Mesh and report output: OBJ export, CSV writers, atomic file writes.

Numbers are written with "%.9g" in OBJ files and "%.12g" in CSV files.
All writes go through a temp file in the target directory followed by an
atomic rename.
"""
from __future__ import annotations

import math
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
    us, vs = obj_grid(surface, nu, nv)

    def one(u, v):
        jet = evaluate_jet(surface, u, v)
        return jet.p, jet.normal

    results = [one(u, v) for u in us for v in vs]
    verts = np.array([r[0] for r in results])
    normals = np.array([r[1] for r in results]) if with_normals else None
    return verts, normals


def obj_text(verts: np.ndarray, normals: Optional[np.ndarray],
             nu: int, nv: int) -> str:
    lines = []
    for p in verts:
        lines.append("v %.9g %.9g %.9g" % (p[0], p[1], p[2]))
    if normals is not None:
        for n in normals:
            lines.append("vn %.9g %.9g %.9g" % (n[0], n[1], n[2]))
    for i in range(nu - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1          # OBJ indices are 1-based
            b = a + 1
            c = a + nv
            d = c + 1
            if normals is not None:
                lines.append(f"f {a}//{a} {b}//{b} {d}//{d}")
                lines.append(f"f {a}//{a} {d}//{d} {c}//{c}")
            else:
                lines.append(f"f {a} {b} {d}")
                lines.append(f"f {a} {d} {c}")
    return "\n".join(lines) + "\n"


def write_obj(path, surface: ParamSurface, nu: int, nv: int,
              with_normals: bool = True) -> None:
    verts, normals = surface_mesh(surface, nu, nv, with_normals)
    atomic_write_text(path, obj_text(verts, normals, nu, nv))


def fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return "%.12g" % x
    return str(x)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    atomic_write_text(path, "\n".join(lines) + "\n")

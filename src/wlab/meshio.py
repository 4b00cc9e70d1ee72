"""Mesh and report output: OBJ export, CSV writers, atomic file writes.

Numbers are written with "%.9g" in OBJ files and "%.12g" in CSV files, each
section or run of rows as one "%" block.  OBJ faces come from a token table:
each vertex's "k//k" is formatted once, and the six corners of every grid
cell are gathered from it by index arrays.  A float array handed to
write_csv gets its templates from one np.isnan over the whole array: each
run of rows with one NaN pattern (NaN is an empty cell) is one block.  Other
rows are classified cell by cell.  All writes go through a temp file in the
target directory followed by an atomic rename.
"""
from __future__ import annotations

import itertools
import math
import os
import tempfile

import numpy as np

from .surface import ParamSurface, evaluate_jet, interior_grid


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
    """Vertex parameter grid for export: the u of interior_grid, v over the
    closed period [0, 2 pi] (seam vertices duplicated so that vertex and
    face counts stay nu*nv and 2 (nu-1)(nv-1))."""
    return interior_grid(surface, nu, nv)[0], np.linspace(0.0, 2.0 * math.pi, nv)


def surface_mesh(surface: ParamSurface, nu: int, nv: int):
    """(vertices, normals) arrays of shape (nu*nv, 3), v fastest."""
    jet = evaluate_jet(surface, *obj_grid(surface, nu, nv))
    return jet.p.reshape(-1, 3), jet.normal.reshape(-1, 3)


def obj_text(verts: np.ndarray, normals: np.ndarray, nu: int, nv: int) -> str:
    """OBJ text: one "%.9g" block per section, two triangles per grid cell."""
    blocks = [("v %.9g %.9g %.9g\n" * len(verts)) % tuple(verts.ravel().tolist()),
              ("vn %.9g %.9g %.9g\n" * len(normals)) % tuple(normals.ravel().tolist())]
    tokens = np.array(["%d//%d" % (k, k) for k in range(1, nu * nv + 1)], dtype=object)
    a = (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1)).ravel()  # 0-based
    b, c = a + 1, a + nv
    d = c + 1
    corners = np.stack((a, b, d, a, d, c), axis=1).ravel()
    blocks.append((2 * "f %s %s %s\n" * len(a)) % tuple(tokens[corners].tolist()))
    return "".join(blocks)


def write_obj(path, surface: ParamSurface, nu: int, nv: int) -> None:
    atomic_write_text(path, obj_text(*surface_mesh(surface, nu, nv), nu, nv))


def _cell(x) -> str:
    """The "%" spec of one CSV cell: "%.12g" for a float, "" (an empty cell)
    for NaN, "%s" (str) for anything else."""
    if isinstance(x, float):
        return "%.12g" if x == x else ""
    return "%s"


def _array_runs(rows: np.ndarray):
    """(template, row count, cells) per run of rows of a 2-D float array
    that share one NaN pattern."""
    nan = np.isnan(rows)
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (nan[1:] != nan[:-1]).any(axis=1)
    starts = np.flatnonzero(new).tolist()
    for s, e in zip(starts, starts[1:] + [len(rows)]):
        template = ",".join(np.where(nan[s], "", "%.12g").tolist()) + "\n"
        yield template, e - s, tuple(rows[s:e][~nan[s:e]].tolist())


def _list_runs(rows):
    """(template, row count, cells) per run of rows with one template; each
    cell is classified once, and the cells with an empty spec are dropped."""
    for spec, run in itertools.groupby(rows, key=lambda row: tuple(map(_cell, row))):
        run = list(run)
        cells = tuple(x for row in run for kind, x in zip(spec, row) if kind)
        yield ",".join(spec) + "\n", len(run), cells


def write_csv(path, header, rows) -> None:
    """CSV text; each run of rows with one template is one "%" block.  rows
    is a 2-D float array or a sequence of rows of any cells."""
    runs = _array_runs(rows) if isinstance(rows, np.ndarray) else _list_runs(rows)
    blocks = [",".join(header) + "\n"]
    blocks += [(template * count) % cells for template, count, cells in runs]
    atomic_write_text(path, "".join(blocks))

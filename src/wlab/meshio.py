"""Mesh and report output: OBJ export, CSV writers, atomic file writes.

Numbers are written with "%.9g" in OBJ files and "%.12g" in CSV files.  An
OBJ of fewer than _OBJ_VECTOR_MIN_VERTICES vertices is three "%" blocks: the
vertices, the normals, and the faces, whose corners are gathered from a
table of "k//k" tokens by index arrays.  A larger OBJ is built by numpy,
_OBJ_CHUNK_LINES lines at a time, in NUL-padded byte slots: a "%.9g" token
per number (_g9_slots) and a "k//k" token per face corner (_face_tokens);
one bytes.translate per chunk drops the NULs.  Both paths return the same
text.  A float array handed to write_csv gets its templates from one
np.isnan over the whole array: each run of rows with one NaN pattern (NaN
is an empty cell) is one block.  Other rows are classified cell by cell.
All writes go through a new file in the target directory, created with
mode 0o666 less the umask, followed by an atomic rename.
"""
from __future__ import annotations

import functools
import itertools
import math
import os

import numpy as np

from .surface import ParamSurface, evaluate_jet, interior_grid

# Vertex count from which obj_text builds its text with numpy: the "%"
# blocks are faster up to 12 x 12 grids, numpy from 16 x 16 up
# (BENCH_obj_text.json, "crossover", tools/obj_text_sweep.py).
_OBJ_VECTOR_MIN_VERTICES = 256
_OBJ_CHUNK_LINES = 2048     # lines per chunk of the vector path
_SLOT = 16                  # bytes of the longest "%.9g" token, "-4.94065646e-324"
_EXP = 20                   # the slot layouts cover decimal exponents -_EXP.._EXP
_TIE = 1e-6                 # a mantissa this close to a rounding tie falls back to "%";
                            # the scaling errs by at most 2.3e-7 on [1e8, 1e9)
_LE64 = np.dtype("<u8")     # slot bytes as words: byte j is bits 8j..8j+7


def _new_file(directory: str):
    """(fd, path) of a new file in directory, opened for writing with mode
    0o666 less the umask."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    while True:
        path = os.path.join(directory, ".wlab-%s.tmp" % os.urandom(8).hex())
        try:
            return os.open(path, flags, 0o666), path
        except FileExistsError:
            continue


def atomic_write_text(path, text: str) -> None:
    path = os.fspath(path)
    fd, tmp = _new_file(os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
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


def _face_corners(nu: int, nv: int) -> np.ndarray:
    """0-based vertex index of each face corner, three per triangle and two
    triangles per grid cell."""
    a = (np.arange(nu - 1)[:, None] * nv + np.arange(nv - 1)).ravel()
    b, c = a + 1, a + nv
    d = c + 1
    return np.stack((a, b, d, a, d, c), axis=1).ravel()


def _obj_text_percent(verts, normals, nu: int, nv: int) -> str:
    """OBJ text as one "%" block per section."""
    blocks = [("v %.9g %.9g %.9g\n" * len(verts)) % tuple(verts.ravel().tolist()),
              ("vn %.9g %.9g %.9g\n" * len(normals)) % tuple(normals.ravel().tolist())]
    tokens = np.array(["%d//%d" % (k, k) for k in range(1, nu * nv + 1)], dtype=object)
    corners = _face_corners(nu, nv)
    blocks.append(("f %s %s %s\n" * (len(corners) // 3)) % tuple(tokens[corners].tolist()))
    return "".join(blocks)


@functools.cache
def _digit_tables():
    """(padded, trailing) over the four-digit groups g = 0..9999: the ASCII
    digits of g zero-padded ("0042") as the little-endian uint32 of the four
    bytes, and their trailing zeros (4 for g = 0)."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    padded = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    padded = padded.reshape(-1, 4).view("<u4").ravel()
    trailing = np.zeros(10 ** 4, dtype=np.intp)
    for step in (10, 100, 1000, 10000):
        trailing[::step] += 1
    for table in (padded, trailing):
        table.flags.writeable = False
    return padded, trailing


@functools.cache
def _g9_layouts():
    """Tables of _g9_slots: lit_lo, lit_hi, a_lo, a_hi, b_lo, b_hi and
    offset per code (sign, exponent e, digits kept n) plus "0" and "-0"
    last; up and down per e.  A code's 16-byte "%.9g" layout is its literal
    bytes (lit, as two little-endian uint64 words) OR the mantissa digits
    shifted offset bytes to the right and masked by run a (the digits before
    the decimal point) OR shifted offset + 1 bytes and masked by run b (the
    digits after it).  Each layout is read off "%.9g" of the value whose
    kept digits are 1..n, so a digit d before any 'e' marks mantissa digit
    d - 1.  |x| * up[e] / down[e] takes |x| in [10**e, 10**(e+1)) to
    [10**8, 10**9); both are exact powers of ten except up[e] for e < -14."""
    kept = np.arange(1, 10)
    values = (123456789 // 10 ** (9 - kept)) * 10.0 ** (np.arange(-_EXP, _EXP + 1)[:, None] - kept + 1)
    values = values.ravel().tolist()
    values += [-x for x in values] + [0.0, -0.0]
    layout = np.array((("%.9g\n" * len(values)) % tuple(values)).encode().split(), dtype="S%d" % _SLOT)
    layout = layout.view(np.uint8).reshape(-1, _SLOT)
    mantissa = np.cumsum(layout == ord("e"), axis=1) == 0
    digit = mantissa & (layout >= ord("1")) & (layout <= ord("9"))
    shift = np.arange(_SLOT) - (layout.astype(np.intp) - ord("1"))
    offset = np.where(digit, shift, _SLOT).min(axis=1) % _SLOT     # 0 for "0" and "-0"
    words = lambda table: table.astype(np.uint8).view(_LE64).T.copy()
    tables = (*words(np.where(digit, 0, layout)),
              *words(0xFF * (digit & (shift == offset[:, None]))),
              *words(0xFF * (digit & (shift == offset[:, None] + 1))),
              (8 * offset).astype(np.uint64),
              np.array([float("1e%d" % max(8 - e, 0)) for e in range(-_EXP, _EXP + 1)]),
              np.array([float("1e%d" % max(e - 8, 0)) for e in range(-_EXP, _EXP + 1)]))
    for table in tables:
        table.flags.writeable = False
    return tables


def _g9_slots(x: np.ndarray) -> np.ndarray:
    """(len(x), _SLOT) uint8: "%.9g" % x[i], NUL-padded on the right, for a
    1-D float array.  Per value: the decimal exponent e from log10, |x|
    scaled to [10**8, 10**9) and rounded to the 9-digit mantissa, its ASCII
    digits from _digit_tables as a 128-bit (lo, hi) word pair, and the
    token layout of (sign, e, digits kept) from _g9_layouts.  Non-finite
    values, |e| > _EXP, and mantissas within _TIE of a rounding tie or
    outside [10**8, 10**9] (a log10 off by one) are formatted by "%" one by
    one."""
    lit_lo, lit_hi, a_lo, a_hi, b_lo, b_hi, offset, up, down = _g9_layouts()
    padded, trailing = _digit_tables()
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    zero = a == 0.0
    regular = np.isfinite(a) & ~zero
    a = np.where(regular, a, 1.0)
    e = np.floor(np.log10(a))
    regular &= np.abs(e) <= _EXP
    e = np.clip(e, -_EXP, _EXP).astype(np.intp) + _EXP
    s = a * up[e] / down[e]
    r = np.rint(s)
    regular &= (np.abs(s - r) < 0.5 - _TIE) & (r >= 1e8) & (r <= 1e9)
    carry = r == 1e9
    r[carry] = 1e8
    e += carry
    regular &= e <= 2 * _EXP
    head, last = np.divmod(np.where(regular, r, 1e8).astype(np.intp), 10)
    top, mid = np.divmod(head, 10 ** 4)
    lo = padded[top].astype(_LE64) | (padded[mid].astype(_LE64) << 32)
    hi = (last + ord("0")).astype(_LE64)
    kept = 9 - (last == 0) * (1 + trailing[mid] + (mid == 0) * trailing[top])
    sign = np.signbit(x)
    code = np.where(zero, len(offset) - 2 + sign,
                    (sign * (2 * _EXP + 1) + np.minimum(e, 2 * _EXP)) * 9 + kept - 1)
    bits = offset[code]
    spill = lo >> 1             # lo >> (64 - bits) is spill >> (63 - bits), also for bits = 0
    slots = np.empty((len(x), 2), dtype=_LE64)
    slots[:, 0] = lit_lo[code] | (lo << bits) & a_lo[code] | (lo << bits + 8) & b_lo[code]
    slots[:, 1] = (lit_hi[code] | ((hi << bits) | (spill >> 63 - bits)) & a_hi[code]
                   | ((hi << bits + 8) | (spill >> 55 - bits)) & b_hi[code])
    slots = slots.view(np.uint8)
    odd = np.flatnonzero(~(regular | zero))
    if odd.size:
        tokens = [("%.9g" % v).encode() for v in x[odd].tolist()]
        slots[odd] = np.array(tokens, dtype="S%d" % _SLOT).view(np.uint8).reshape(-1, _SLOT)
    return slots


def _face_tokens(count: int) -> np.ndarray:
    """Void items of "f k//k ", "k//k " and "k//k\\n" for k = 1..count, the
    first, middle and last corner of a face line, in three runs of count.
    The w digits of k come from _digit_tables, NUL-padded on the left."""
    padded, _ = _digit_tables()
    k = np.arange(1, count + 1)
    w = len(str(count))
    groups = [padded[k // 10 ** (4 * i) % 10 ** 4] for i in reversed(range(-(-w // 4)))]
    digits = np.stack(groups, axis=1).view(np.uint8)[:, -w:]
    digits[k[:, None] < 10 ** np.arange(w - 1, -1, -1)] = 0     # leading zeros
    token = np.concatenate((digits, np.full((count, 2), ord("/"), np.uint8), digits), axis=1)
    items = np.zeros((3, count, 2 * w + 5), dtype=np.uint8)
    items[0, :, :2] = np.frombuffer(b"f ", dtype=np.uint8)
    items[0, :, 2:-1] = token
    items[1:, :, :-3] = token
    items[0, :, -1] = items[1, :, -3] = ord(" ")
    items[2, :, -3] = ord("\n")
    return items.view(np.dtype((np.void, 2 * w + 5))).ravel()


def _lines(prefix: bytes, slots: np.ndarray) -> str:
    """Text of one line per row of slots, shape (lines, k, width): prefix,
    then the k slots separated by spaces, then a newline; NULs dropped."""
    n, k, width = slots.shape
    out = np.empty((n, len(prefix) + k * (width + 1)), dtype=np.uint8)
    out[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    body = out[:, len(prefix):].reshape(n, k, width + 1)
    body[:, :, :width] = slots
    body[:, :, width] = ord(" ")
    body[:, -1, width] = ord("\n")
    return out.tobytes().translate(None, b"\0").decode("ascii")


def _obj_text_vector(verts, normals, nu: int, nv: int) -> str:
    """OBJ text built by numpy, _OBJ_CHUNK_LINES lines at a time."""
    step = _OBJ_CHUNK_LINES
    blocks = [_lines(prefix, _g9_slots(xyz[i:i + step].ravel()).reshape(-1, 3, _SLOT))
              for prefix, xyz in ((b"v ", verts), (b"vn ", normals))
              for i in range(0, len(xyz), step)]
    tokens = _face_tokens(nu * nv)
    corners = _face_corners(nu, nv)
    corners += np.arange(len(corners)) % 3 * (nu * nv)    # the corner's run in tokens
    blocks += [tokens[corners[i:i + 3 * step]].tobytes().translate(None, b"\0").decode("ascii")
               for i in range(0, len(corners), 3 * step)]
    return "".join(blocks)


def obj_text(verts: np.ndarray, normals: np.ndarray, nu: int, nv: int) -> str:
    """OBJ text: "v" and "vn" lines of "%.9g" numbers, then two triangles
    per grid cell as "f k//k ..." lines.  The bytes do not depend on which
    path builds them."""
    build = _obj_text_vector if nu * nv >= _OBJ_VECTOR_MIN_VERTICES else _obj_text_percent
    return build(verts, normals, nu, nv)


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

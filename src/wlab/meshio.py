"""Mesh and report output: OBJ export, CSV writers, atomic file writes.

Numbers are written with "%.9g" in OBJ files and "%.12g" in CSV files.  One
generator, _float_lines, turns a 2-D float array into text, one line per
row, OBJ "v" and "vn" sections and CSVs alike; a CSV may add one label
column of str cells (harmonics pass, fit labeling).  A table of fewer than
_VECTOR_MIN_CELLS numbers is one "%" block, or at the CSV width one per run
of rows with one NaN pattern (an empty cell) and label, a literal in the
block's template.  A larger one is built by numpy in NUL-padded byte slots,
a number's token from one kernel at either width (_g_slots) or a label,
a chunk at a time; one bytes.translate per chunk drops the NULs.  Both
paths yield the same bytes, and the writer takes each chunk to the file as
it comes: no text is held whole.

An OBJ's faces are built by numpy a run of whole grid rows at a time, at
most _OBJ_CHUNK_LINES lines: each line's corners are row slices of the
chunk's "k//k" vertex tokens (_face_tokens).  The numpy CSV path is
_CSV_CHUNK_CELLS cells a chunk, which keeps every temporary below glibc's
128 KiB mmap threshold: a 9,216-cell grid formatted at once took fresh
pages for its temporaries on each call, and its minor page faults ate the
gain over "%".

All writes go through a new file in the target directory, created with
mode 0o666 less the umask, followed by an atomic rename; an OBJ's jets are
evaluated before that file is created.
"""
from __future__ import annotations

import functools
import itertools
import math
import os

import numpy as np

from .errors import OutputError
from .surface import ParamSurface, evaluate_jet, interior_grid

# Cell count from which a float table is built with numpy, OBJ and CSV alike:
# OBJ sections tie at 16 x 16 (768 numbers), "%" wins below and numpy above;
# 9-column analyze CSVs tie between 1,152 and 2,304 cells, numpy 10% slower at
# 1,152 (BENCH_text_writer.json; tools/text_sweep.py --format obj|csv).
_VECTOR_MIN_CELLS = 768
_OBJ_CHUNK_LINES = 2048     # lines per OBJ chunk of the vector path
_CSV_CHUNK_CELLS = 2048     # cells per CSV chunk of the vector path
_OBJ_DIGITS, _CSV_DIGITS = 9, 12
_EXP = 20                   # the slot layouts cover decimal exponents -_EXP.._EXP
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


def _atomic_write(path, chunks) -> None:
    """Each bytes chunk of chunks, as it arrives, to a new file in path's
    directory through a buffered writer (which completes short writes),
    renamed over path.  On any error the new file is removed; an OSError is
    raised as OutputError."""
    path = os.fspath(path)
    tmp = None
    try:
        fd, tmp = _new_file(os.path.dirname(path) or ".")
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def atomic_write_text(path, text: str) -> None:
    """text, UTF-8 encoded, by _atomic_write."""
    _atomic_write(path, (text.encode(),))


def obj_grid(surface: ParamSurface, nu: int, nv: int):
    """Vertex parameter grid for export: the u of interior_grid, v over the
    closed period [0, 2 pi] (seam vertices duplicated so that vertex and
    face counts stay nu*nv and 2 (nu-1)(nv-1))."""
    return interior_grid(surface, nu, nv)[0], np.linspace(0.0, 2.0 * math.pi, nv)


def surface_mesh(surface: ParamSurface, nu: int, nv: int):
    """(vertices, normals) arrays of shape (nu*nv, 3), v fastest, from the
    1-jet: p, Xu and Xv only."""
    jet = evaluate_jet(surface, *obj_grid(surface, nu, nv), order=1)
    return jet.p.reshape(-1, 3), jet.normal.reshape(-1, 3)


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
def _g_layouts(digits: int):
    """Tables of _g_slots at "%.<digits>g": lit, run_a and run_b, each a
    tuple of one uint64 array per slot word, and offset, per code (sign,
    exponent e, digits kept n) plus "0" and "-0" last; up and down per e.
    A slot is 8 bytes per word, enough for the longest token
    ("-4.94065646e-324" at 9 digits, 16 bytes; 19 of 24 at 12).  A code's
    layout is its literal bytes (lit) OR the mantissa digits shifted offset
    bytes to the right and masked by run a (the digits before the decimal
    point) OR shifted offset + 1 bytes and masked by run b (the digits after
    it).  Each layout is read off one "%" block of the values whose kept
    digits are a prefix of 123456789123, so the i-th digit 1-9 before any
    'e' is mantissa digit i.  |x| * up[e] / down[e] takes |x| in
    [10**e, 10**(e+1)) to [10**(digits-1), 10**digits); both are exact
    powers of ten except up[e] for e < digits - 23."""
    width = 8 * -(-(digits + 7) // 8)
    kept = np.arange(1, digits + 1)
    stencil = 123456789123 // 10 ** (12 - digits)
    values = (stencil // 10 ** (digits - kept)) * 10.0 ** (np.arange(-_EXP, _EXP + 1)[:, None] - kept + 1)
    text = (("%%.%dg\n" % digits) * values.size) % tuple(values.ravel().tolist())
    text += "-" + text[:-1].replace("\n", "\n-") + "\n0\n-0\n"    # the negatives, then zeros
    layout = np.array(text.encode().split(), dtype="S%d" % width).view(np.uint8).reshape(-1, width)
    mantissa = np.cumsum(layout == ord("e"), axis=1, dtype=np.int8) == 0
    digit = mantissa & (layout >= ord("1")) & (layout <= ord("9"))
    shift = np.arange(width, dtype=np.int8) - np.cumsum(digit, axis=1, dtype=np.int8) + 1
    offset = digit.argmax(axis=1)[:, None]      # the first digit's shift; 0 for "0" and "-0"
    words = lambda table: tuple(table.view(_LE64).T.copy())
    tables = (words(np.where(digit, 0, layout)),
              words((digit & (shift == offset)) * np.uint8(0xFF)),
              words((digit & (shift == offset + 1)) * np.uint8(0xFF)),
              (8 * offset.ravel()).astype(np.uint64),
              np.array([float("1e%d" % max(digits - 1 - e, 0)) for e in range(-_EXP, _EXP + 1)]),
              np.array([float("1e%d" % max(e - digits + 1, 0)) for e in range(-_EXP, _EXP + 1)]))
    for table in (*tables[0], *tables[1], *tables[2], *tables[3:]):
        table.flags.writeable = False
    return tables


def _g_slots(x: np.ndarray, digits: int) -> np.ndarray:
    """(len(x), slot width) uint8: "%.<digits>g" % x[i], NUL-padded on the
    right, for a 1-D float array and digits 9 or 12; at 12 digits, the CSV
    width, NaN is an empty slot (an empty cell).  Per value: the decimal
    exponent e from log10, |x| scaled to [10**(digits-1), 10**digits) and
    rounded to the mantissa M, exact in int64, whose ASCII digits come from
    _digit_tables as two 4-digit groups and a tail of digits - 8, and the
    token layout of (sign, e, digits kept) from _g_layouts.  Non-finite
    values, |e| > _EXP, and mantissas within 10**(digits-15) of a rounding
    tie (the scaling errs by at most about 2.3 * 10**(digits-16), 2.3e-4 on
    [1e11, 1e12)) or outside [10**(digits-1), 10**digits] (a log10 off by
    one) are formatted by "%" one by one."""
    lit, run_a, run_b, offset, up, down = _g_layouts(digits)
    padded, trailing = _digit_tables()
    low, tail = 10.0 ** (digits - 1), digits - 8
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
    regular &= (np.abs(s - r) < 0.5 - 10.0 ** (digits - 15)) & (r >= low) & (r <= 10 * low)
    carry = r == 10 * low
    r[carry] = low
    e += carry
    regular &= e <= 2 * _EXP
    head, last = np.divmod(np.where(regular, r, low).astype(np.intp), 10 ** tail)
    top, mid = np.divmod(head, 10 ** 4)
    lo = padded[top].astype(_LE64) | (padded[mid].astype(_LE64) << 32)
    end = last == 0
    if tail == 1:       # one ASCII digit; a table lookup here cost the 9-digit kernel 5%
        words, tail_zeros = (lo, (last + ord("0")).astype(_LE64)), end
    else:
        words, tail_zeros = (lo, padded[last].astype(_LE64)), trailing[last]
    kept = digits - tail_zeros - end * (trailing[mid] + (mid == 0) * trailing[top])
    sign = np.signbit(x)
    code = np.where(zero, len(offset) - 2 + sign,
                    (sign * (2 * _EXP + 1) + np.minimum(e, 2 * _EXP)) * digits + kept - 1)
    bits = offset[code]
    slots = np.empty((len(x), len(lit)), dtype=_LE64)
    for k in range(len(lit)):   # a third word holds only what the second spills
        shifted_a, shifted_b = (words[k] << bits, words[k] << bits + 8) if k < 2 else (0, 0)
        if k:
            spill = words[k - 1] >> 1   # w >> (64 - bits) is spill >> (63 - bits), also for bits = 0
            shifted_a = shifted_a | spill >> 63 - bits
            shifted_b = shifted_b | spill >> 55 - bits
        slots[:, k] = lit[k][code] | shifted_a & run_a[k][code] | shifted_b & run_b[k][code]
    slots = slots.view(np.uint8)
    odd = np.flatnonzero(~(regular | zero))
    if odd.size:
        spec = "%%.%dg" % digits
        tokens = [b"" if v != v and digits == _CSV_DIGITS else (spec % v).encode()
                  for v in x[odd].tolist()]
        slots[odd] = np.array(tokens, dtype="S%d" % slots.shape[1]).view(np.uint8).reshape(len(odd), -1)
    return slots


def _face_tokens(k: np.ndarray, w: int) -> np.ndarray:
    """The "k//k" token of each vertex number in k, a 2-D array ascending in
    C order, as void items of 2 w + 2 bytes in k's shape.  The w digits come
    from _digit_tables, one gather per four-digit group, NUL-padded on the
    left: the leading digits of k < 10, k < 100, ... are zeroed by slices."""
    padded, _ = _digit_tables()
    high, groups = k.ravel(), -(-w // 4)
    quads = np.empty((high.size, groups), dtype="<u4")
    for g in range(groups - 1, -1, -1):
        high, low = np.divmod(high, 10 ** 4) if g else (None, high)
        quads[:, g] = padded[low]
    for p, below in enumerate(np.searchsorted(k.ravel(), 10 ** np.arange(1, w)), 1):
        quads.view(np.uint8)[:below, 4 * groups - w:4 * groups - p] = 0
    run = (np.void, w)
    digits = quads.view(np.dtype({"names": ["d"], "formats": [run], "offsets": [4 * groups - w],
                                  "itemsize": 4 * groups}))["d"].reshape(k.shape)
    token = np.empty(k.shape, dtype=[("k", run), ("s", "S2"), ("v", run)])
    token["k"], token["s"], token["v"] = digits, b"//", digits
    return token.view(np.dtype((np.void, 2 * w + 2)))


def _lines(prefix: bytes, slots: np.ndarray, k: int, sep: str) -> bytes:
    """Text of one line per k rows of slots, shape (lines * k, width):
    prefix, then the k slots separated by sep, then a newline; NULs
    dropped."""
    width = slots.shape[1]
    out = np.empty((len(slots) // k, len(prefix) + k * (width + 1)), dtype=np.uint8)
    out[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    body = out[:, len(prefix):].reshape(-1, k, width + 1)
    body[:, :, :width] = slots.reshape(-1, k, width)
    body[:, :, width] = ord(sep)
    body[:, -1, width] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def _float_lines(prefix: bytes, rows: np.ndarray, digits: int, sep: str, chunk_cells: int,
                 label=None):
    """Text of a 2-D float array as bytes chunks, a line per row: prefix and
    the row's "%.<digits>g" cells joined by sep.  At the CSV width NaN is an
    empty cell, and label, (column, cells), puts a str cell per row (ASCII,
    at most a slot's 24 bytes) as it is at that column.  From
    _VECTOR_MIN_CELLS numbers up numpy builds chunk_cells cells (at least a
    row) a chunk; below, a "%" block per run of one NaN pattern and label."""
    k, labelled = rows.shape[1], label is not None
    if labelled:
        column, cells = label[0], np.asarray(label[1], dtype=str)
    if rows.size >= _VECTOR_MIN_CELLS:
        step = max(1, chunk_cells // (k + labelled))
        for i in range(0, len(rows), step):
            slots = _g_slots(rows[i:i + step].ravel(), digits)
            if labelled:        # each label cell a slot of its own
                w = slots.shape[1]
                tags = cells[i:i + step].astype("S%d" % w).view(np.uint8).reshape(-1, w)
                slots = np.insert(slots.reshape(len(tags), k, w), column, tags, axis=1)
            yield _lines(prefix, slots.reshape(-1, slots.shape[-1]), k + labelled, sep)
        return
    spec, head = "%%.%dg" % digits, prefix.decode()
    nan = np.isnan(rows) if digits == _CSV_DIGITS else None     # "%.9g" writes NaN as "nan"
    if not labelled and (nan is None or not nan.any()):
        line = head + sep.join([spec] * k) + "\n"
        yield ((line * len(rows)) % tuple(rows.ravel().tolist())).encode()
        return
    empties = nan.tolist()
    keys = list(zip(empties, cells.tolist())) if labelled else empties
    starts = [i for i in range(len(rows)) if i == 0 or keys[i] != keys[i - 1]]
    values = rows.ravel().tolist()
    for s, e in zip(starts, starts[1:] + [len(rows)]):
        fields = ["%.0s" if x else spec for x in empties[s]]    # "%.0s" writes NaN as ""
        if labelled:
            fields.insert(column, keys[s][1].replace("%", "%%"))
        yield (((head + sep.join(fields) + "\n") * (e - s)) % tuple(values[s * k:e * k])).encode()


def _face_lines(nu: int, nv: int):
    """Two triangles per grid cell, (a, b, d) then (a, d, c) for corners a =
    (i, j), b = (i, j + 1), c = (i + 1, j) and d = (i + 1, j + 1), as lines
    "f k//k k//k k//k" with k = i nv + j + 1, a chunk per run of whole cell
    rows (or of one row's cells) of at most _OBJ_CHUNK_LINES lines.  The
    corners are row slices of the chunk's _face_tokens, copied into one
    record buffer whose literal fields are set once a call; NULs are
    dropped only from chunks with vertex numbers shorter than nu nv's."""
    w = len(str(nu * nv))
    cols = min(nv - 1, _OBJ_CHUNK_LINES // 2)
    rows = min(nu - 1, _OBJ_CHUNK_LINES // (2 * cols))
    item = (np.void, 2 * w + 2)
    record = list(zip("fasbtcn", ("S2", item, "S1", item, "S1", item, "S1")))
    buffer = np.empty(2 * rows * cols, dtype=record)
    buffer["f"], buffer["s"], buffer["t"], buffer["n"] = b"f ", b" ", b" ", b"\n"
    for i, j in itertools.product(range(0, nu - 1, rows), range(0, nv - 1, cols)):
        r, c = min(rows, nu - 1 - i), min(cols, nv - 1 - j)
        tok = _face_tokens(np.arange(i, i + r + 1)[:, None] * nv + np.arange(j + 1, j + c + 2), w)
        line = buffer[:2 * r * c].reshape(r, c, 2)
        line["a"] = tok[:-1, :-1, None]
        line["b"][..., 0] = tok[:-1, 1:]
        line["c"][..., 0] = line["b"][..., 1] = tok[1:, 1:]
        line["c"][..., 1] = tok[1:, :-1]
        text = line.tobytes()
        yield text.translate(None, b"\0") if i * nv + j + 1 < 10 ** (w - 1) else text


def _obj_chunks(verts: np.ndarray, normals: np.ndarray, nu: int, nv: int):
    """OBJ text as bytes chunks: "v" and "vn" lines of "%.9g" numbers, then the faces."""
    yield from _float_lines(b"v ", verts, _OBJ_DIGITS, " ", 3 * _OBJ_CHUNK_LINES)
    yield from _float_lines(b"vn ", normals, _OBJ_DIGITS, " ", 3 * _OBJ_CHUNK_LINES)
    yield from _face_lines(nu, nv)


def write_obj(path, surface: ParamSurface, nu: int, nv: int) -> None:
    """The OBJ of surface on an nu x nv grid; its jets are evaluated before
    the file is created."""
    _atomic_write(path, _obj_chunks(*surface_mesh(surface, nu, nv), nu, nv))


def write_csv(path, header, rows, label=None) -> None:
    """CSV text: the header line, then the lines of rows, a 2-D float array,
    and of label, a str column (_float_lines)."""
    lines = _float_lines(b"", rows, _CSV_DIGITS, ",", _CSV_CHUNK_CELLS, label)
    _atomic_write(path, itertools.chain([(",".join(header) + "\n").encode()], lines))

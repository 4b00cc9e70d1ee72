"""Independent checks of the files each wlab CLI job writes.

Every check reads only the job's spec and the files on disk; it recomputes
nothing with wlab.  check_job returns a list of problems, empty when the
job did what its spec says.
"""
from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from workloads import NOT_LW, RIEMANN, ROTATIONAL, UMBILIC, Job

# Relation residual accepted on scenes known to be LW, relative to
# max(1, |kappa|): the tolerance of the acceptance suite (criteria 5 and 6).
LW_TOL = 1e-6
UNIT_NORMAL_TOL = 1e-6
OBJ_BLOCK = 4096

# Verdict lines of the fit report, by the category the workload expects.
VERDICT_PREFIX = {
    UMBILIC: "umbilic",
    ROTATIONAL: "rotational LW surface",
    RIEMANN: "Riemann minimal example",
    NOT_LW: "not LW",
}


def output_files(job: Job, out: str) -> list:
    """Files the job writes on success."""
    base = os.path.join(out, job.scene.name)
    return {
        "generate": [base + ".obj", base + ".meta.json"],
        "export": [base + ".obj"],
        "analyze": [base + ".analysis.csv"],
        "harmonics": [base + ".harmonics.csv"],
        "fit": [base + ".report.txt", base + ".fit.csv"],
    }[job.command]


def check_obj(path: str, nu: int, nv: int) -> list:
    """Streams the file in blocks of OBJ_BLOCK lines into preallocated
    arrays, so the checker holds far less memory than the OBJ text that wlab
    builds, and peak_rss_mb stays wlab's own."""
    n, n_faces = nu * nv, 2 * (nu - 1) * (nv - 1)
    v, vn = np.empty((n, 3)), np.empty((n, 3))
    counts = {b"v": 0, b"vn": 0, b"f": 0}
    lo, hi = 1, 1
    problems = []

    def parse(tag, block):
        nonlocal lo, hi
        start = counts[tag]
        counts[tag] += len(block)
        values = np.array(b" ".join(block).replace(b"//", b" ").split(), dtype=float)
        if tag == b"f":
            if values.size:
                lo, hi = min(lo, values.min()), max(hi, values.max())
        elif counts[tag] <= n:
            (v if tag == b"v" else vn)[start:counts[tag]] = values.reshape(-1, 3)

    with open(path, "rb") as fh:
        try:
            while True:
                lines = list(itertools.islice(fh, OBJ_BLOCK))
                if not lines:
                    break
                blocks = {b"v": [], b"vn": [], b"f": []}
                for ln in lines:
                    tag, _, rest = ln.partition(b" ")
                    if tag in blocks:
                        blocks[tag].append(rest)
                for tag, block in blocks.items():
                    parse(tag, block)
        except ValueError as exc:
            return [f"obj: unparsable numbers ({exc})"]
    if counts[b"v"] != n or counts[b"vn"] != n:
        problems.append(f"obj: {counts[b'v']} vertices / {counts[b'vn']} normals, want {n}")
        return problems
    if counts[b"f"] != n_faces:
        problems.append(f"obj: {counts[b'f']} faces, want {n_faces}")
    if not (np.isfinite(v).all() and np.isfinite(vn).all()):
        problems.append("obj: non-finite vertex or normal")
    elif np.abs(np.linalg.norm(vn, axis=1) - 1.0).max() > UNIT_NORMAL_TOL:
        problems.append("obj: normals are not unit length")
    if lo < 1 or hi > n:
        problems.append("obj: face index out of range")
    return problems


def check_meta(path: str, job: Job) -> list:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    meta = json.loads(text)
    problems = []
    if json.dumps(meta, indent=2, sort_keys=True) + "\n" != text:
        problems.append("meta.json: not in canonical form")
    want = json.loads(job.scene.text)
    want["grid"] = list(job.grid)
    if meta.get("config") != want:
        problems.append("meta.json: config does not round-trip")
    if not isinstance(meta.get("truncated"), bool):
        problems.append("meta.json: truncated flag missing")
    return problems


def _read_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _float(cell: str) -> float:
    return float(cell) if cell else math.nan


def check_analysis(path: str, job: Job) -> list:
    header, rows = _read_csv(path)
    nu, nv = job.grid
    problems = []
    if len(rows) != nu * nv:
        problems.append(f"analysis: {len(rows)} rows, want {nu * nv}")
    values = np.array([[_float(c) for c in r] for r in rows], dtype=float)
    if values.size == 0 or not np.isfinite(values).all():
        return problems + ["analysis: non-finite values"]
    if job.scene.lw_known:
        col = {name: i for i, name in enumerate(header)}
        m, n = job.scene.relation
        k1, k2 = values[:, col["kappa1"]], values[:, col["kappa2"]]
        res = np.minimum(np.abs(values[:, col["res_linear"]]),
                         np.abs(k2 - m * k1 - n))
        scale = np.maximum(1.0, np.maximum(np.abs(k1), np.abs(k2)))
        worst = float((res / scale).max())
        if worst >= LW_TOL:
            problems.append(f"analysis: LW residual {worst:.2e} >= {LW_TOL:g}")
    return problems


def check_fit(report_path: str, csv_path: str, job: Job) -> list:
    with open(report_path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    problems = []
    want = VERDICT_PREFIX[job.scene.verdict]
    if not first.startswith("verdict: " + want):
        problems.append(f"fit: {first!r}, want 'verdict: {want}...'")
    header, rows = _read_csv(csv_path)
    if header != ["labeling", "m", "n", "rms"] or len(rows) > 2:
        problems.append("fit.csv: unexpected layout")
    elif not all(math.isfinite(_float(c)) for r in rows for c in r[1:]):
        problems.append("fit.csv: non-finite fit")
    return problems


def check_harmonics(path: str, job: Job) -> list:
    header, rows = _read_csv(path)
    J = job.max_harmonic
    if len(rows) != len(job.u_list) * (J + 1):
        return [f"harmonics: {len(rows)} rows, want {len(job.u_list) * (J + 1)}"]
    col = {name: i for i, name in enumerate(header)}
    for i, row in enumerate(rows):
        u, j = _float(row[col["u"]]), int(row[col["j"]])
        if j != i % (J + 1) or not math.isclose(u, job.u_list[i // (J + 1)],
                                                rel_tol=1e-9, abs_tol=1e-12):
            return [f"harmonics: row {i} is (u={u}, j={j})"]
        if not (math.isfinite(_float(row[col["dft_A"]]))
                and math.isfinite(_float(row[col["dft_B"]]))):
            return [f"harmonics: non-finite coefficient in row {i}"]
    return []


def check_job(job: Job, code: int, out: str) -> list:
    """Problems with one finished job: exit code first, then its files."""
    if code != job.scene.expect_exit:
        return [f"exit code {code}, want {job.scene.expect_exit}"]
    if code != 0:
        return []
    files = output_files(job, out)
    missing = [f for f in files if not os.path.exists(f)]
    if missing:
        return [f"missing output {os.path.basename(f)}" for f in missing]
    nu, nv = job.grid
    if job.command == "generate":
        return check_obj(files[0], nu, nv) + check_meta(files[1], job)
    if job.command == "export":
        return check_obj(files[0], nu, nv)
    if job.command == "analyze":
        return check_analysis(files[0], job)
    if job.command == "fit":
        return check_fit(files[0], files[1], job)
    return check_harmonics(files[0], job)


def fails_run(job: Job, code, problems: list) -> bool:
    """Whether a failed job makes the whole run incorrect.  Every failure
    does, except a malformed config that wlab accepts (exit 0 where 1 is
    expected): a known defect of the seed commit, counted in `failed` only."""
    return bool(problems) and not (job.scene.expect_exit == 1 and code == 0)

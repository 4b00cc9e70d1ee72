#!/usr/bin/env python3
"""Time meshio's float-table writer: both paths per OBJ grid size or CSV row count, or the kernel alone.

    python3 tools/text_sweep.py --format obj [--reps 30]
        [--sizes 8,12,16,24,32,48,64,96,128]
    python3 tools/text_sweep.py --format csv [--reps 30] [--seed 5]
        [--rows 36,64,128,256,512,1024,4096]
    python3 tools/text_sweep.py --format kernel [--reps 30] [--counts 2048,6144]

One constant, meshio._VECTOR_MIN_CELLS, sends a float table of that many
cells or more to numpy and a smaller one to "%" blocks, for OBJ sections
and CSV arrays alike; an OBJ's faces are numpy's on both paths, so an OBJ
call times both paths' "v" and "vn" sections plus the same faces.  Each
path is forced as the tests force it, by setting that constant to 0
("vector") or above every table size ("percent").  Each input is first checked to give
the same bytes on both paths; then the two paths are timed alternately,
--reps calls each per input, in CPU seconds (time.process_time).  A call
writes one file in a temporary directory as write_obj and write_csv do:
meshio._atomic_write drains the OBJ chunks (meshio._obj_chunks; the jets
are not timed), and write_csv writes the CSV.  Prints one JSON object
whose "crossover" maps each size to the median and quartiles of each path
in ms.  The crossover is read off those medians.

obj: for each n in --sizes, the n x n meshes of the sphere, cylinder,
torus and catenoid fixtures (wlab.meshio.surface_mesh), 3 n^2 cells per
section.  Each size also gives its vertex count, and the output ends with
the tracemalloc peak of one 96 x 96 torus call per path in MB.

csv: for each row count R in --rows, `wlab analyze` runs on the four
scenes of the fine-grid workload of bench/workloads.py (riemann-example,
rotational-lw, cyclic, riemann-type) at an nu x nv grid with nu * nv = R
and nu the largest divisor of R not above its square root, and the header
and float array each job hands to write_csv (9 columns) are written.  Each
row count also gives its cell count, and each path the median minor page
faults per call (ru_minflt of getrusage) and the tracemalloc peak of a call
on the first scene's table in MB.

kernel: meshio._g_slots alone, the kernel that writes the numbers of the
numpy path, at 9 digits (OBJ) and 12 (CSV) on each count of --counts
values: the first numbers of the "v" and "vn" sections of the 96 x 96
sphere, cylinder, torus and catenoid meshes, in turn.  It is first
checked to give "%" tokens, then timed --reps rounds of the four meshes.
Prints, per width and count, the median and quartiles of one call's CPU
in ms, the median minor page faults per call and the tracemalloc peak of
one call in KB.  The CPU swings with the machine from one process to the
next, and a fresh loop like this one can take fresh pages where a job
does not (a job's heap stays grown between calls): to compare two trees,
time both kernels in one interpreter, or their jobs.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from wlab import cli, meshio  # noqa: E402
from wlab.generators import gen_fixture  # noqa: E402
from workloads import make_workload  # noqa: E402

FIXTURES = (("sphere", {"radius": 2.0}), ("cylinder", {"radius": 1.0}),
            ("torus", {"radius_major": 2.0, "radius_minor": 1.0}), ("catenoid", {"radius": 1.0}))
# the meshio._VECTOR_MIN_CELLS that forces each path
FORCED = {"percent": sys.maxsize, "vector": 0}


def write_obj_chunks(out: str, verts, normals, nu: int, nv: int) -> None:
    """write_obj's file writing, on given vertices and normals."""
    meshio._atomic_write(out, meshio._obj_chunks(verts, normals, nu, nv))


def _quartiles(samples) -> dict:
    q1, q2, q3 = np.percentile(np.array(samples) * 1e3, [25, 50, 75])
    return {"median_ms": round(q2, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def write(path: str, writer, args, out: str) -> None:
    """One call: writer(out, *args) on the forced path."""
    meshio._VECTOR_MIN_CELLS = FORCED[path]
    writer(out, *args)


def sweep(writer, inputs, reps: int, out: str) -> tuple:
    """(per-path CPU seconds, per-path minor faults) over reps alternating
    calls of each path on each argument tuple in inputs, after checking
    that both paths give the same bytes."""
    times = {name: [] for name in FORCED}
    faults = {name: [] for name in FORCED}
    for label, args in inputs:
        texts = []
        for name in FORCED:
            write(name, writer, args, out)
            with open(out, "rb") as fh:
                texts.append(fh.read())
        if texts[0] != texts[1]:
            sys.exit(f"text_sweep: the two paths differ on {label}")
        for rep in range(reps):
            order = list(FORCED)
            for name in order if rep % 2 else order[::-1]:
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.process_time()
                write(name, writer, args, out)
                times[name].append(time.process_time() - start)
                faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
    return times, faults


def peak_mb(path: str, writer, args, out: str) -> float:
    """The tracemalloc peak of one call, after a warm call, in MB."""
    write(path, writer, args, out)
    tracemalloc.start()
    write(path, writer, args, out)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 1e6, 3)


def obj_sweep(args, tmp: str) -> dict:
    result, out = {}, os.path.join(tmp, "mesh.obj")
    for n in (int(s) for s in args.sizes.split(",")):
        meshes = [(f"{kind} at {n} x {n}",
                   (*meshio.surface_mesh(gen_fixture(kind, **params), n, n), n, n))
                  for kind, params in FIXTURES]
        times, _ = sweep(write_obj_chunks, meshes, args.reps, out)
        result[f"{n}x{n}"] = {"vertices": n * n,
                              **{name: _quartiles(t) for name, t in times.items()}}
    torus = meshio.surface_mesh(gen_fixture("torus", radius_major=2.0, radius_minor=1.0), 96, 96)
    return {"crossover": result,
            "tracemalloc_peak_mb_96x96": {
                path: peak_mb(path, write_obj_chunks, (*torus, 96, 96), out) for path in FORCED}}


def grid(rows: int) -> tuple:
    nu = max(d for d in range(1, int(rows ** 0.5) + 1) if rows % d == 0)
    return nu, rows // nu


def analyze_tables(scenes, rows: int, tmp: str) -> list:
    """(label, (header, array)) that `wlab analyze` writes for each scene at
    a grid of rows points."""
    tables = []
    real = cli.write_csv
    nu, nv = grid(rows)
    cli.write_csv = lambda path, header, array: tables.append(
        (f"a {array.shape} array", (header, array)))
    try:
        for scene in scenes:
            config = os.path.join(tmp, scene.name + ".json")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(scene.text)
            argv = ["analyze", "--config", config, "--out", tmp, "--grid", f"{nu}x{nv}"]
            if cli.main(argv) != 0:
                sys.exit(f"text_sweep: analyze failed on {scene.name} at {nu} x {nv}")
    finally:
        cli.write_csv = real
    return tables


def csv_sweep(args, tmp: str) -> dict:
    scenes, result = make_workload("fine-grid", args.seed).scenes, {}
    out = os.path.join(tmp, "table.csv")
    for rows in (int(r) for r in args.rows.split(",")):
        tables = analyze_tables(scenes, rows, tmp)
        times, faults = sweep(meshio.write_csv, tables, args.reps, out)
        result[str(rows)] = {
            "cells": int(tables[0][1][1].size),
            **{name: {**_quartiles(times[name]), "minflt": float(np.median(faults[name])),
                      "peak_mb": peak_mb(name, meshio.write_csv, tables[0][1], out)}
               for name in FORCED}}
    return {"crossover": result}


def kernel_sweep(args, tmp: str) -> dict:
    numbers = [np.concatenate([a.ravel() for a in meshio.surface_mesh(gen_fixture(kind, **params), 96, 96)])
               for kind, params in FIXTURES]
    result = {}
    for digits in (meshio._OBJ_DIGITS, meshio._CSV_DIGITS):
        spec = "%%.%dg" % digits
        for count in (int(c) for c in args.counts.split(",")):
            inputs = [np.ascontiguousarray(x[:count]) for x in numbers]
            for x in inputs:
                tokens = [bytes(row).rstrip(b"\0").decode() for row in meshio._g_slots(x, digits)]
                if tokens != [spec % v for v in x.tolist()]:
                    sys.exit(f"text_sweep: _g_slots differs from {spec!r} on {count} values")
            times, faults = [], []
            for _ in range(args.reps):
                for x in inputs:
                    flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    start = time.process_time()
                    meshio._g_slots(x, digits)
                    times.append(time.process_time() - start)
                    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
            tracemalloc.start()
            meshio._g_slots(inputs[0], digits)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            result[f"{digits}x{count}"] = {**_quartiles(times), "minflt": float(np.median(faults)),
                                           "peak_kb": round(peak / 1e3, 1)}
    return {"kernel": result}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("obj", "csv", "kernel"), required=True)
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--sizes", default="8,12,16,24,32,48,64,96,128",
                        help="obj: grid sizes n of the n x n meshes")
    parser.add_argument("--seed", type=int, default=5, help="csv: fine-grid workload seed")
    parser.add_argument("--rows", default="36,64,128,256,512,1024,4096",
                        help="csv: row counts of the analyze tables")
    parser.add_argument("--counts", default="2048,6144",
                        help="kernel: numbers per _g_slots call (at most 55,296)")
    args = parser.parse_args()
    sweeper = {"obj": obj_sweep, "csv": csv_sweep, "kernel": kernel_sweep}[args.format]
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(sweeper(args, tmp), indent=1))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Time both CSV text paths of wlab.meshio per row count.

    python3 tools/csv_text_sweep.py [--reps 30] [--seed 5]
        [--rows 36,64,128,256,512,1024,4096]

For each row count R in --rows, runs `wlab analyze` on the four scenes of
the fine-grid workload of bench/workloads.py (riemann-example,
rotational-lw, cyclic, riemann-type) at an nu x nv grid with nu * nv = R
and nu the largest divisor of R not above its square root, and keeps the
header and float array each job hands to write_csv (9 columns).  It checks that
_csv_text_percent and _csv_text_vector return the same text, then times
the two paths alternately, --reps calls each per scene, in CPU seconds
(time.process_time), and counts the minor page faults of each call
(ru_minflt of getrusage).  Prints one JSON object: per row count, the cell
count, and per path the median and quartiles in ms and the median minor
faults per call.  The crossover constant meshio._CSV_VECTOR_MIN_CELLS is
read off the per-row-count medians.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from obj_text_sweep import _quartiles  # noqa: E402
from wlab import cli, meshio  # noqa: E402
from workloads import make_workload  # noqa: E402

PATHS = {"percent": meshio._csv_text_percent, "vector": meshio._csv_text_vector}


def grid(rows: int) -> tuple:
    nu = max(d for d in range(1, int(rows ** 0.5) + 1) if rows % d == 0)
    return nu, rows // nu


def analyze_tables(scenes, rows: int, tmp: str) -> list:
    """(header, array) that `wlab analyze` writes for each scene at a grid
    of rows points."""
    tables = []
    real = cli.write_csv
    cli.write_csv = lambda path, header, array: tables.append((header, array))
    try:
        for scene in scenes:
            config = os.path.join(tmp, scene.name + ".json")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(scene.text)
            nu, nv = grid(rows)
            argv = ["analyze", "--config", config, "--out", tmp, "--grid", f"{nu}x{nv}"]
            if cli.main(argv) != 0:
                sys.exit(f"csv_text_sweep: analyze failed on {scene.name} at {nu} x {nv}")
    finally:
        cli.write_csv = real
    return tables


def sweep(tables, reps: int) -> dict:
    times = {name: [] for name in PATHS}
    faults = {name: [] for name in PATHS}
    for header, rows in tables:
        if PATHS["percent"](header, rows) != PATHS["vector"](header, rows):
            sys.exit(f"csv_text_sweep: the two paths differ on a {rows.shape} array")
        for rep in range(reps):
            order = list(PATHS.items())
            for name, path in order if rep % 2 else order[::-1]:
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.process_time()
                path(header, rows)
                times[name].append(time.process_time() - start)
                faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt)
    return {"cells": int(tables[0][1].size),
            **{name: {**_quartiles(times[name]), "minflt": float(np.median(faults[name]))}
               for name in PATHS}}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--rows", default="36,64,128,256,512,1024,4096")
    args = parser.parse_args()
    scenes = make_workload("fine-grid", args.seed).scenes
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        for rows in (int(r) for r in args.rows.split(",")):
            result[str(rows)] = sweep(analyze_tables(scenes, rows, tmp), args.reps)
    print(json.dumps({"crossover": result}, indent=1))


if __name__ == "__main__":
    main()

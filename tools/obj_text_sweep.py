#!/usr/bin/env python3
"""Time both OBJ text paths of wlab.meshio per grid size.

    python3 tools/obj_text_sweep.py [--reps 30] [--sizes 8,12,16,24,32,48,64,96,128]

For each n in --sizes, builds the n x n meshes of the sphere, cylinder,
torus and catenoid fixtures (wlab.meshio.surface_mesh), checks that
_obj_text_percent and _obj_text_vector return the same text, and times
the two paths alternately, --reps calls each per fixture, in CPU seconds
(time.process_time).  Prints one JSON object: per size, the median and
quartiles of each path in ms and the vertex count, then the tracemalloc
peak of one 96 x 96 torus obj_text per path in MB.  The crossover
constant meshio._OBJ_VECTOR_MIN_VERTICES is read off the per-size medians.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from wlab import meshio  # noqa: E402
from wlab.generators import gen_fixture  # noqa: E402

FIXTURES = (("sphere", {"radius": 2.0}), ("cylinder", {"radius": 1.0}),
            ("torus", {"radius_major": 2.0, "radius_minor": 1.0}), ("catenoid", {"radius": 1.0}))
PATHS = {"percent": meshio._obj_text_percent, "vector": meshio._obj_text_vector}


def _quartiles(samples) -> dict:
    q1, q2, q3 = np.percentile(np.array(samples) * 1e3, [25, 50, 75])
    return {"median_ms": round(q2, 4), "q1_ms": round(q1, 4), "q3_ms": round(q3, 4)}


def sweep(n: int, reps: int) -> dict:
    times = {name: [] for name in PATHS}
    for kind, params in FIXTURES:
        mesh = meshio.surface_mesh(gen_fixture(kind, **params), n, n)
        texts = {name: path(*mesh, n, n) for name, path in PATHS.items()}
        if texts["percent"] != texts["vector"]:
            sys.exit(f"obj_text_sweep: the two paths differ on {kind} at {n} x {n}")
        for rep in range(reps):
            order = list(PATHS.items())
            for name, path in order if rep % 2 else order[::-1]:
                start = time.process_time()
                path(*mesh, n, n)
                times[name].append(time.process_time() - start)
    return {"vertices": n * n, **{name: _quartiles(t) for name, t in times.items()}}


def peak_mb(path, mesh, n: int) -> float:
    path(*mesh, n, n)
    tracemalloc.start()
    path(*mesh, n, n)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return round(peak / 1e6, 3)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30)
    parser.add_argument("--sizes", default="8,12,16,24,32,48,64,96,128")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    result = {"crossover": {f"{n}x{n}": sweep(n, args.reps) for n in sizes}}
    torus = meshio.surface_mesh(gen_fixture("torus", radius_major=2.0, radius_minor=1.0), 96, 96)
    result["tracemalloc_peak_mb_96x96"] = {name: peak_mb(path, torus, 96)
                                          for name, path in PATHS.items()}
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""CPU and peak memory of the jobs at the point cap, config.MAX_POINTS.

    python3 tools/point_cap.py TREE [--max-harmonic J] [--grid N]

Runs three jobs through TREE's wlab.cli.main on one riemann-type scene
(a = 0.7u + 0.3 sin 1.7u, b = 0.3u + 0.2 cos 1.7u, r = 1.1 + 0.2 sin u on
[-1, 1], relation (m, n) = (1.5, 0)), each in a fresh interpreter:

    wlab harmonics --u-list 0.1 --max-harmonic J     (default 2000000)
    wlab analyze --grid NxN                          (default 2048)
    wlab export --grid NxN                           (the same N)

At the defaults all three are at the cap: one circle of 2 J + 2 = 4,000,002
samples, and 2048 x 2048 = 2^22 grid points for the analyze CSV and for the
OBJ (about 760 MB).  Prints one JSON object: the
tree, the src/wlab line count and, per job, its argv, exit code, output
bytes with the first 16 hex digits of their sha256 (files in name order),
the CPU of the cli.main call (time.process_time, so the interpreter start
and the imports are not in it) and the process's peak RSS after it (VmHWM,
in MB; it includes the imports).  Smaller J and N make a quick run.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

import parity

SCENE = {"kind": "riemann-type", "name": "cap",
         "params": {"a": "0.7*u + 0.3*sin(1.7*u)", "b": "0.3*u + 0.2*cos(1.7*u)",
                    "r": "1.1 + 0.2*sin(u)", "u_range": [-1.0, 1.0]},
         "relation": [1.5, 0.0], "grid": [16, 16]}


def jobs(max_harmonic: int, grid: int) -> dict:
    """{name: wlab argv without --config and --out} of the cap jobs."""
    return {"harmonics": ["harmonics", "--u-list", "0.1", "--max-harmonic", str(max_harmonic)],
            "analyze": ["analyze", "--grid", f"{grid}x{grid}"],
            "export": ["export", "--grid", f"{grid}x{grid}"]}


def record(tree: str, argv: list) -> dict:
    """One job of tree's wlab.cli.main in this interpreter, with its
    config and outputs in a temporary directory."""
    cli = parity.load_tree(tree)
    with tempfile.TemporaryDirectory(prefix="wlab-point-cap-") as work:
        config, out = os.path.join(work, "cap.json"), os.path.join(work, "out")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(SCENE, fh)
        t0 = time.process_time()
        code = cli.main(argv + ["--config", config, "--out", out])
        cpu = time.process_time() - t0
        vmhwm = parity.process_state()["maxrss_mb"]
        digest, written = hashlib.sha256(), 0
        for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, name), "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
                    written += len(block)
    return {"exit": code, "bytes": written, "sha256": digest.hexdigest()[:16],
            "cpu_s": round(cpu, 3), "vmhwm_mb": round(vmhwm, 1)}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("tree", metavar="TREE")
    p.add_argument("--max-harmonic", type=int, default=2000000)
    p.add_argument("--grid", type=int, default=2048, help="N of the N x N analyze grid")
    p.add_argument("--record", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    return p


def main(argv) -> int:
    args = _parser().parse_args(argv)
    if args.record is not None:
        print(json.dumps(record(args.tree, args.record)))
        return 0
    result = {"tree": os.path.abspath(args.tree), "src_lines": parity._src_lines(args.tree),
              "jobs": {}}
    for name, job in jobs(args.max_harmonic, args.grid).items():
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), args.tree,
                               "--record", *job], env=parity._env(), check=True,
                              capture_output=True, text=True)
        reading = json.loads(proc.stdout.splitlines()[-1])
        result["jobs"][name] = {"argv": " ".join(job), **reading}
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

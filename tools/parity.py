#!/usr/bin/env python3
"""Compare two wlab trees job by job on the benchmark workloads.

    python3 tools/parity.py OLD_TREE NEW_TREE

Runs every job of the sweep, fine-grid and mesh-export workloads (warm-up
jobs included) at seeds 3, 5 and 7 through each tree's wlab.cli.main, all
jobs of one tree in one fresh interpreter.  The jobs and the files each
one writes come from this checkout's bench/workloads.py and bench/check.py.
Prints each job whose exit code, stderr (with the work directory replaced)
or sha256 of an output file differs, with its scene kind; when any job
differs, a count per (workload, scene kind, command); then a summary line
with the line totals of both trees' src/wlab/*.py, as wc -l counts them,
and the CPU time of `import wlab.cli` in a fresh interpreter per tree
(median of 3) with whether that import loaded scipy; exits 0 only when no
job differs.
"""
from __future__ import annotations

import collections
import contextlib
import glob
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SEEDS = (3, 5, 7)
WORK_MARK = "<work>"
COMPARED = ("exit", "stderr", "files")
IMPORT_PROBES = 3
_IMPORT_PROBE = ("import sys, time; t = time.process_time(); import wlab.cli; "
                 "print(time.process_time() - t, 'scipy' in sys.modules)")


def _sha256(path: str):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def _src_lines(tree: str) -> int:
    """Newlines in tree's src/wlab/*.py, the total of wc -l."""
    total = 0
    for name in glob.glob(os.path.join(tree, "src", "wlab", "*.py")):
        with open(name, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_jobs(tree: str):
    """Runs every job of the workloads at SEEDS, warm-up jobs included,
    through tree's wlab.cli.main, imported into this interpreter, in one
    temporary work directory.  Yields per job its key, its (workload, scene
    kind, command), exit code (or the exception of a crash), stderr with
    the work directory replaced by WORK_MARK, and the paths of the files it
    writes; the files are there until the next job runs."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path[:0] = [src, BENCH]
    import wlab.cli
    from check import output_files
    from workloads import WORKLOADS, make_workload

    if os.path.dirname(os.path.abspath(wlab.__file__)) != os.path.join(src, "wlab"):
        sys.exit(f"parity: imported wlab from {wlab.__file__}, not {src}")
    with tempfile.TemporaryDirectory(prefix="wlab-parity-") as work:
        for name in WORKLOADS:
            for seed in SEEDS:
                w = make_workload(name, seed)
                base = os.path.join(work, f"{name}-{seed}")
                out = os.path.join(base, "out")
                os.makedirs(out)
                configs = {}
                for scene in w.scenes:
                    configs[scene.name] = os.path.join(base, scene.name + ".json")
                    with open(configs[scene.name], "w", encoding="utf-8") as fh:
                        fh.write(scene.text)
                for i, job in enumerate(w.warmup_jobs() + w.jobs):
                    files = output_files(job, out)
                    for f in files:
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(f)
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        try:
                            code = wlab.cli.main(job.argv(configs[job.scene.name], out))
                        except SystemExit as exc:
                            code = exc.code
                        except Exception as exc:  # a crash is a result to compare
                            code = f"{type(exc).__name__}: {exc}"
                    key = (f"{name}:{seed}:{i}:{job.scene.name}:{job.command}:"
                           f"{job.grid[0]}x{job.grid[1]}")
                    yield (key, [name, job.scene.kind, job.command], code,
                           err.getvalue().replace(work, WORK_MARK), files)


def record(tree: str, path: str) -> None:
    """Runs every job through tree's wlab.cli.main and writes, per job, its
    (workload, scene kind, command), exit code, stderr and output-file
    digests to path as JSON."""
    results = {key: {"group": group, "exit": code, "stderr": stderr,
                     "files": {os.path.basename(f): _sha256(f) for f in files}}
               for key, group, code, stderr, files in run_jobs(tree)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # one thread, as in bench/run.py, so both trees sum in the same order
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _run_tree(tree: str, path: str) -> dict:
    subprocess.run([sys.executable, os.path.abspath(__file__), "--record", tree, path],
                   env=_env(), check=True)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _import_cost(tree: str) -> str:
    """Median CPU seconds of `import wlab.cli` from tree's src/ over
    IMPORT_PROBES fresh interpreters, and whether it loaded scipy."""
    env = dict(_env(), PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    runs = [subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
            for _ in range(IMPORT_PROBES)]
    scipy = "scipy" if runs[0][1] == "True" else "no scipy"
    return f"{statistics.median(float(r[0]) for r in runs):.2f} s ({scipy})"


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--record":
        record(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="wlab-parity-") as tmp:
        old, new = (_run_tree(tree, os.path.join(tmp, f"{i}.json"))
                    for i, tree in enumerate(argv))
    differ = collections.Counter()
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        both = a is not None and b is not None
        if both and all(a[f] == b[f] for f in COMPARED):
            continue
        workload, kind, command = (a or b)["group"]
        differ[workload, kind, command] += 1
        what = ("missing in one tree" if not both else
                ", ".join(f for f in COMPARED if a[f] != b[f]))
        print(f"{key} ({kind}): {what}")
        if both:
            for f in COMPARED:
                if a[f] != b[f]:
                    print(f"  old {f}: {a[f]!r}\n  new {f}: {b[f]!r}")
    for (workload, kind, command), count in sorted(differ.items()):
        print(f"differ: {workload} {kind} {command}: {count}")
    lines = " -> ".join(str(_src_lines(tree)) for tree in argv)
    imports = " -> ".join(_import_cost(tree) for tree in argv)
    print(f"parity: {len(new)} jobs, {sum(differ.values())} differ; "
          f"src/wlab/*.py lines {lines}; import wlab.cli CPU {imports}")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

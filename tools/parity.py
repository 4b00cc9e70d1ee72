#!/usr/bin/env python3
"""Compare two wlab trees job by job on the benchmark workloads.

    python3 tools/parity.py OLD_TREE NEW_TREE

Runs every job of the sweep, fine-grid and mesh-export workloads (warm-up
jobs included) at seeds 3, 5 and 7 through each tree's wlab.cli.main, all
jobs of one tree in one fresh interpreter.  The jobs and the files each
one writes come from this checkout's bench/workloads.py and bench/check.py.
Prints each job whose exit code, stderr (with the work directory replaced)
or sha256 of an output file differs, with its scene kind.  Under it, for
each output CSV that differs, the largest absolute move of each numeric
column that moved and that move relative to the column's largest value;
and a FLAG line for each changed `pass` cell, report verdict or
True/False line, or metadata `truncated` value.
When any job differs, it then prints a count per (workload, scene kind,
command) and the largest move per (scene kind, CSV, column) over all
jobs; then a summary line with the line totals of both trees'
src/wlab/*.py, as wc -l counts them, the CPU time of `import wlab.cli`
in a fresh interpreter per tree (median of 3) with whether that import
loaded scipy, and, per tree, whether its interpreter had loaded scipy
after all the jobs and its peak RSS then (VmHWM, else ru_maxrss; it
includes the recorded texts); exits 0 only when no job differs.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import glob
import hashlib
import io
import json
import math
import os
import resource
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
# outputs kept as text, so that a difference can be read column by column
TEXT_SUFFIXES = (".csv", ".report.txt", ".meta.json")
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


def load_tree(tree: str):
    """tree's wlab.cli, imported into this interpreter with this checkout's
    bench/ on sys.path; exits when wlab is imported from elsewhere."""
    src = os.path.join(os.path.abspath(tree), "src")
    sys.path[:0] = [src, BENCH]
    import wlab.cli

    if os.path.dirname(os.path.abspath(wlab.__file__)) != os.path.join(src, "wlab"):
        sys.exit(f"{os.path.basename(sys.argv[0])}: imported wlab from {wlab.__file__}, "
                 f"not {src}")
    return wlab.cli


def write_configs(w, base: str) -> dict:
    """{scene name: path} of the config files of workload w, written to base."""
    configs = {}
    for scene in w.scenes:
        configs[scene.name] = os.path.join(base, scene.name + ".json")
        with open(configs[scene.name], "w", encoding="utf-8") as fh:
            fh.write(scene.text)
    return configs


def run_job(cli, job, configs: dict, out: str):
    """(exit code, or the exception of a crash; stderr) of job, run through
    cli.main with its scene's config from configs and its outputs in out."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(job.argv(configs[job.scene.name], out))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a result to compare
            code = f"{type(exc).__name__}: {exc}"
    return code, err.getvalue()


def run_jobs(tree: str):
    """Runs every job of the workloads at SEEDS, warm-up jobs included,
    through tree's wlab.cli.main, imported into this interpreter, in one
    temporary work directory.  Yields per job its key, its (workload, scene
    kind, command), exit code (or the exception of a crash), stderr with
    the work directory replaced by WORK_MARK, and the paths of the files it
    writes; the files are there until the next job runs."""
    cli = load_tree(tree)
    from check import output_files
    from workloads import WORKLOADS, make_workload

    with tempfile.TemporaryDirectory(prefix="wlab-parity-") as work:
        for name in WORKLOADS:
            for seed in SEEDS:
                w = make_workload(name, seed)
                base = os.path.join(work, f"{name}-{seed}")
                out = os.path.join(base, "out")
                os.makedirs(out)
                configs = write_configs(w, base)
                for i, job in enumerate(w.warmup_jobs() + w.jobs):
                    files = output_files(job, out)
                    for f in files:
                        with contextlib.suppress(FileNotFoundError):
                            os.remove(f)
                    code, stderr = run_job(cli, job, configs, out)
                    key = (f"{name}:{seed}:{i}:{job.scene.name}:{job.command}:"
                           f"{job.grid[0]}x{job.grid[1]}")
                    yield (key, [name, job.scene.kind, job.command], code,
                           stderr.replace(work, WORK_MARK), files)


def _text(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def process_state() -> dict:
    """Whether this interpreter has loaded scipy, and its peak RSS in MB:
    VmHWM of /proc/self/status where that file exists, else ru_maxrss (both
    in KiB on Linux).  Linux carries ru_maxrss across fork and exec, so a
    process started by a larger one reads at least that one's size; VmHWM
    is this process's own."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"scipy": "scipy" in sys.modules, "maxrss_mb": kib / 1024.0}


def describe_state(state: dict) -> str:
    return f"{'scipy' if state['scipy'] else 'no scipy'}, peak RSS {state['maxrss_mb']:.1f} MB"


def record(tree: str, path: str) -> None:
    """Runs every job through tree's wlab.cli.main and writes to path as
    JSON, per job, its (workload, scene kind, command), exit code, stderr,
    output-file digests and the text of its CSV, report and metadata files,
    and then the process_state of this interpreter."""
    results = {key: {"group": group, "exit": code, "stderr": stderr,
                     "files": {os.path.basename(f): _sha256(f) for f in files},
                     "texts": {os.path.basename(f): _text(f) for f in files
                               if f.endswith(TEXT_SUFFIXES)}}
               for key, group, code, stderr, files in run_jobs(tree)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"jobs": results, "after": process_state()}, fh)


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_moves(old: str, new: str):
    """({column: (largest absolute move, largest relative move)} over the
    numeric cells of two CSV texts, columns that did not move left out;
    [flag]) for each changed `pass` cell, changed row count or header, and
    cell that is a number in one text only.  The relative move of a column
    is its largest |a - b| over the largest finite |a| or |b| in that column
    of either text, so that cells which are roundoff of zero do not decide
    it."""
    a_rows, b_rows = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
    if not a_rows or not b_rows or a_rows[0] != b_rows[0]:
        return {}, ["header changed"]
    header, moves, sizes, flags = a_rows[0], {}, {}, []
    if len(a_rows) != len(b_rows):
        flags.append(f"rows {len(a_rows) - 1} -> {len(b_rows) - 1}")
    for row, (ra, rb) in enumerate(zip(a_rows[1:], b_rows[1:]), 1):
        for column, ca, cb in zip(header, ra, rb):
            x, y = _number(ca), _number(cb)
            for value in (x, y):
                if value is not None and math.isfinite(value):
                    sizes[column] = max(sizes.get(column, 0.0), abs(value))
            if ca == cb:
                continue
            if column == "pass" or (x is None) != (y is None):
                flags.append(f"row {row} {column}: {ca!r} -> {cb!r}")
            elif x is not None:
                moves[column] = max(moves.get(column, 0.0), abs(x - y))
    return {column: (move, move / sizes[column] if sizes.get(column) else 0.0)
            for column, move in moves.items()}, flags


def text_flags(name: str, old, new) -> list:
    """Changed verdict or True/False lines of a report, or a changed
    `truncated` value of a metadata file."""
    if old is None or new is None:
        return [] if old == new else ["written by one tree only"]
    if name.endswith(".meta.json"):
        a, b = json.loads(old).get("truncated"), json.loads(new).get("truncated")
        return [] if a == b else [f"truncated: {a} -> {b}"]
    if name.endswith(".report.txt"):
        def decision(line):  # the verdict, or the True/False that opens a value
            word = line.partition(": ")[2].split(" ")[0]
            return line if line.startswith("verdict:") else word in ("True", "False") and word

        return [f"{la!r} -> {lb!r}" for la, lb in zip(old.splitlines(), new.splitlines())
                if decision(la) != decision(lb)]
    return []


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
        runs = [_run_tree(tree, os.path.join(tmp, f"{i}.json")) for i, tree in enumerate(argv)]
    old, new = (run["jobs"] for run in runs)
    differ, largest = collections.Counter(), {}
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
        if not both:
            continue
        for f in ("exit", "stderr"):
            if a[f] != b[f]:
                print(f"  old {f}: {a[f]!r}\n  new {f}: {b[f]!r}")
        for name in sorted(a["texts"].keys() | b["texts"].keys()):
            ta, tb = a["texts"].get(name), b["texts"].get(name)
            if ta == tb:
                continue
            flags = text_flags(name, ta, tb)
            if name.endswith(".csv") and ta is not None and tb is not None:
                moves, flags = csv_moves(ta, tb)
                if moves:
                    print(f"  {name} (largest absolute/relative move): " + ", ".join(
                        f"{c} {m[0]:.2g}/{m[1]:.2g}" for c, m in moves.items()))
                for column, move in moves.items():
                    group = (kind, name.rpartition(".")[0].rpartition(".")[2], column)
                    best = largest.get(group, ((0.0, ""), (0.0, "")))
                    largest[group] = tuple(max(old_best, (new_move, key))
                                           for old_best, new_move in zip(best, move))
            for flag in flags:
                print(f"  FLAG {name}: {flag}")
    for (workload, kind, command), count in sorted(differ.items()):
        print(f"differ: {workload} {kind} {command}: {count}")
    for (kind, csv_name, column), (absolute, relative) in sorted(largest.items()):
        print(f"largest move: {kind} {csv_name}.csv {column}: {absolute[0]:.3g} absolute "
              f"({absolute[1]}), {relative[0]:.3g} relative ({relative[1]})")
    lines = " -> ".join(str(_src_lines(tree)) for tree in argv)
    imports = " -> ".join(_import_cost(tree) for tree in argv)
    after = " -> ".join(describe_state(run["after"]) for run in runs)
    print(f"parity: {len(new)} jobs, {sum(differ.values())} differ; "
          f"src/wlab/*.py lines {lines}; import wlab.cli CPU {imports}; "
          f"after the jobs {after}")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

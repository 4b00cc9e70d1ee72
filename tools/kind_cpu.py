#!/usr/bin/env python3
"""CPU and page faults of one benchmark pass per scene kind and command, for
two wlab trees.

    python3 tools/kind_cpu.py OLD_TREE NEW_TREE --workload W --seed N
        [--rounds 5] [--passes 3] [--json PATH]

Each round runs both trees, each in a fresh interpreter, and alternates
which tree goes first.  An interpreter imports its tree's wlab.cli, runs the
workload's warm-up jobs and one untimed pass, then --passes timed passes of
the workload's jobs, and sums the CPU time (time.process_time) of each
(scene kind, command) per pass, and likewise its minor page faults
(ru_minflt of getrusage); a round's reading is the median over its
passes.  As in bench/run.py, each job's CPU time is also scaled to the
reference machine speed by the samples of bench/run.py's reference kernel
(its Speed) taken within a second of the job, one at least every 0.1 s
between jobs.  The jobs come from this checkout's bench/workloads.py and
run through the job runner of tools/parity.py; their exit codes and output
files are not checked (tools/parity.py and bench/check.py do that).

Prints, per (scene kind, command) and per scene kind, the job count, each
tree's median scaled CPU over the rounds with the range of the rounds in
brackets, the relative change of the medians, and each tree's median minor
page faults; --json writes every reading, scaled and raw CPU in seconds and
faults as counts, to PATH.
"""
from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import parity

ALL = "all"


def record(tree: str, workload: str, seed: int, passes: int) -> dict:
    """{"kind:command": [CPU seconds of each timed pass]}, raw and scaled to
    the reference speed, and the same of minor page faults for tree, all
    jobs in this interpreter, the per-kind total under command ALL."""
    cli = parity.load_tree(tree)
    from run import Speed
    from workloads import make_workload

    w = make_workload(workload, seed)
    speed = Speed()
    timed = []      # per timed pass, (keys, CPU seconds, wall start, wall end) per job
    faults = collections.defaultdict(list)
    with tempfile.TemporaryDirectory(prefix="wlab-kind-cpu-") as work:
        configs = parity.write_configs(w, work)
        out = os.path.join(work, "out")

        def run_pass(batch) -> tuple:
            jobs, minflt = [], collections.Counter()
            for job in batch:
                keys = (f"{job.scene.kind}:{job.command}", f"{job.scene.kind}:{ALL}")
                f0, start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
                t0 = time.process_time()
                parity.run_job(cli, job, configs, out)
                seconds, end = time.process_time() - t0, time.perf_counter()
                flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
                jobs.append((keys, seconds, start, end))
                for key in keys:
                    minflt[key] += flt
                speed.catch_up()
            return jobs, minflt

        speed.sample(3)
        run_pass(w.warmup_jobs())
        run_pass(w.jobs)
        for _ in range(passes):
            jobs, minflt = run_pass(w.jobs)
            timed.append(jobs)
            for key, flt in minflt.items():
                faults[key].append(flt)
        speed.sample(3)
    raw, scaled = collections.defaultdict(list), collections.defaultdict(list)
    for jobs in timed:
        cpu, ref = collections.Counter(), collections.Counter()
        for keys, seconds, start, end in jobs:
            for key in keys:
                cpu[key] += seconds
                ref[key] += seconds * speed.scale(start, end)
        for key in cpu:
            raw[key].append(cpu[key])
            scaled[key].append(ref[key])
    counts = collections.Counter(f"{job.scene.kind}:{job.command}" for job in w.jobs)
    counts.update(f"{job.scene.kind}:{ALL}" for job in w.jobs)
    return {"jobs": dict(counts), "cpu_s": dict(scaled), "raw_cpu_s": dict(raw),
            "minflt": dict(faults)}


def _run_tree(tree: str, args) -> dict:
    argv = [sys.executable, os.path.abspath(__file__), "--record", tree,
            "--workload", args.workload, "--seed", str(args.seed),
            "--passes", str(args.passes)]
    proc = subprocess.run(argv, env=parity._env(), check=True, capture_output=True,
                          text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("trees", nargs="+", metavar="TREE")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--passes", type=int, default=3)
    p.add_argument("--json", metavar="PATH", help="write every reading to PATH")
    p.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv) -> int:
    args = _parser().parse_args(argv)
    if args.record:
        result = record(args.trees[0], args.workload, args.seed, args.passes)
        print(json.dumps(result))
        return 0
    if len(args.trees) != 2 or min(args.rounds, args.passes) < 1:
        _parser().error("needs OLD_TREE NEW_TREE, --rounds >= 1 and --passes >= 1")
    runs, raw, faults = ([], []), ([], []), ([], [])
    for i in range(args.rounds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            result = _run_tree(args.trees[side], args)
            for readings, field in ((runs, "cpu_s"), (raw, "raw_cpu_s"), (faults, "minflt")):
                readings[side].append({key: statistics.median(v)
                                       for key, v in result[field].items()})
            jobs = result["jobs"]
    print(f"kind_cpu: {args.workload} seed {args.seed}, {args.rounds} rounds of "
          f"{args.passes} passes; CPU s per pass at the reference speed, old -> new;"
          f" minor page faults per pass")
    # per-kind totals after each kind's commands
    for key in sorted(jobs, key=lambda k: (k.split(":")[0], k.endswith(":" + ALL), k)):
        old, new = ([r[key] for r in side] for side in runs)
        a, b = statistics.median(old), statistics.median(new)
        change = f"{(b - a) / a:+.1%}" if a > 0 else "n/a"
        fa, fb = (statistics.median(r[key] for r in side) for side in faults)
        print(f"{key:28s} {jobs[key]:4d} jobs  {a:.4f} [{min(old):.4f}, {max(old):.4f}]"
              f" -> {b:.4f} [{min(new):.4f}, {max(new):.4f}]  {change}"
              f"  minflt {fa:g} -> {fb:g}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "jobs": jobs,
                       "old_runs": runs[0], "new_runs": runs[1],
                       "old_raw_runs": raw[0], "new_raw_runs": raw[1],
                       "old_minflt": faults[0], "new_minflt": faults[1]}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

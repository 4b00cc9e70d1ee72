#!/usr/bin/env python3
"""wlab benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Generates the workload's scene configs from the seed, then drives
wlab.cli.main([...]) in this process as a single closed-loop client: one job
at a time, back to back, no threads.  Every job's exit code and files are
checked (check.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 runs whole passes over the job list until about --seconds have
been measured and reports the end-to-end metrics.  The CPU time of each
run of a job is scaled to a reference machine speed by a kernel timed within
a second of it; a job's time is the median over its runs.

--trace 1 runs one pass untraced, then installs the outside-in tracer
(tracing.py) and runs the same pass again; it reports the per-layer
metrics, which repeat exactly for a seed, and writes the spans to
bench/.work/.
"""
from __future__ import annotations

import os
import sys

# One closed-loop client: keep BLAS single-threaded and wlab's mesh export
# on its serial path.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WLAB_THREADS", None)

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 3
# CPU seconds the reference kernel takes at the reference machine speed:
# about its time in the slower of the two speed states of the machine
# described in README.md.
REFERENCE_S = 0.0051
KERNEL_EVERY_S = 0.1
# A CPU time is scaled by the kernel samples taken within this many wall
# seconds of the interval it was measured over.
KERNEL_WINDOW_S = 1.0

sys.path.insert(0, HERE)
import numpy as np  # noqa: E402
from check import check_job, fails_run, output_files  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import COMMANDS, WORKLOADS, make_workload  # noqa: E402


def import_wlab():
    """Import wlab from this checkout's src/, and from nowhere else."""
    pkg_dir = os.path.join(SRC, "wlab")
    if not os.path.isfile(os.path.join(pkg_dir, "cli.py")):
        sys.exit(f"bench: no wlab sources at {pkg_dir}; run from a full checkout")
    sys.path.insert(0, SRC)
    import wlab
    import wlab.cli
    if os.path.dirname(os.path.abspath(wlab.__file__)) != pkg_dir:
        sys.exit(f"bench: imported wlab from {wlab.__file__}, not {pkg_dir}")
    return wlab


def reference_kernel() -> float:
    """CPU seconds of fixed work shaped like wlab's per-point jets: small
    numpy arrays, cross and dot products and scalar math in Python.  The
    garbage collector is off while it runs, so that objects a job left
    behind do not time as part of it."""
    gc.disable()
    t0 = time.process_time()
    acc = 0.0
    for i in range(100):
        u = 0.004 * i
        p = np.array([math.cos(u), math.sin(u), u])
        q = np.array([-math.sin(u), math.cos(u), 1.0])
        c = np.cross(p, q)
        acc += float(c @ c) + math.sqrt(float(p @ p))
    seconds = time.process_time() - t0
    gc.enable()
    return seconds


class Speed:
    """Reference-kernel samples and when they were taken.  The machine's
    speed changes from one second to the next, so a CPU time is scaled by
    the samples nearest to it, not by a whole run's."""

    def __init__(self):
        self.at = []
        self.kernel = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.at.append(time.perf_counter())
            self.kernel.append(reference_kernel())

    def catch_up(self) -> None:
        """Samples once per KERNEL_EVERY_S elapsed since the last sample, up
        to 5, so a long job is flanked by enough samples for a median."""
        self.sample(min(5, int((time.perf_counter() - self.at[-1]) / KERNEL_EVERY_S)))

    def scale(self, start: float, end: float) -> float:
        """Factor that takes CPU seconds measured over [start, end] to CPU
        seconds at the reference speed."""
        lo = bisect.bisect_left(self.at, start - KERNEL_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + KERNEL_WINDOW_S)
        return REFERENCE_S / statistics.median(self.kernel[lo:hi] or self.kernel)


class Runner:
    """Writes the configs, runs jobs through wlab.cli.main and checks them."""

    def __init__(self, wlab, workload, tag: str):
        self.main = wlab.cli.main
        self.dir = os.path.join(WORK, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.cfg_dir = os.path.join(self.dir, "configs")
        self.out = os.path.join(self.dir, "out")
        os.makedirs(self.cfg_dir)
        self.paths = {}
        for scene in workload.scenes:
            path = os.path.join(self.cfg_dir, scene.name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(scene.text)
            self.paths[scene.name] = path
        self.samples = {}     # job -> (CPU seconds, wall start, wall end) per run
        self.attempted = 0
        self.failed = 0
        self.problems = []    # (job, exit code, problems) for failed jobs

    def run(self, job, main=None) -> None:
        for path in output_files(job, self.out):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        argv = job.argv(self.paths[job.scene.name], self.out)
        main = main or self.main
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            t0 = time.process_time()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # a crash is a failed job, not a failed run
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.process_time() - t0
            end = time.perf_counter()
        problems = check_job(job, code, self.out)
        self.samples.setdefault(job, []).append((seconds, start, end))
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((job, code, problems))

    def run_pass(self, jobs) -> None:
        for job in jobs:
            self.run(job)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def setup_probe(args) -> None:
    """The set-up every CLI user pays: import, workload, one job per command."""
    wlab = import_wlab()
    workload = make_workload(args.workload, args.seed, args.scale)
    runner = Runner(wlab, workload, f"probe-{os.getpid()}")
    try:
        runner.run_pass(workload.warmup_jobs())
    finally:
        runner.close()


def measure_setup(args, speed) -> float:
    """Median CPU time of SETUP_PROBES fresh interpreters doing setup_probe,
    each scaled by kernel samples taken just before and after it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", repr(args.scale)]
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample(3)
        start, t0 = time.perf_counter(), _children_cpu()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        seconds, end = _children_cpu() - t0, time.perf_counter()
        speed.sample(3)
        times.append(seconds * speed.scale(start, end))
    return statistics.median(times)


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_passes(runner, jobs, seconds: float, speed) -> int:
    """Whole passes, stopping when another one would overshoot by > half.
    Between jobs, times the reference kernel (Speed.catch_up)."""
    speed.sample(3)
    t_start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        for job in jobs:
            runner.run(job)
            speed.catch_up()
        passes += 1
        now = time.perf_counter()
        if now - t_start + 0.5 * (now - t0) >= seconds:
            speed.sample(3)
            return passes


def cpu_total(runner) -> float:
    return sum(cpu for runs in runner.samples.values() for cpu, _, _ in runs)


def end_to_end(runner, speed, setup_s: float) -> dict:
    """Metrics over the distinct jobs of the workload, in CPU seconds at the
    reference speed.  A job's time is the median over its runs.  The
    per-command medians leave out malformed configs, which stop before the
    command's work."""
    jobs = {job: statistics.median(cpu * speed.scale(a, b) for cpu, a, b in runs)
            for job, runs in runner.samples.items()}
    times = list(jobs.values())
    metrics = {
        "setup_s": (setup_s, "s"),
        "points_per_s": (sum(job.points() for job in jobs) / sum(times), "points/s"),
        "job_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
    }
    for cmd in COMMANDS:
        metrics[f"{cmd}_p50_s"] = (statistics.median(
            t for job, t in jobs.items() if job.command == cmd and job.scene.expect_exit == 0),
            "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, jobs, traced, untraced_s: float) -> dict:
    spans = tracer.summary()
    counts = tracer.counts

    def calls(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    points = sum(j.points() for j in jobs)
    circles = sum(len(j.u_list) for j in jobs if j.command == "harmonics" and j.points())
    job_s = total(*(f"cli.{c}" for c in COMMANDS))
    residuals = [f"surface.{n}" for n in ("lw_residual_linear", "lw_residual_signed",
                                          "lw_residual_poly", "lw_residual_reduced",
                                          "lw_residual_poly_scale")]
    m = {
        "config.load_s": (total("config.load_config"), "s"),
        "config.expr_evals": (calls("config.expr"), "count"),
        "config.expr_s": (total("config.expr"), "s"),
        "config.rejected": (counts["config.errors"], "count"),
        "scene.build_s": (total("scene.build_scene"), "s"),
        "scene.builds": (calls("scene.build_scene"), "count"),
    }
    for layer in ("generators", "cyclic"):
        m[f"{layer}.ode_solves"] = (counts[f"{layer}.ode_solves"], "count")
        m[f"{layer}.ode_nfev"] = (counts[f"{layer}.ode_nfev"], "count")
        m[f"{layer}.ode_s"] = (total(f"{layer}.solve_ivp"), "s")
        m[f"{layer}.dense_lookups"] = (calls(f"{layer}.dense"), "count")
        m[f"{layer}.dense_s"] = (total(f"{layer}.dense"), "s")
    m["generators.truncated"] = (counts["generators.truncated"], "count")
    jets = calls("surface.evaluate_jet")
    m.update({
        "functions.evals": (calls("functions.eval", "functions.d1", "functions.d2"), "count"),
        "functions.fd_evals": (counts["functions.fd_evals"], "count"),
        "surface.jets": (jets, "count"),
        "surface.jet_s": (total("surface.evaluate_jet"), "s"),
        "surface.jet_us": (1e6 * _ratio(total("surface.evaluate_jet"), jets), "us"),
        "surface.curvatures": (calls("surface.curvature"), "count"),
        "surface.curvature_s": (total("surface.curvature"), "s"),
        "surface.residuals": (calls(*residuals), "count"),
        "surface.residual_s": (total(*residuals), "s"),
        "surface.errors": (counts["surface.errors"], "count"),
        "surface.jets_per_point": (_ratio(jets, points), "ratio"),
        "harmonics.spectra": (calls("harmonics.extract_harmonics"), "count"),
        "harmonics.extract_s": (total("harmonics.extract_harmonics"), "s"),
        "harmonics.spectra_per_circle":
            (_ratio(calls("harmonics.extract_harmonics"), circles), "ratio"),
        "harmonics.identity_checks": (counts["harmonics.identity_checks"], "count"),
        "harmonics.identity_pass_ratio":
            (_ratio(counts["harmonics.identity_pass"], counts["harmonics.identity_checks"]),
             "ratio"),
        "fitting.classify_s": (total("fitting.classify"), "s"),
        "fitting.sample_s": (total("fitting.sample_curvatures"), "s"),
        "fitting.fit_s": (total("fitting.fit_lw"), "s"),
        "fitting.points": (counts["fitting.points"], "count"),
        "meshio.mesh_s": (total("meshio.surface_mesh"), "s"),
        "meshio.vertices": (counts["meshio.vertices"], "count"),
        "meshio.obj_text_s": (total("meshio.obj_text"), "s"),
        "meshio.write_s": (total("meshio.atomic_write_text"), "s"),
        "meshio.bytes_written": (counts["meshio.bytes_written"], "bytes"),
        "meshio.files_written": (counts["meshio.files_written"], "count"),
        "meshio.csv_rows": (counts["meshio.csv_rows"], "count"),
        "meshio.csv_s": (total("meshio.write_csv"), "s"),
    })
    for cmd in COMMANDS:
        m[f"cli.{cmd}_self_s"] = (spans.get(f"cli.{cmd}", (0, 0.0, 0.0))[2], "s")
    m["cli.jobs"] = (calls(*(f"cli.{c}" for c in COMMANDS)), "count")
    layer_self = {}
    for name, (_, _, own) in spans.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    m["job_s"] = (job_s, "s")
    traced_s = cpu_total(traced)
    m["trace_overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
    m["error_rate"] = (traced.failed / traced.attempted, "fraction")
    return m


def report(runners, metrics) -> None:
    problems = [p for r in runners for p in r.problems]
    for job, _, found in problems[:10]:
        print(f"# FAILED {job.command} {job.scene.name}: {'; '.join(found)}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not any(fails_run(*p) for p in problems),
        "attempted": sum(r.attempted for r in runners),
        "failed": sum(r.failed for r in runners),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def machine() -> str:
    import numpy
    import scipy
    return (f"nproc {os.cpu_count()}, python {sys.version.split()[0]}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink grids and scene counts (smoke test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    wlab = import_wlab()
    workload = make_workload(args.workload, args.seed, args.scale)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    warm = Runner(wlab, workload, tag + "-warmup")
    warm.run_pass(workload.warmup_jobs())
    warm.close()

    runner = Runner(wlab, workload, tag)
    runners = [runner]
    try:
        if args.trace == 0:
            speed = Speed()
            setup_s = measure_setup(args, speed)
            passes = run_passes(runner, workload.jobs, args.seconds, speed)
            print(f"# reference kernel: median {statistics.median(speed.kernel):.6f} s "
                  f"over {len(speed.kernel)} samples")
            metrics = end_to_end(runner, speed, setup_s)
        else:
            passes = 2
            runner.run_pass(workload.jobs)
            untraced_s = cpu_total(runner)
            tracer = Tracer()
            tracer.install(wlab)
            traced = Runner(wlab, workload, tag + "-traced")
            runners.append(traced)
            mains = {cmd: tracer.wrap(runner.main, f"cli.{cmd}") for cmd in COMMANDS}
            try:
                for index, job in enumerate(workload.jobs):
                    tracer.job_id = index
                    traced.run(job, mains[job.command])
            finally:
                traced.close()
            tracer.save(os.path.join(WORK, f"trace-{args.workload}.npz"),
                        [f"{j.scene.name}:{j.command}" for j in workload.jobs])
            metrics = per_layer(tracer, workload.jobs, traced, untraced_s)
    finally:
        runner.close()
    print(f"# {args.workload} seed {args.seed}: {len(workload.jobs)} jobs x {passes} "
          f"passes, {len(workload.scenes)} scenes; {machine()}")
    report(runners, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())

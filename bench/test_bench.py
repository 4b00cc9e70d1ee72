"""Smoke test of the benchmark at tiny sizes, and a self-test of its checker.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_job, fails_run, output_files  # noqa: E402
from workloads import WORKLOADS, Job, make_workload  # noqa: E402

SCALE = "0.1"


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(res, declared):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    declared = spec()
    assert_metrics(result(workload, 1, 0), declared["end_to_end"])
    first, again = result(workload, 1, 1), result(workload, 1, 1)
    assert_metrics(first, declared["per_layer"])
    counters = [m["name"] for m in declared["per_layer"]
                if m["unit"] in ("count", "ratio", "bytes") or m["name"] == "error_rate"]
    for name in counters:
        assert first["metrics"][name] == again["metrics"][name], name
    for name in ("surface.jets", "scene.builds", "cli.jobs"):
        assert first["metrics"][name]["value"] > 0, name
    assert (first["attempted"], first["failed"]) == (again["attempted"], again["failed"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_configs(workload):
    one = [s.text for s in make_workload(workload, 1).scenes]
    assert one == [s.text for s in make_workload(workload, 1).scenes]
    assert one != [s.text for s in make_workload(workload, 2).scenes]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("sweep", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def ran(tmp_path):
    """Run one job per command of a tiny fine-grid workload for real."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from wlab.cli import main

    workload = make_workload("fine-grid", 3, scale=0.1)
    scene = next(s for s in workload.scenes if s.name == "rtype")
    cfg = tmp_path / "rtype.json"
    cfg.write_text(scene.text)
    out = str(tmp_path / "out")

    def run(command, grid=(5, 6)):
        job = Job(scene, command, grid, scene.u_list)
        code = main(job.argv(str(cfg), out))
        return job, code, out
    return run


def corrupt(path, edit):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edit(text))


def test_checker_accepts_real_outputs(ran):
    for command in ("generate", "analyze", "fit", "harmonics", "export"):
        job, code, out = ran(command)
        assert check_job(job, code, out) == [], command


def test_checker_rejects_truncated_obj(ran):
    job, code, out = ran("export")
    corrupt(output_files(job, out)[0], lambda t: t[: len(t) // 2])
    assert check_job(job, code, out)


def test_checker_rejects_flipped_verdict(ran):
    job, code, out = ran("fit")
    corrupt(output_files(job, out)[0],
            lambda t: t.replace("not LW of Riemann-type", "rotational LW surface"))
    assert check_job(job, code, out)


def test_checker_rejects_non_finite_analysis(ran):
    job, code, out = ran("analyze")

    def nan_in_first_row(text):
        lines = text.split("\n")
        lines[1] = lines[1].rsplit(",", 1)[0] + ",nan"
        return "\n".join(lines)
    corrupt(output_files(job, out)[0], nan_in_first_row)
    assert check_job(job, code, out)


def test_checker_rejects_edited_meta(ran):
    job, code, out = ran("generate")
    corrupt(output_files(job, out)[1], lambda t: t.replace("rtype", "other"))
    problems = check_job(job, code, out)
    assert problems and fails_run(job, code, problems)


def test_failed_valid_job_makes_run_incorrect(ran):
    job, code, out = ran("fit")
    assert code == 0 and not fails_run(job, code, check_job(job, code, out))
    for bad in (1, 2, "RuntimeError: boom"):
        problems = check_job(job, bad, out)
        assert problems == [f"exit code {bad}, want 0"]
        assert fails_run(job, bad, problems), bad


def test_accepted_malformed_config_fails_job_only(ran):
    job, _, out = ran("fit")
    malformed = next(s for s in make_workload("sweep", 1, scale=0.1).scenes
                     if s.expect_exit == 1)
    job = Job(malformed, "fit", job.grid, malformed.u_list)
    assert check_job(job, 1, out) == []
    problems = check_job(job, 0, out)
    assert problems and not fails_run(job, 0, problems)
    for bad in (2, "RuntimeError: boom"):
        assert fails_run(job, bad, check_job(job, bad, out)), bad

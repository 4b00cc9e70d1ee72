"""The scripts under tools/ import wlab's modules, private names included,
so a change in src/ can break them; these tests run each one on a small
input."""
import ast
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")
sys.path.insert(0, TOOLS)

import parity  # noqa: E402
import traffic  # noqa: E402

MODULE = '''\
"""A module docstring."""
import os
from dataclasses import dataclass


@dataclass
class Point:
    """A class docstring."""
    x: float
    y: float = 0.0


def used(flag):
    """A function docstring."""
    if flag:
        return 1
    for i in range(3):
        flag += i
    return flag


def unused():
    return 2
'''


def _line(text: str) -> int:
    """The line number of the one line of MODULE that is text, stripped."""
    lines = [i for i, line in enumerate(MODULE.splitlines(), 1) if line.strip() == text]
    assert len(lines) == 1, text
    return lines[0]


def test_traffic_unexecuted_on_a_synthetic_module():
    """With the lines of an import and a call used(True), the statements that
    did not run are the for loop, once and without its body, the return
    after it and the body of unused; docstrings and the field x, which have
    no line that runs, are not reported."""
    ran = {_line(text) for text in (
        "import os", "from dataclasses import dataclass", "@dataclass",
        "class Point:", "y: float = 0.0", "def used(flag):", "if flag:",
        "return 1", "def unused():")}
    missed = list(traffic.unexecuted(ast.parse(MODULE).body, ran))
    assert [stmt.lineno for stmt in missed] == [
        _line("for i in range(3):"), _line("return flag"), _line("return 2")]


def test_parity_src_lines_is_wc_l():
    files = sorted(glob.glob(os.path.join(ROOT, "src", "wlab", "*.py")))
    wc = subprocess.run(["wc", "-l", *files], capture_output=True, text=True, check=True)
    total = int(wc.stdout.splitlines()[-1].split()[0])
    assert parity._src_lines(ROOT) == total


def test_obj_text_sweep_runs():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "obj_text_sweep.py"),
                           "--reps", "1", "--sizes", "4,16"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert sorted(result["crossover"]) == ["16x16", "4x4"]
    for n in (4, 16):
        size = result["crossover"][f"{n}x{n}"]
        assert size["vertices"] == n * n
        for path in ("percent", "vector"):
            assert size[path]["q1_ms"] <= size[path]["median_ms"] <= size[path]["q3_ms"]
    assert sorted(result["tracemalloc_peak_mb_96x96"]) == ["percent", "vector"]


def test_csv_text_sweep_runs():
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "csv_text_sweep.py"),
                           "--reps", "1", "--rows", "16,36"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert sorted(result["crossover"]) == ["16", "36"]
    for rows in (16, 36):
        size = result["crossover"][str(rows)]
        assert size["cells"] == 9 * rows
        for path in ("percent", "vector"):
            assert size[path]["q1_ms"] <= size[path]["median_ms"] <= size[path]["q3_ms"]
            assert size[path]["minflt"] >= 0


def test_parity_csv_moves_per_column():
    """The largest absolute move of each numeric column that moved, and
    that move over the column's largest finite magnitude in either text,
    and a flag for a changed pass cell and for a cell that is a number in
    one text only."""
    old = "u,H,pass\n0.5,2,True\n1,-4,\n1.5,1e-3,False\n"
    new = "u,H,pass\n0.5,2.5,True\n1,-4.1,\n1.5,nan,True\n"
    moves, flags = parity.csv_moves(old, new)
    assert moves == {"H": (0.5, 0.5 / 4.1)}
    assert flags == ["row 3 pass: 'False' -> 'True'"]
    moves, flags = parity.csv_moves(old, new.replace("nan", ""))
    assert flags == ["row 3 H: '1e-3' -> ''", "row 3 pass: 'False' -> 'True'"]
    assert parity.csv_moves(old, old) == ({}, [])
    assert parity.csv_moves(old, old + "2,0,\n") == ({}, ["rows 3 -> 4"])
    # a cell that is roundoff of zero moves by 2 of itself, 3.5e-15 of the column
    moves, _ = parity.csv_moves("j,A\n0,2\n12,3.5e-15\n", "j,A\n0,2\n12,-3.5e-15\n")
    assert moves == {"A": (7e-15, 3.5e-15)}


def test_parity_text_flags():
    """A changed verdict or True/False report line, or a changed truncated
    value, is flagged; a moved fit number is not."""
    report = ("verdict: rotational LW surface\nis_LW: True (rms residual 1e-16)\n"
              "fit (k1 = m k2 + n): m = 0.5, n = 0.5, rms = 1.8e-16\n")
    moved = report.replace("1.8e-16", "2.1e-16").replace("1e-16)", "3e-16)")
    assert parity.text_flags("a.report.txt", report, moved) == []
    flipped = report.replace("rotational LW surface", "not LW").replace("True", "False")
    assert parity.text_flags("a.report.txt", report, flipped) == [
        "'verdict: rotational LW surface' -> 'verdict: not LW'",
        "'is_LW: True (rms residual 1e-16)' -> 'is_LW: False (rms residual 1e-16)'"]
    meta = '{"config": {}, "truncated": false}\n'
    assert parity.text_flags("a.meta.json", meta, meta.replace("false", "true")) == [
        "truncated: False -> True"]
    assert parity.text_flags("a.meta.json", meta, meta) == []
    assert parity.text_flags("a.meta.json", meta, None) == ["written by one tree only"]


def test_parity_reports_scipy_and_peak_rss():
    """process_state tells whether the interpreter has loaded scipy and its
    peak RSS, which never falls; the summary line names both per tree."""
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); import parity; "
             "before = parity.process_state(); import scipy.special; "
             "print(json.dumps([before, parity.process_state()]))")
    proc = subprocess.run([sys.executable, "-c", probe, TOOLS], capture_output=True, text=True,
                          check=True, timeout=120)
    before, after = json.loads(proc.stdout)
    assert (before["scipy"], after["scipy"]) == (False, True)
    assert 0.0 < before["maxrss_mb"] <= after["maxrss_mb"]
    assert parity.describe_state({"scipy": False, "maxrss_mb": 37.94}) == (
        "no scipy, peak RSS 37.9 MB")
    assert parity.describe_state({"scipy": True, "maxrss_mb": 84.2}) == "scipy, peak RSS 84.2 MB"


def test_kind_cpu_runs(tmp_path):
    """Two rounds over the fine-grid jobs: one table row per command and
    one per kind, and a JSON file with each side's readings."""
    path = tmp_path / "kind_cpu.json"
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "kind_cpu.py"), ROOT, ROOT,
                           "--workload", "fine-grid", "--seed", "5",
                           "--rounds", "2", "--passes", "1", "--json", str(path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[0] for line in proc.stdout.splitlines()[1:]]
    assert [row for row in rows if row.startswith("cyclic:")] == [
        f"cyclic:{c}" for c in ("analyze", "export", "fit", "generate", "harmonics", "all")]
    result = json.loads(path.read_text())
    assert result["jobs"]["cyclic:all"] == 5
    assert sorted(result["jobs"]) == sorted(rows)
    for side in ("old_runs", "new_runs"):
        assert len(result[side]) == 2
        assert all(run["cyclic:all"] > 0 for run in result[side])

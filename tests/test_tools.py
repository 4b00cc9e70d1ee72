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

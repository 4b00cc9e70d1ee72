#!/usr/bin/env python3
"""List the statements of src/wlab that no benchmark job executes.

    python3 tools/traffic.py

Runs every job of the sweep, fine-grid and mesh-export workloads (warm-up
jobs included) at seeds 3, 5 and 7 through this checkout's wlab.cli.main,
with the job loop of tools/parity.py, under a sys.settrace line tracer
that records only lines of src/wlab.  wlab is imported under the tracer,
so module-level statements count too.  Then prints, per module, each
statement that no job executed: its first line number and source line.  A
compound statement that never ran is printed once, without its body.
Docstrings and dataclass fields (class-level annotations without a value)
are skipped.  Exits 0.  Takes about 25 s on a 2-vCPU virtual machine, where the
same jobs take about 14 s untraced.
"""
from __future__ import annotations

import ast
import glob
import os
import sys

import parity

ROOT = parity.ROOT
WLAB = os.path.join(ROOT, "src", "wlab")


def _skipped(stmt: ast.stmt, in_class: bool) -> bool:
    """A docstring, or a dataclass field."""
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
    return in_class and isinstance(stmt, ast.AnnAssign) and stmt.value is None


def _blocks(stmt: ast.stmt):
    """The statement lists nested directly in stmt."""
    yield from (getattr(stmt, name, None) or [] for name in ("body", "orelse", "finalbody"))
    for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
        yield part.body


def _own_lines(stmt: ast.stmt) -> set:
    """The lines of stmt, its decorators included, that no nested statement
    spans: a compound statement's header and its except/else lines."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    lines = set(range(first, stmt.end_lineno + 1))
    for node in ast.walk(stmt):
        if isinstance(node, ast.stmt) and node is not stmt:
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


def _ran(stmt: ast.stmt, ran: set) -> bool:
    """Whether a line of stmt or of a statement nested in it ran (a try:
    header has no line of its own to run)."""
    return bool(_own_lines(stmt) & ran) or any(
        _ran(child, ran) for body in _blocks(stmt) for child in body)


def unexecuted(body: list, ran: set, in_class: bool = False):
    """The statements of body, and of the bodies of those that ran, that did
    not run."""
    for stmt in body:
        if _skipped(stmt, in_class):
            continue
        if not _ran(stmt, ran):
            yield stmt
            continue
        for block in _blocks(stmt):
            yield from unexecuted(block, ran, isinstance(stmt, ast.ClassDef))


def trace_jobs() -> dict:
    """{file name: set of line numbers} of src/wlab run by the jobs."""
    ran = {}

    def lines(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if os.path.dirname(name) != WLAB:
            return None
        ran.setdefault(name, set())
        return lines

    sys.settrace(calls)
    try:
        for _ in parity.run_jobs(ROOT):
            pass
    finally:
        sys.settrace(None)
    return ran


def main() -> int:
    ran = trace_jobs()
    total = 0
    for path in sorted(glob.glob(os.path.join(WLAB, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        missed = list(unexecuted(ast.parse(source).body, ran.get(path, set())))
        total += len(missed)
        print(f"{os.path.basename(path)}: {len(missed)} statements never executed")
        for stmt in missed:
            print(f"  {stmt.lineno:5d}  {text[stmt.lineno - 1].strip()}")
    print(f"traffic: {total} statements of src/wlab never executed by the benchmark jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())

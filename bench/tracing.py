"""Outside-in tracing of wlab: spans around calls into each module.

Nothing inside src/wlab is edited.  install() rebinds every public function
of every wlab module, in every wlab module that binds it, to a wrapper that
records a span; it also wraps each module's solve_ivp (and the OdeSolution
it returns) and the SmoothFunction evaluation methods.  A span carries its
name, start, end, parent span and job id.  Spans stay in compact in-memory
arrays until save() writes them out; summary() derives per-layer counts,
inclusive times and self times from them.
"""
from __future__ import annotations

import collections
import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("config", "scene", "generators", "cyclic", "functions", "surface",
          "harmonics", "fitting", "meshio", "cli")
_SKIP = {("cli", "main"), ("cli", "console")}  # the benchmark calls main itself


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.counts = collections.Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, before=None, after=None):
        """fn inside a span.  before(args) runs first; after(result, args)
        may replace the result.  An exception that leaves the span's layer
        is counted as <layer>.errors."""
        nid, layer = self._id(name), name.split(".", 1)[0]
        names, starts, ends = self.name, self.start, self.end
        parents, jobs, stack = self.parent, self.job, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(self.job_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[idx] = clock()
                stack.pop()
                if parents[idx] < 0 or self._layer_of(parents[idx]) != layer:
                    self.counts[layer + ".errors"] += 1
                raise
            ends[idx] = clock()
            stack.pop()
            return result if after is None else after(result, args)

        return traced

    def _layer_of(self, span: int) -> str:
        return self.names[self.name[span]].split(".", 1)[0]

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        hooks = self._hooks()
        wrapped = {}
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in modules or (home, obj.__name__) in _SKIP:
                    continue
                if obj not in wrapped:
                    key = f"{home}.{obj.__name__}"
                    wrapped[obj] = self.wrap(obj, key, *hooks.get(key, (None, None)))
                setattr(mod, attr, wrapped[obj])
        for layer in ("generators", "cyclic"):
            mod = modules[layer]
            mod.solve_ivp = self.wrap(mod.solve_ivp, f"{layer}.solve_ivp",
                                      after=self._ode_hook(layer))
        smooth = modules["functions"].SmoothFunction
        smooth.__call__ = self.wrap(smooth.__call__, "functions.eval")
        for meth in ("d1", "d2"):
            setattr(smooth, meth, self.wrap(getattr(smooth, meth), f"functions.{meth}",
                                            before=self._fd_hook(meth)))

    def _ode_hook(self, layer: str):
        def after(sol, args):
            self.counts[layer + ".ode_solves"] += 1
            self.counts[layer + ".ode_nfev"] += int(sol.nfev)
            if sol.sol is not None:
                sol.sol = self.wrap(sol.sol, f"{layer}.dense")
            return sol
        return after

    def _fd_hook(self, meth: str):
        private = "_" + meth

        def before(args):
            if getattr(args[0], private) is None:
                self.counts["functions.fd_evals"] += 1
        return before

    def _hooks(self) -> dict:
        def parsed(fn, args):
            return self.wrap(fn, "config.expr")

        def example(data, args):
            self.counts["generators.truncated"] += bool(data.truncated)
            return data

        def rotational(result, args):
            self.counts["generators.truncated"] += bool(result[0].truncated)
            return result

        def identity(report, args):
            self.counts["harmonics.identity_checks"] += 1
            self.counts["harmonics.identity_pass"] += bool(report.passed)
            return report

        def sampled(result, args):
            self.counts["fitting.points"] += len(result[0].kappa1)
            return result

        def meshed(result, args):
            self.counts["meshio.vertices"] += len(result[0])
            return result

        def written(args):
            self.counts["meshio.files_written"] += 1
            self.counts["meshio.bytes_written"] += len(args[1].encode("utf-8"))

        def csv(args):
            self.counts["meshio.csv_rows"] += len(args[2])

        return {
            "config.parse_scalar_function": (None, parsed),
            "generators.gen_riemann_example": (None, example),
            "generators.gen_rotational_lw": (None, rotational),
            "harmonics.verify_coefficient_identity": (None, identity),
            "fitting.sample_curvatures": (None, sampled),
            "meshio.surface_mesh": (None, meshed),
            "meshio.atomic_write_text": (written, None),
            "meshio.write_csv": (csv, None),
        }

    # -- results --------------------------------------------------------------

    def summary(self):
        """Per span name: (calls, inclusive seconds, self seconds).  A span's
        self time is its duration minus the durations of its children."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                                   minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_s, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def save(self, path: str, job_labels) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, np.int32),
                 job=np.frombuffer(self.job, np.int32), jobs=np.array(job_labels))

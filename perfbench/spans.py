"""Span recorder for the traced benchmark run.

Each layer of foldmap is a package module. The recorder wraps the public
functions of every layer at each module-level name they are bound to, and
methods on their class, so a caller that imported a function by name
(``from .process import theta_from_uniform``) is traced as well as one that
looks it up on its module (``experiments.forward_values``). Nothing inside the
package is edited: the wrappers are installed from the benchmark's own files
and removed again after each traced pass.

A span is (name, start, end, parent, run id). Spans are kept in flat arrays in
memory and written once when the run ends. A layer's self time is its span's
duration minus the part of that interval its child spans cover; children that
ran on pool threads may overlap, so the covered part is a union, not a sum.

Work counters are read at the same boundaries: graph and chart sizes from
return values, letters from the fold points theta_from_uniform returns, and
uniforms drawn through a proxy around each substream generator.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (span name, defining module, attribute path inside that module)
SITES = [
    ("process.substream", "foldmap.process", "TrialPlan.substream"),
    ("process.theta_from_uniform", "foldmap.process", "theta_from_uniform"),
    ("process.fold_interval_arrays", "foldmap.process", "fold_interval_arrays"),
    ("stationary.sample_stationary", "foldmap.stationary", "sample_stationary"),
    ("orbit.build_graph_window", "foldmap.orbit", "build_graph_window"),
    ("orbit.rho_chart", "foldmap.orbit", "rho_chart"),
    ("orbit.structure_stats", "foldmap.orbit", "structure_stats"),
    ("orbit.to_dot", "foldmap.orbit", "OrbitGraphWindow.to_dot"),
    ("orbit.apply_theta_label", "foldmap.orbit", "apply_theta_label"),
    ("contfrac.contfrac_expand", "foldmap.contfrac", "contfrac_expand"),
    ("contfrac.find_close_k", "foldmap.contfrac", "find_close_k"),
    ("experiments.law_equality_report", "foldmap.experiments", "law_equality_report"),
    ("experiments.forward_values", "foldmap.experiments", "forward_values"),
    ("experiments.one_step_invariance_report", "foldmap.experiments",
     "one_step_invariance_report"),
    ("experiments.ks_distance", "foldmap.experiments", "ks_distance"),
    ("experiments.EmpiricalCDF", "foldmap.experiments", "EmpiricalCDF.__init__"),
    ("experiments.backward_diam_ensemble", "foldmap.experiments", "backward_diam_ensemble"),
    ("experiments.rate_experiment", "foldmap.experiments", "rate_experiment"),
    ("experiments.walk_confinement_dp", "foldmap.experiments", "walk_confinement_dp"),
    ("experiments.rho_walk_audit", "foldmap.experiments", "rho_walk_audit"),
    ("serialize.canonical_json", "foldmap.serialize", "canonical_json"),
    ("serialize.rows_to_csv", "foldmap.serialize", "rows_to_csv"),
    ("cli.run", "foldmap.cli", "run"),
]


# ---- counters read at layer boundaries ------------------------------------


def _count_graph(counters, args, kwargs, graph, seconds):
    counters["orbit.vertices"] += graph.size
    counters["orbit.coincidences"] += len(graph.coincidences)


def _count_chart(counters, args, kwargs, chart, seconds):
    rho = chart.rho[chart.rho != np.iinfo(np.int64).min]
    depth = int(np.max(np.abs(rho))) if rho.size else 0
    counters["orbit.bfs_depth"] = max(counters["orbit.bfs_depth"], depth)


def _count_text(name):
    def hook(counters, args, kwargs, text, seconds):
        counters[name] += len(text)  # both serializers emit ASCII only
    return hook


def _split_by_workers(counters, args, kwargs, values, seconds):
    workers = kwargs.get("workers", args[4] if len(args) > 4 else 1)
    counters[f"experiments.forward_values.w{workers}_s"] += seconds


def _count_letters(counters, args, kwargs, thetas, seconds):
    counters["process.letters_applied"] += np.size(thetas)


HOOKS = {
    "orbit.build_graph_window": _count_graph,
    "orbit.rho_chart": _count_chart,
    "serialize.canonical_json": _count_text("serialize.canonical_json.bytes"),
    "serialize.rows_to_csv": _count_text("serialize.rows_to_csv.bytes"),
    "experiments.forward_values": _split_by_workers,
    "process.theta_from_uniform": _count_letters,
}


class CountingGenerator:
    """A substream generator that adds the size of every draw to a counter.

    foldmap draws only through random() and integers(); any other attribute is
    the wrapped generator's own.
    """

    def __init__(self, gen, add):
        self._gen = gen
        self._add = add

    def random(self, *args, **kwargs):
        out = self._gen.random(*args, **kwargs)
        self._add("process.uniforms_drawn", np.size(out))
        return out

    def integers(self, *args, **kwargs):
        out = self._gen.integers(*args, **kwargs)
        self._add("process.uniforms_drawn", np.size(out))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self.counters = defaultdict(int)  # work counts of the current traced pass
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, nid: int) -> int:
        stack = self._stack()
        # a pool thread has no open span of its own; its caller is the span
        # the job thread is blocked in
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else -1
        with self._lock:
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(parent)
            self.run.append(self.run_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(i)
        return i

    def close(self, i: int) -> float:
        t = time.perf_counter()
        self.end[i] = t
        self._stack().pop()
        return t - self.start[i]

    def open_root(self, label: str) -> int:
        """Open the span of one benchmark job; its spans share a new run id."""
        self.run_id += 1
        self._root_stack = self._stack()
        if self._root_stack:
            raise RuntimeError("a job span is already open")
        return self.open(self.name_id("job." + label))

    # ---- wrapping ---------------------------------------------------------

    def add(self, key: str, amount):
        """Add to a work counter; pool threads call this too."""
        with self._lock:
            self.counters[key] += amount

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = HOOKS.get(name)
        proxy = CountingGenerator if name == "process.substream" else None
        counters = self.counters

        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self.close(i)
            if hook is not None:
                with self._lock:
                    hook(counters, args, kwargs, result, seconds)
            if proxy is not None:
                result = proxy(result, self.add)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr: str, original, replacement):
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def install(self):
        """Wrap every site; a site the package no longer has is listed in missing."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "foldmap" or key.startswith("foldmap."))]
        self.missing = []
        for name, modname, path in SITES:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:  # a method: one binding, on its class
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---- analysis ---------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "run": np.frombuffer(self.run, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def summarize(self, groups) -> list[dict]:
        """Per span name: calls, total and self seconds, for each group of run ids."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        duration = a["end"] - a["start"]
        k = len(self.names)
        out = []
        for runs in groups:
            keep = np.isin(a["run"], np.asarray(sorted(runs), dtype=np.int32))
            ids = a["name"][keep]
            calls = np.bincount(ids, minlength=k)
            total = np.bincount(ids, weights=duration[keep], minlength=k)
            selfs = np.bincount(ids, weights=own[keep], minlength=k)
            out.append({n: {"calls": int(calls[i]), "total_s": float(total[i]),
                            "self_s": float(selfs[i])} for i, n in enumerate(self.names)})
        return out

    def job_coverage(self) -> list[tuple[str, float, float]]:
        """(job name, seconds, share covered by layer spans) of every job span."""
        a = self.arrays()
        own = self_times(a["start"], a["end"], a["parent"])
        out = []
        for i in np.flatnonzero(a["parent"] < 0).tolist():
            seconds = float(a["end"][i] - a["start"][i])
            share = 1.0 - float(own[i]) / seconds if seconds > 0 else 1.0
            out.append((self.names[a["name"][i]], seconds, share))
        return out

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the union of its children's intervals."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    covered = np.zeros(start.size)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    cur, lo, hi = -1, 0.0, 0.0
    for p, s, e in zip(parent[kids].tolist(), start[kids].tolist(),
                       end[kids].tolist()):
        if p != cur or s > hi:
            if cur >= 0:
                covered[cur] += hi - lo
            cur, lo, hi = p, s, e
        elif e > hi:
            hi = e
    if cur >= 0:
        covered[cur] += hi - lo
    return (end - start) - covered

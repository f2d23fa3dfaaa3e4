"""In-memory span tracer that wraps hesskit functions from outside the package.

``install`` replaces each traced function at every module binding the
library looks it up through (``hesskit.regnilp.enumerate_fillings`` is the
same object as ``hesskit.core.enumerate_fillings``, and ``is_groebner``
reaches ``reduce`` through the ``polyalg`` globals), so internal calls are
caught and spans nest.  Each span records its name, start, end, parent and
the id of the op it belongs to; spans stay in memory until ``write``.

Self time is a span's busy time minus the busy time of its child spans.  A
generator's span is busy only while the generator runs, from its first
resume to its last.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from math import comb
from time import perf_counter

# Layers the benchmark reports on, as (module, attribute) of the definition.
# CLI internals other than ``main`` stay unwrapped, so ``cli.main`` self time
# is all work the CLI does outside library calls: parsing, formatting, JSON.
TRACED = [
    ("core", "enumerate_fillings"),
    ("core", "dimension_pairs"),
    ("core", "phi"),
    ("core", "phi_word"),
    ("core", "betti_numbers"),
    ("regnilp", "verify_counts"),
    ("regnilp", "iter_words"),
    ("regnilp", "b_h_basis"),
    ("regnilp", "build_h_tree"),
    ("regnilp", "build_h_tableau_tree"),
    ("regnilp", "psi_h"),
    ("springer", "build_gp_tree"),
    ("springer", "build_modified_gp_tree"),
    ("springer", "garsia_procesi_basis"),
    ("springer", "psi"),
    ("polyalg", "jh_generators"),
    ("polyalg", "is_groebner"),
    ("polyalg", "s_polynomial"),
    ("polyalg", "reduce"),
    ("polyalg", "standard_monomials"),
    ("trees", "LabeledTree.levels"),
    ("trees", "LabeledTree.to_dot"),
    ("trees", "LabeledTree.to_json"),
    ("cli", "main"),
]

TREE_CONSTRUCTIONS = {
    "regnilp.build_h_tree",
    "regnilp.build_h_tableau_tree",
    "springer.build_gp_tree",
    "springer.build_modified_gp_tree",
}


def _count_result(name: str, args, result, counts: dict) -> None:
    """Work counts read off a traced call's arguments and result."""
    if name == "core.enumerate_fillings":
        counts["core.fillings_emitted"] += len(result)
    elif name == "polyalg.jh_generators":
        counts["polyalg.jh_terms"] += sum(len(g.terms) for g in result)
    elif name == "polyalg.is_groebner":
        counts["polyalg.pairs"] += comb(len(args[0]), 2)
    elif name in TREE_CONSTRUCTIONS:
        counts["trees.nodes"] += sum(1 for _ in result.iter_nodes())


class Tracer:
    """Spans as parallel arrays, plus running per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.busy = array("d")
        self.op_id = -1
        self._stack: list[int] = []  # open span indices
        self._child_busy: dict[int, float] = {}  # open span -> busy time of its children
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {
            "core.fillings_emitted": 0,
            "regnilp.iter_words.leaves": 0,
            "polyalg.jh_terms": 0,
            "polyalg.pairs": 0,
            "trees.nodes": 0,
        }

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.busy.append(0.0)
        self._child_busy[idx] = 0.0
        self.calls[name] = self.calls.get(name, 0) + 1
        return idx

    def _close(self, idx: int, name: str) -> None:
        busy = self.busy[idx]
        self.self_s[name] = self.self_s.get(name, 0.0) + busy - self._child_busy.pop(idx)
        parent = self.parent[idx]
        if parent >= 0:
            self._child_busy[parent] += busy

    def _exclude(self, seconds: float) -> None:
        """Keep tracer work out of the enclosing span's self time."""
        if self._stack:
            self._child_busy[self._stack[-1]] += seconds

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            idx = tracer._open(name)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                tracer.busy[idx] = t1 - t0
                tracer._close(idx, name)
            _count_result(name, args, result, tracer.counts)
            # bookkeeping and counting are tracer cost, not the caller's work
            tracer._exclude(t0 - entered + perf_counter() - t1)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self
        leaves_key = f"{name}.leaves"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            idx = None
            try:
                while True:
                    if idx is None:
                        idx = tracer._open(name)
                        tracer.start[idx] = perf_counter()
                    tracer._stack.append(idx)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        tracer._stack.pop()
                        tracer.busy[idx] += t1 - t0
                        tracer.end[idx] = t1
                    if leaves_key in tracer.counts:
                        tracer.counts[leaves_key] += 1
                    yield item
            finally:
                if idx is not None:
                    tracer._close(idx, name)

        return traced

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: index, op, name, start, end, parent, busy."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index,op,name,start,end,parent,busy\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.op[i]},{self.names[self.name[i]]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]},{self.busy[i]:.9f}\n"
                )


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function at every ``hesskit`` binding that holds it."""
    modules = [m for name, m in sys.modules.items() if name == "hesskit" or name.startswith("hesskit.")]
    for module_name, attr in TRACED:
        module = sys.modules[f"hesskit.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)

"""Span recorder for the traced benchmark run.

`Tracer.install` replaces every public function of the package's layers
(`fields`, `codes`, `constructions`, `mass`, `census`, `bounds`, `cli`) with
a wrapper that records one span per call: name, start, end, parent span and
op id.  A function is replaced in every module namespace that holds it, so
`census.rref` (imported from `codes`) is traced as `codes.rref` too.
Spans stay in memory (parallel arrays) and are written out after the run.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import time
from array import array
from collections import Counter

LAYERS = ("fields", "codes", "constructions", "mass", "census", "bounds", "cli")

# Not wrapped: per-symbol field arithmetic and the per-codeword weight, which
# run millions of times per op, so a span per call would swamp the op.  Their
# time stays in the caller's self time, and `codes.min_distance` counts the
# codewords it weighs.  Generator functions are skipped too: a span around
# one would end before any of its work is done.
UNTRACED = {"fields.Field", "codes.packed_weight"}

IO = ("codes.load", "codes.loads", "codes.dump", "codes.save", "codes.parse_symbols")


def _count_codes(counts, args, result):
    counts["census_codes"] += result[0]


def _count_rows(counts, args, result):
    counts["sampled_rows"] += result.k


def _count_words(counts, args, result):
    code = args[0]
    counts["codewords"] += code.field.q**code.k


def _count_loaded(counts, args, result):
    counts["io_bytes"] += os.path.getsize(args[0])


def _count_saved(counts, args, result):
    counts["io_bytes"] += os.path.getsize(args[1])


# Work counted where a layer's call returns: name -> hook(counts, args, result).
HOOKS = {
    "census.census": _count_codes,
    "census.sample_self_dual": _count_rows,
    "codes.min_distance": _count_words,
    "codes.load": _count_loaded,
    "codes.save": _count_saved,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.stack: list = []
        self.op = -1
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name: str):
        if name in self._name_ids:
            raise RuntimeError(f"two traced functions are named {name}")
        nid = self._name_ids[name] = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        name_id, start, end, parent, op_id, stack = (
            self.name_id, self.start, self.end, self.parent, self.op_id, self.stack
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrappers[obj] = self._wrap(obj, name)
                elif inspect.isclass(obj):
                    for mattr, member in list(vars(obj).items()):
                        fn = member.__func__ if isinstance(member, classmethod) else member
                        if mattr.startswith("_") or not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                            continue
                        wrapped = self._wrap(fn, f"{layer}.{mattr}")
                        self._patch(obj, mattr, classmethod(wrapped) if isinstance(member, classmethod) else wrapped)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def totals(self):
        """(calls, self_s, edges): per span name, and per (parent, child) name."""
        names = self.names
        n = len(self.name_id)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        edges: Counter = Counter()
        for i in range(n):
            name = names[self.name_id[i]]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            p = self.parent[i]
            if p >= 0:
                edges[names[self.name_id[p]], name] += 1
        return calls, self_s, edges

    def write(self, path: str) -> None:
        """All spans as gzip CSV: id,name,op,parent,start_s,end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as f:
            f.write("id,name,op,parent,start_s,end_s\n")
            for i in range(len(self.name_id)):
                f.write(
                    f"{i},{names[self.name_id[i]]},{self.op_id[i]},{self.parent[i]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )


def layer_metrics(tracer: Tracer, n_ops: int, wall_s: float) -> dict:
    """Per-layer metrics of a traced pass of n_ops ops, as {name: (value, unit)}."""
    calls, self_s, edges = tracer.totals()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    def layer(counter, name):
        return sum(v for k, v in counter.items() if k.split(".", 1)[0] == name)

    m = {}
    for name in ("codes.rref", "codes.pack", "codes.kernel_basis", "constructions.quintic_code"):
        m[f"{name}.calls"] = (calls[name] / n_ops, "count/op")
    for name in (
        "codes.rref", "codes.pack", "codes.kernel_basis", "codes.min_distance", "codes.from_rows",
        "codes.is_self_dual", "census.census", "constructions.quintic_code",
    ):
        m[f"{name}.self_s"] = (self_s[name] / n_ops, "s/op")
    m["census.sample.self_s"] = (self_s["census.sample_self_dual"] / n_ops, "s/op")
    m["census.states"] = (edges["census.census", "codes.kernel_basis"] / n_ops, "count/op")
    m["census.rref_per_code"] = (ratio(edges["census.census", "codes.rref"], counts["census_codes"]), "count/code")
    m["census.sample.draws_per_row"] = (
        ratio(edges["census.sample_self_dual", "codes.inner_product"], counts["sampled_rows"]),
        "count/row",
    )
    m["codes.io.self_s"] = (sum(self_s[name] for name in IO) / n_ops, "s/op")
    m["codes.io.bytes"] = (counts["io_bytes"] / n_ops, "B/op")
    m["codes.min_distance.words"] = (counts["codewords"] / n_ops, "count/op")
    m["codes.min_distance.words_per_s"] = (ratio(counts["codewords"], self_s["codes.min_distance"]), "1/s")
    for name in LAYERS:
        m[f"{name}.calls"] = (layer(calls, name) / n_ops, "count/op")
        m[f"{name}.self_s"] = (layer(self_s, name) / n_ops, "s/op")
    m["trace.wall_s"] = (wall_s / n_ops, "s/op")
    m["trace.spans"] = (len(tracer.name_id) / n_ops, "count/op")
    return m

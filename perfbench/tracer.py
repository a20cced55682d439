"""Span and counter recorder for the traced benchmark run.

The recorder wraps the public functions of each operadix module (the layer
table below) from the outside: nothing in ``src/`` knows about it.  Every
call of a wrapped function is a span whose parent is the innermost wrapped
call still running.  Spans are folded into a call tree as they end, keyed by
(parent node, name), so a pass with millions of calls keeps a tree of a few
hundred nodes instead of millions of records.  Each node holds the call
count, the total time and the time covered by its children; a node's self
time is the difference.

Counters are recorded at the same boundaries by small hooks (see
``_HOOKS``): cells enumerated, boundaries reduced, SNF entries, complexes
validated.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer -> the functions whose calls are recorded.  "Class.method" names a
# method; anything else a module-level function.
LAYERS = {
    "strings": [
        "compose", "sym_act", "colours", "arity", "in_filtration",
        "enumerate_strings", "parse", "text",
    ],
    "trees": ["tree_view", "tree_to_string"],
    "graphs": ["q", "compose", "leq", "validate"],
    "geometry": ["random_config", "cell_index", "cell_contains", "sc_compose"],
    "surjections": [
        "enumerate_component", "component_complex", "differential", "rs_compose",
    ],
    "chains": [
        "homology", "smith_normal_form", "ChainComplex.validate", "LinComb.__add__",
    ],
    "loops": [
        "TotComplex.differential", "TotComplex.conormal_project",
        "TotComplex.homology", "sqcup", "cup", "homotopy_H", "act_Tk",
    ],
    "cobar": [
        "CobarObject.differential", "CobarObject.chain_complex", "twisting_check",
        "relative_twisting_check", "dg_map_check", "rs2_experimental_report",
        "mb_compose", "z_coface",
    ],
    "cli": ["main"],
}

# The end-to-end metric each layer's numbers should move, and on which
# workload, fixed before any optimisation is measured.
LAYER_EFFECTS = {
    "strings": "operad-window wall_s and peak_rss_mb; no change on cobar-loops",
    "trees": "operad-window wall_s",
    "graphs": "operad-window wall_s",
    "geometry": "operad-window wall_s",
    "surjections": "homology wall_s",
    "chains": "homology wall_s; LinComb moves cobar-loops wall_s",
    "loops": "cobar-loops wall_s",
    "cobar": "cobar-loops wall_s",
    "cli": "none: thin wrappers whose self time stays near 0",
}

# lru_cache'd functions whose hit ratio is reported.
CACHED = ["strings.colours", "strings.arity"]

# Per-layer metrics other than "<fn>.calls", "<fn>.self_s" and
# "<layer>.self_share", with their units.
EXTRA_UNITS = {
    "strings.colours.hit_ratio": "fraction",
    "strings.arity.hit_ratio": "fraction",
    "surjections.cells": "count",
    "chains.snf_per_boundary": "ratio",
    "chains.validate_per_complex": "ratio",
    "chains.snf_entries": "count",
    "cli.stdout_bytes": "bytes",
    "harness.self_share": "fraction",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "fraction",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer, fns in LAYERS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
        units[f"{layer}.self_share"] = "fraction"
    units.update(EXTRA_UNITS)
    return units


class Node:
    __slots__ = ("name", "calls", "total", "child", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.children: dict[str, Node] = {}

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total,
            "self_s": self.total - self.child,
            "children": [c.to_json() for c in self.children.values()],
        }


class Recorder:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.root = Node("pass")
        self.stack = [self.root]
        self.counters: dict[str, int] = {}
        self.caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        # complexes seen this pass, held so that their ids stay unique
        self._complexes: dict[int, object] = {}
        self._boundaries: set[tuple[int, int]] = set()
        self._validated: set[int] = set()

    def install(self, modules: dict) -> None:
        """Wrap every function of ``LAYERS``.  ``modules`` maps a layer name
        to its module.  A module-level function is replaced wherever an
        operadix module imported it by name, so calls between modules are
        recorded too."""
        loaded = [m for name, m in sys.modules.items()
                  if name.startswith("operadix")]
        for layer, fns in LAYERS.items():
            module = modules[layer]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, meth, self._wrap(name, owner.__dict__[meth]))
                    continue
                original = getattr(module, fn)
                if name in CACHED:
                    self.caches[name] = original
                wrapper = self._wrap(name, original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        self.reset()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        stack = self.stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Node(name)
            stack.append(node)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                node.calls += 1
                node.total += elapsed
                parent.child += elapsed
            if hook is not None:
                hook(self, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def reset(self) -> None:
        """Start a new pass: an empty tree, zeroed counters, and the cache
        statistics read afresh."""
        self.root = Node("pass")
        self.stack[:] = [self.root]
        self.counters = {}
        self._complexes.clear()
        self._boundaries.clear()
        self._validated.clear()
        self._cache_start = {k: _hits_misses(f) for k, f in self.caches.items()}

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per function name: (calls, self time), summed over the tree."""
        out: dict[str, list] = {}
        todo = list(self.root.children.values())
        while todo:
            node = todo.pop()
            acc = out.setdefault(node.name, [0, 0.0])
            acc[0] += node.calls
            acc[1] += node.total - node.child
            todo.extend(node.children.values())
        return {k: (v[0], v[1]) for k, v in out.items()}

    def pass_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last reset."""
        times = self.self_times()
        metrics: dict[str, float] = {}
        traced_self = 0.0
        for layer, fns in LAYERS.items():
            layer_self = 0.0
            for fn in fns:
                calls, self_s = times.get(f"{layer}.{fn}", (0, 0.0))
                metrics[f"{layer}.{fn}.calls"] = calls
                metrics[f"{layer}.{fn}.self_s"] = self_s
                layer_self += self_s
            metrics[f"{layer}.self_share"] = layer_self / wall_s
            traced_self += layer_self
        metrics["harness.self_share"] = 1.0 - traced_self / wall_s
        for name, fn in self.caches.items():
            hits, misses = _hits_misses(fn)
            h0, m0 = self._cache_start[name]
            metrics[f"{name}.hit_ratio"] = _ratio(hits - h0, hits - h0 + misses - m0)
        c = self.counters
        metrics["surjections.cells"] = c.get("surjections.cells", 0)
        metrics["chains.snf_entries"] = c.get("chains.snf_entries", 0)
        metrics["chains.snf_per_boundary"] = _ratio(
            times.get("chains.smith_normal_form", (0, 0.0))[0], len(self._boundaries))
        metrics["chains.validate_per_complex"] = _ratio(
            times.get("chains.ChainComplex.validate", (0, 0.0))[0],
            len(self._validated))
        return metrics


def _hits_misses(cached) -> tuple[int, int]:
    info = cached.cache_info()
    return info.hits, info.misses


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _on_enumerate_component(rec: Recorder, args, result) -> None:
    rec.count("surjections.cells", len(result))


def _on_snf(rec: Recorder, args, result) -> None:
    matrix = args[0]
    rec.count("chains.snf_entries", len(matrix) * (len(matrix[0]) if matrix else 0))


def _on_homology(rec: Recorder, args, result) -> None:
    # homology(cx, d) reduces boundary d when degree d-1 is nonzero and
    # boundary d+1 when degree d+1 is nonzero, both only if degree d is.
    cx, d = args[0], args[1]
    if not cx.dim(d):
        return
    rec._complexes[id(cx)] = cx
    if cx.dim(d - 1):
        rec._boundaries.add((id(cx), d))
    if cx.dim(d + 1):
        rec._boundaries.add((id(cx), d + 1))


def _on_validate(rec: Recorder, args, result) -> None:
    cx = args[0]
    rec._complexes[id(cx)] = cx
    rec._validated.add(id(cx))


_HOOKS = {
    "surjections.enumerate_component": _on_enumerate_component,
    "chains.smith_normal_form": _on_snf,
    "chains.homology": _on_homology,
    "chains.ChainComplex.validate": _on_validate,
}

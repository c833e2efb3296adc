"""Per-layer spans recorded from outside the santagap package.

A ``Tracer`` replaces each layer function with a wrapper in every loaded
``santagap`` module that holds it, so calls made inside the package
(``topology.desequence.eta``, ``two_values.search_de_sequence``,
``gap_report.compute_t_star``, ...) are recorded as well as the calls the
benchmark makes.  Each span is ``(name, start, end, parent, extra)``,
kept in memory and written out when the run ends; ``extra`` holds the
domain count read from the layer's return value.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

QUERY = "bench.query"


def _graph_hash(args, kwargs, result):
    # Graph hashes its (vertices, edges) key once, at construction.
    return hash(args[0])


LAYERS = {
    # span name: (module, function, domain count read from the call)
    "instance.brute_force_opt": (
        "santagap.instance", "brute_force_opt", lambda a, k, r: r.nodes_explored),
    "lp_core.compute_t_star": (
        "santagap.lp_core", "compute_t_star",
        lambda a, k, r: (r.probes, r.candidates_examined)),
    "lp_core.build_clp_model": (
        "santagap.lp_core", "build_clp_model", lambda a, k, r: len(r.columns)),
    "lp_core.clp_feasible": ("santagap.lp_core", "clp_feasible", None),
    "lp_core.verify_dual": ("santagap.lp_core", "verify_dual", None),
    "allocation_graph.build_H": (
        "santagap.allocation_graph", "build_H", lambda a, k, r: r.vertex_count()),
    "allocation_graph.find_independent_transversal": (
        "santagap.allocation_graph", "find_independent_transversal", None),
    "topology.eta": ("santagap.topology.homology", "eta", _graph_hash),
    "topology.eta_at_least": ("santagap.topology.homology", "eta_at_least", None),
    "topology.classify_edge": ("santagap.topology.desequence", "classify_edge", None),
    "topology.all_deletions": ("santagap.topology.drivers", "all_deletions", None),
    "topology.search_de_sequence": (
        "santagap.topology.desequence", "search_de_sequence",
        lambda a, k, r: (r.nodes, r.found)),
    "topology.hall_eta_check": ("santagap.topology.drivers", "hall_eta_check", None),
    "topology.four_phase_driver": (
        "santagap.topology.drivers", "four_phase_driver", lambda a, k, r: r.outcome),
    "two_values.two_value_driver": (
        "santagap.two_values", "two_value_driver", lambda a, k, r: r.outcome),
    "gap_report.evaluate_instance": (
        "santagap.gap_report", "evaluate_instance", None),
}

FOUR_PHASE_OUTCOMES = {"KO": "ko", "edgeless": "edgeless", "inconclusive": "inconclusive"}
TWO_VALUE_OUTCOMES = {
    "certified": "certified",
    "trivial": "trivial",
    "additive-regime": "additive_regime",
    "inconclusive": "inconclusive",
}


class Tracer:
    """Records one span per call of each layer function while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._patched: list = []

    def _wrap(self, name, fn, extra):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if extra is not None:
                spans[idx] = (name, start, end, parent, extra(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Patch every santagap module attribute bound to a layer function."""
        originals = {}
        for name, (module, attr, extra) in LAYERS.items():
            fn = getattr(importlib.import_module(module), attr)
            originals[id(fn)] = self._wrap(name, fn, extra)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "santagap" or modname.startswith("santagap.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def query(self, index: int, fn, *args):
        """Run one benchmark query as a root span; its children share its id."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (QUERY, start, end, -1, index)

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, extra."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def _ancestors(spans, i):
    p = spans[i][3]
    while p != -1:
        yield spans[p]
        p = spans[p][3]


def layer_metrics(spans, queries: int | None = None) -> dict[str, float]:
    """Per-layer calls, times and domain counts from a list of spans.

    ``s`` is inclusive time summed over outermost spans of a name (a
    recursive call is not counted twice); ``self_s`` subtracts the time
    covered by direct child spans.  With ``queries`` given, only spans of
    the first that many benchmark queries count.
    """
    calls: Counter = Counter()
    incl: Counter = Counter()
    self_time: Counter = Counter()
    extras: dict[str, list] = {name: [] for name in LAYERS}
    eta_keys = []
    tstar_clp_calls = 0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        if name == QUERY:
            continue
        ancestors = list(_ancestors(spans, i))
        root = ancestors[-1] if ancestors else None
        if queries is not None and (root is None or root[0] != QUERY or root[4] >= queries):
            continue
        if parent != -1:
            self_time[spans[parent][0]] -= end - start
        names = {a[0] for a in ancestors}
        calls[name] += 1
        self_time[name] += end - start
        if name == "lp_core.clp_feasible" and "lp_core.compute_t_star" in names:
            tstar_clp_calls += 1
        if name == "topology.eta":
            eta_keys.append(extra)
        if name not in names:
            incl[name] += end - start
            if extra is not None:
                extras[name].append(extra)

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
    out["lp_core.clp_feasible.self_s"] = self_time["lp_core.clp_feasible"]
    out["instance.brute_force_opt.nodes"] = sum(extras["instance.brute_force_opt"])
    tstar = extras["lp_core.compute_t_star"]
    out["lp_core.compute_t_star.probes"] = sum(p for p, _ in tstar)
    out["lp_core.compute_t_star.candidates"] = sum(c for _, c in tstar)
    out["lp_core.build_clp_model.columns"] = sum(extras["lp_core.build_clp_model"])
    out["allocation_graph.build_H.vertices"] = sum(extras["allocation_graph.build_H"])
    distinct = len(set(eta_keys))
    out["topology.eta.distinct"] = distinct
    out["topology.eta.repeat_frac"] = (
        (len(eta_keys) - distinct) / len(eta_keys) if eta_keys else 0.0)
    searches = extras["topology.search_de_sequence"]
    out["topology.search_de_sequence.nodes"] = sum(n for n, _ in searches)
    out["topology.search_de_sequence.found_frac"] = (
        sum(1 for _, found in searches if found) / len(searches) if searches else 0.0)
    for outcome, key in FOUR_PHASE_OUTCOMES.items():
        out[f"topology.four_phase_driver.{key}"] = extras[
            "topology.four_phase_driver"].count(outcome)
    for outcome, key in TWO_VALUE_OUTCOMES.items():
        out[f"two_values.two_value_driver.{key}"] = extras[
            "two_values.two_value_driver"].count(outcome)
    out["lp_core.compute_t_star.clp_calls"] = tstar_clp_calls
    return out


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(("_frac", "share")):
        return "ratio"
    return "count"


def as_shares(metrics: dict[str, float], traced_s: float) -> dict[str, float]:
    """Layer seconds as shares of the traced pass.

    A share is free of the machine's speed drift, which the seconds are
    not, and it reads 0 where a workload never enters the layer.
    """
    out = {}
    for name, value in metrics.items():
        if name.endswith(".self_s"):
            out[name[: -len("self_s")] + "self_share"] = value / traced_s
        elif name.endswith(".s"):
            out[name[: -len("s")] + "share"] = value / traced_s
        else:
            out[name] = value
    return out


def counts_only(metrics: dict[str, float]) -> dict[str, float]:
    """The metrics that must repeat exactly when the same queries run again."""
    return {k: v for k, v in metrics.items() if not k.endswith((".s", "_s"))}


def self_check(metrics: dict[str, float], rerun_counts: dict, first_counts: dict) -> list[str]:
    """Invariants the traced run must satisfy; returns the violated ones."""
    problems = []
    if metrics["topology.eta.calls"] < 3 * metrics["topology.classify_edge.calls"]:
        problems.append("topology.eta.calls < 3 x topology.classify_edge.calls")
    if metrics["lp_core.compute_t_star.clp_calls"] != metrics["lp_core.compute_t_star.probes"]:
        problems.append(
            f"{metrics['lp_core.compute_t_star.clp_calls']} clp_feasible calls inside "
            f"compute_t_star "
            f"!= {metrics['lp_core.compute_t_star.probes']} probes")
    if rerun_counts != first_counts:
        diff = sorted(k for k in first_counts if first_counts[k] != rerun_counts.get(k))
        problems.append(f"traced re-run gave different counts: {diff}")
    return problems

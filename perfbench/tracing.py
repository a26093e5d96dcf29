"""Span tracing of hcmsim from outside the package.

Wrappers replace the public functions of each module on every name that
callers look up: the package modules import functions by name
(``from .graphs import component_table``), so the wrapper must be bound
in ``hcmsim.stats``, ``hcmsim.dynamics``, ``hcmsim.cli`` ... and not only
in the defining module. ``Tracer.install`` scans every loaded ``hcmsim``
module for the original function object and rebinds each occurrence;
``Tracer.uninstall`` restores them. Nothing under ``src/`` changes.

Each span records (name, start, end, parent, thread) in memory. A span
opened on a worker thread with no open span of its own gets the main
thread's innermost open span as parent, so thread-pool work nests under
the experiment that submitted it.

Self time is assigned by a sweep over span boundaries: every instant of
wall time is split equally among the open spans that have no open child
(on any thread). The self times of all spans therefore add up to the
measure of the union of the spans, never to more than the wall time,
also when worker threads overlap.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (metric prefix, module, attribute) of every wrapped callable. The prefix
# names the layer by its package module; the two theorem experiments share
# one prefix because a workload runs one or the other.
WRAPPED = [
    ("cli.main", "hcmsim.cli", "main"),
    ("stats.experiment", "hcmsim.stats", "theorem_1_6_experiment"),
    ("stats.experiment", "hcmsim.stats", "theorem_1_7_experiment"),
    ("stats.sample_limit_pairs", "hcmsim.stats", "sample_limit_pairs"),
    ("stats.ks_two_sample", "hcmsim.stats", "ks_two_sample"),
    ("graphs.sample_white_matching", "hcmsim.graphs", "sample_white_matching"),
    ("graphs.component_table", "hcmsim.graphs", "component_table"),
    ("dynamics.run_dynamic", "hcmsim.dynamics", "run_dynamic"),
    ("dynamics.component_sizes", "hcmsim.dynamics", "PercolationState.component_sizes"),
    ("exploration.explore", "hcmsim.exploration", "explore"),
    ("exploration.write_trace_csv", "hcmsim.exploration", "write_trace_csv"),
    ("coalescent.mcmw_batch", "hcmsim.coalescent", "mcmw_batch"),
    ("coalescent.sample_xi_batch", "hcmsim.coalescent", "sample_xi_batch"),
    ("coalescent.mcmw_graphical", "hcmsim.coalescent", "mcmw_graphical"),
    ("coalescent.write_masses_csv", "hcmsim.coalescent", "write_masses_csv"),
    ("levy.sample_thinned_levy", "hcmsim.levy", "sample_thinned_levy"),
    ("excursions.gamma_down", "hcmsim.excursions", "gamma_down"),
    ("degrees.build_degree_sequence", "hcmsim.degrees", "build_degree_sequence"),
    ("degrees.tune_to_criticality", "hcmsim.degrees", "tune_to_criticality"),
    ("degrees.write_degree_csv", "hcmsim.degrees", "write_degree_csv"),
    ("core.stream_gen", "hcmsim.core", "stream_gen"),
]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_component_table(args, kwargs, out):
    extra = _arg(args, kwargs, 1, "extra_edges")
    return {
        "vertices": args[0].n,
        "extra_edges": 0 if extra is None else len(extra),
        "components": int(out[0].size),
    }


def _count_mcmw_batch(args, kwargs, out):
    reps, n = out.shape
    return {
        "systems": reps,
        "blocks": reps * n,
        "pairs": reps * n * (n - 1) // 2,
        "merges": int(out.size - np.count_nonzero(out)),
    }


def _count_trace_rows(args, kwargs, out):
    stride = max(1, int(_arg(args, kwargs, 2, "stride", 1)))
    return {"rows": len(range(0, args[0].X.size, stride))}


def _count_levy_jumps(args, kwargs, out):
    # X_path has one breakpoint at t=0 plus one per distinct jump time
    return {"jumps": int(out.X_path.times.size - 1)}


# Counts recorded at the span boundary, as (args, kwargs, result) -> dict.
COUNTERS = {
    "graphs.sample_white_matching": lambda a, k, out: {"half_edges": out.seq.total_white},
    "graphs.component_table": _count_component_table,
    "dynamics.run_dynamic": lambda a, k, out: {"events": len(out.event_log), "q0": out.q0},
    "exploration.explore": lambda a, k, out: {
        "steps": out.steps,
        "components": int(out.tau.size),
        "surplus_steps": int(out.N[-1]),
    },
    "exploration.write_trace_csv": _count_trace_rows,
    "coalescent.mcmw_batch": _count_mcmw_batch,
    "coalescent.mcmw_graphical": lambda a, k, out: {
        "blocks": int(out[1].mass.size),
        "merges": int(out[1].mass.size - out[1].roots().size),
    },
    "levy.sample_thinned_levy": _count_levy_jumps,
    "excursions.gamma_down": lambda a, k, out: {"excursions": int(out.shape[0])},
    "degrees.build_degree_sequence": lambda a, k, out: {"vertices": out.n},
}

# Per-layer metrics reported by a traced run, with units. The per_layer
# list of BENCHMARK.json is this list; a test keeps the two equal.
METRICS = [
    ("graphs.sample_white_matching.calls", "count"),
    ("graphs.sample_white_matching.self_s", "s"),
    ("graphs.sample_white_matching.p50_ms", "ms"),
    ("graphs.sample_white_matching.p90_ms", "ms"),
    ("graphs.sample_white_matching.half_edges", "count"),
    ("graphs.component_table.calls", "count"),
    ("graphs.component_table.self_s", "s"),
    ("graphs.component_table.p50_ms", "ms"),
    ("graphs.component_table.p90_ms", "ms"),
    ("graphs.component_table.vertices", "count"),
    ("graphs.component_table.extra_edges", "count"),
    ("graphs.component_table.components", "count"),
    ("dynamics.run_dynamic.calls", "count"),
    ("dynamics.run_dynamic.self_s", "s"),
    ("dynamics.run_dynamic.p50_ms", "ms"),
    ("dynamics.run_dynamic.p90_ms", "ms"),
    ("dynamics.run_dynamic.events", "count"),
    ("dynamics.run_dynamic.q0", "count"),
    ("dynamics.events_per_q0", "ratio"),
    ("dynamics.component_sizes.self_s", "s"),
    ("exploration.explore.calls", "count"),
    ("exploration.explore.self_s", "s"),
    ("exploration.explore.p50_ms", "ms"),
    ("exploration.explore.p90_ms", "ms"),
    ("exploration.explore.steps", "count"),
    ("exploration.explore.components", "count"),
    ("exploration.explore.surplus_steps", "count"),
    ("exploration.write_trace_csv.self_s", "s"),
    ("exploration.write_trace_csv.rows", "count"),
    ("coalescent.mcmw_batch.calls", "count"),
    ("coalescent.mcmw_batch.self_s", "s"),
    ("coalescent.mcmw_batch.p50_ms", "ms"),
    ("coalescent.mcmw_batch.systems", "count"),
    ("coalescent.mcmw_batch.blocks", "count"),
    ("coalescent.mcmw_batch.pairs", "count"),
    ("coalescent.mcmw_batch.merges", "count"),
    ("coalescent.sample_xi_batch.self_s", "s"),
    ("coalescent.mcmw_graphical.calls", "count"),
    ("coalescent.mcmw_graphical.self_s", "s"),
    ("coalescent.mcmw_graphical.blocks", "count"),
    ("coalescent.mcmw_graphical.merges", "count"),
    ("coalescent.write_masses_csv.self_s", "s"),
    ("levy.sample_thinned_levy.calls", "count"),
    ("levy.sample_thinned_levy.self_s", "s"),
    ("levy.sample_thinned_levy.jumps", "count"),
    ("excursions.gamma_down.calls", "count"),
    ("excursions.gamma_down.self_s", "s"),
    ("excursions.gamma_down.excursions", "count"),
    ("paths.segments", "count"),
    ("degrees.build_degree_sequence.self_s", "s"),
    ("degrees.tune_to_criticality.self_s", "s"),
    ("degrees.vertices", "count"),
    ("degrees.write_degree_csv.self_s", "s"),
    ("core.stream_gen.calls", "count"),
    ("core.stream_gen.self_s", "s"),
    ("stats.sample_limit_pairs.self_s", "s"),
    ("stats.ks_two_sample.calls", "count"),
    ("stats.ks_two_sample.self_s", "s"),
    ("stats.experiment.self_s", "s"),
    ("stats.cpu_per_wall", "ratio"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
]

# Metrics computed by ``layer_metrics`` from something other than a
# ``<span>.<stat>`` lookup; the rest are read off the span summary.
_DERIVED = {"dynamics.events_per_q0", "paths.segments", "degrees.vertices",
            "stats.cpu_per_wall", "trace.overhead_s", "trace.unattributed_s"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"  # None for a root span
    thread: int
    counts: dict = field(default_factory=dict)
    cpu_s: float = 0.0  # process CPU time inside the span (experiments only)


def _resolve(module_name: str, attr: str):
    obj = sys.modules[module_name]
    *owners, leaf = attr.split(".")
    for name in owners:
        obj = getattr(obj, name)
    return obj, leaf


class Tracer:
    """Installs span wrappers on hcmsim and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.segments = 0
        self._segments_lock = threading.Lock()  # paths are built on worker threads too
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hcmsim" or name.startswith("hcmsim."))]
        for prefix, module_name, attr in WRAPPED:
            owner, leaf = _resolve(module_name, attr)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(prefix, original)
            if owner is sys.modules[module_name]:
                # a module-level function: rebind it wherever it was imported
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            else:
                self._patch(owner, leaf, wrapper)
        from hcmsim.paths import CadlagPath

        self._patch(CadlagPath, "__post_init__", self._count_segments(CadlagPath.__post_init__))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _count_segments(self, original):
        def post_init(path):
            original(path)
            with self._segments_lock:
                self.segments += path.times.size

        return post_init

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        with_cpu = name == "stats.experiment"
        spans = self.spans
        stacks = self._stacks
        main = self._main

        def wrapper(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main_stack = stacks.get(main)
                parent = main_stack[-1] if tid != main and main_stack else None
            span = Span(name, 0.0, 0.0, parent, tid)
            spans.append(span)
            stack.append(span)
            cpu0 = time.process_time() if with_cpu else 0.0
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if with_cpu:
                    span.cpu_s = time.process_time() - cpu0
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def reset(self):
        self.spans.clear()
        self.segments = 0


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span by the leaf-sharing sweep described above."""
    index = {id(s): i for i, s in enumerate(spans)}
    parents = [-1 if s.parent is None else index[id(s.parent)] for s in spans]
    events = []
    for i, s in enumerate(spans):
        events.append((s.start, 1, i))
        events.append((s.end, 0, i))  # closes sort before opens at equal times
    events.sort()
    self_s = [0.0] * len(spans)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    prev = None
    for t, kind, i in events:
        if prev is not None and leaves and t > prev:
            share = (t - prev) / len(leaves)
            for j in leaves:
                self_s[j] += share
        prev = t
        p = parents[i]
        if kind == 1:
            is_open[i] = True
            leaves.add(i)
            if p >= 0 and is_open[p]:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open[i] = False
            leaves.discard(i)
            if p >= 0 and is_open[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return self_s


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, self_s, p50_ms, p90_ms and summed counts."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for span, st in zip(spans, selfs):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "cpu_s": 0.0, "wall_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += st
        entry["cpu_s"] += span.cpu_s
        entry["wall_s"] += span.end - span.start
        for key, value in span.counts.items():
            entry[key] = entry.get(key, 0) + value
        durations.setdefault(span.name, []).append(span.end - span.start)
    for name, ds in durations.items():
        ms = np.asarray(ds) * 1e3
        out[name]["p50_ms"] = float(np.percentile(ms, 50))
        out[name]["p90_ms"] = float(np.percentile(ms, 90))
    return out


def layer_metrics(summary: dict, segments: int, pass_wall_s: float) -> dict:
    """Per-layer metric values of one traced pass (trace.overhead_s is
    filled in by the caller, which has the untraced passes)."""
    values = {}
    for name, _unit in METRICS:
        if name in _DERIVED:
            continue
        span, stat = name.rsplit(".", 1)
        values[name] = summary.get(span, {}).get(stat, 0)
    dyn = summary.get("dynamics.run_dynamic", {})
    values["dynamics.events_per_q0"] = dyn["events"] / dyn["q0"] if dyn.get("q0") else 0.0
    values["paths.segments"] = segments
    values["degrees.vertices"] = summary.get("degrees.build_degree_sequence", {}).get("vertices", 0)
    exp = summary.get("stats.experiment", {})
    values["stats.cpu_per_wall"] = exp["cpu_s"] / exp["wall_s"] if exp.get("wall_s") else 0.0
    values["trace.unattributed_s"] = pass_wall_s - sum(e["self_s"] for e in summary.values())
    values["trace.overhead_s"] = 0.0
    return values


def layer_shares(summary: dict, pass_wall_s: float) -> dict:
    """Share of the traced pass wall time spent in each module's spans."""
    shares: dict[str, float] = {}
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + entry["self_s"] / pass_wall_s
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

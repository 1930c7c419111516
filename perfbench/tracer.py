"""Span tracing for the benchmark's traced run.

The engine carries no instrumentation, so the tracer replaces layer
functions by timing wrappers at the module attribute through which their
caller looks them up (``nlflow.oracles.contract``, not
``nlflow.digraphs.contract``), and puts the originals back afterwards.

Every call records a span (trace id, span id, parent span id, name, start,
end); the trace id is the job's index, or -1 during set-up.  A layer's
self time is its spans' time minus the time of their child spans.  Spans
and counts are kept only while ``recording`` is set, so a run can trace a
fixed window of jobs and still pay the wrappers' cost on every job.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

from nlflow.digraphs import num_weak_components

from metrics import PER_LAYER


def _atoms(args, result):
    return {"cuts.atoms": len(result)}


def _lattice_elements(args, result):
    return {"cuts.lattice_elements": len(result.elements)}


def _group_box(args, result):
    d, g = args[0], args[1]
    return {"oracles.candidates": g.order**d.m}


def _integer_box(args, result):
    d, k = args[0], args[1]
    nullity = d.m - d.n + num_weak_components(d)
    return {"oracles.candidates": (2 * k - 1) ** nullity}


def _coloring_box(args, result):
    d, k = args[0], args[1]
    return {"oracles.colorings_candidates": k**d.n}


def _matroid_group_box(args, result):
    m, g = args[0], args[1]
    return {"matroids.candidates": g.order**m.q}


def _matroid_integer_box(args, result):
    m, k = args[0], args[1]
    return {"matroids.candidates": (2 * k - 1) ** m.q}


# (owner, attribute, span name, counts from (args, result)).  An owner is a
# module, or "module:Class" for a method.
HOOKS = (
    ("nlflow.nl", "nl_flow_polynomial", "nl", None),
    ("nlflow.nl", "nl_coflow_polynomial", "nl", None),
    ("nlflow.nl", "build_cut_lattice", "cuts.closure", _lattice_elements),
    ("nlflow.nl", "build_cycle_lattice", "cuts.closure", _lattice_elements),
    ("nlflow.nl", "rank", "digraphs.rank", None),
    ("nlflow.cuts", "enumerate_dicuts", "cuts.enumerate", _atoms),
    ("nlflow.cuts", "enumerate_directed_cycles", "cuts.enumerate", _atoms),
    ("nlflow.posets:FinitePoset", "mobius", "posets.mobius", None),
    ("nlflow.oracles", "contract", "digraphs.predicate", None),
    ("nlflow.oracles", "is_totally_cyclic", "digraphs.predicate", None),
    ("nlflow.oracles", "count_nl_group_flows", "oracles.enumerate", _group_box),
    ("nlflow.oracles", "count_nl_integer_kflows", "oracles.enumerate", _integer_box),
    ("nlflow.oracles", "count_acyclic_colorings", "oracles.colorings", _coloring_box),
    ("nlflow.oracles", "interpolate_rational", "polynomials.interpolate", None),
    ("nlflow.oracles", "rref", "linalg.rref", None),
    ("nlflow.linalg", "rref", "linalg.rref", None),
    ("nlflow.linalg", "solve_upper", "linalg.solve", None),
    ("nlflow.matroids", "farkas_nonneg_solve", "linalg.farkas", None),
    ("nlflow.matroids", "count_nl_group_flows_matroid", "matroids.enumerate", _matroid_group_box),
    ("nlflow.matroids", "count_nl_integer_kflows_matroid", "matroids.enumerate", _matroid_integer_box),
    ("nlflow.catalog", "digraph_catalog", "catalog.build", None),
)

# Support-predicate memos, read through cache_info(): (module, attribute, prefix).
CACHES = (
    ("nlflow.oracles", "_support_cyclic", "oracles.predicate_cache"),
    ("nlflow.matroids", "_support_contraction_cyclic", "matroids.predicate_cache"),
)

# Metric -> span whose self time (or call count) it reports.
SELF_TIMES = {
    "cuts.enumerate_s": "cuts.enumerate",
    "cuts.closure_s": "cuts.closure",
    "posets.mobius_s": "posets.mobius",
    "digraphs.rank_s": "digraphs.rank",
    "nl.self_s": "nl",
    "digraphs.predicate_s": "digraphs.predicate",
    "oracles.enumerate_s": "oracles.enumerate",
    "oracles.colorings_s": "oracles.colorings",
    "polynomials.interpolate_s": "polynomials.interpolate",
    "linalg.rref_s": "linalg.rref",
    "matroids.enumerate_s": "matroids.enumerate",
    "catalog.build_s": "catalog.build",
    "job.unattributed_s": "job",
}
CALLS = {
    "posets.mobius_calls": "posets.mobius",
    "digraphs.rank_calls": "digraphs.rank",
    "digraphs.predicate_calls": "digraphs.predicate",
    "oracles.count_calls": "oracles.enumerate",
    "linalg.rref_calls": "linalg.rref",
    "linalg.farkas_calls": "linalg.farkas",
    "linalg.solve_calls": "linalg.solve",
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans = []  # (trace_id, span_id, parent_id, name, start, end)
        self.counts = Counter()
        self.recording = False
        self.trace_id = -1
        self.missing = []  # hooked functions and caches that no longer exist
        self._stack = [0]
        self._next_id = 1
        self._saved = []
        self._cache_base = {}

    def install(self):
        for owner_path, attr, name, counter in HOOKS:
            owner = _owner(owner_path)
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        for module, attr, _ in CACHES:
            if not hasattr(getattr(importlib.import_module(module), attr, None), "cache_info"):
                self.missing.append(f"{module}.{attr}")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, args=(), kwargs=None, counter=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._stack.pop()
        if self.recording:
            self.spans.append((self.trace_id, span_id, parent, name, start, end))
            if counter is not None:
                self.counts.update(counter(args, result))
        return result

    def run_job(self, trace_id: int, fn):
        """Run one job under a root span named "job"."""
        self.trace_id = trace_id
        try:
            return self.call("job", fn)
        finally:
            self.trace_id = -1

    def cache_counts(self) -> dict:
        out = {}
        for module, attr, prefix in CACHES:
            fn = getattr(importlib.import_module(module), attr, None)
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[f"{prefix}_hits"] = info.hits if info else 0
            out[f"{prefix}_misses"] = info.misses if info else 0
        return out

    def start_window(self):
        self._cache_base = self.cache_counts()
        self.recording = True

    def end_window(self):
        self.recording = False
        now = self.cache_counts()
        self.counts.update({k: now[k] - self._cache_base.get(k, 0) for k in now})

    def layer_metrics(self) -> dict:
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        self_time = defaultdict(float)
        total_time = defaultdict(float)
        calls = Counter()
        for _, span_id, _, name, start, end in self.spans:
            self_time[name] += (end - start) - child_time[span_id]
            total_time[name] += end - start
            calls[name] += 1
        out = {metric: self_time[span] for metric, span in SELF_TIMES.items()}
        out.update({metric: calls[span] for metric, span in CALLS.items()})
        out["linalg.farkas_s"] = total_time["linalg.farkas"]
        for metric in PER_LAYER:
            if metric not in out and not metric.startswith("trace."):
                out[metric] = self.counts[metric]
        return out

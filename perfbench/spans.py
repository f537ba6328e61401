"""In-memory span tracer and the layer wrappers traced runs install.

The benchmark traces the program from the outside: :func:`instrument`
replaces each layer's public function or method with a wrapper that
records a span (name, start, end, parent, trace id) or, for the
policy calls made on every step, an aggregate count and time.  No
program source changes.  A wrapper goes on every name a caller looks
up: module attributes that hold the original function are replaced in
every loaded ``repro`` module, so ``from x import f`` callers see it.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time of its child spans and aggregates.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: Per-layer metric names, in the order ``BENCHMARK.json`` lists them.
LAYER_METRICS = (
    ("population.wearer_scenarios_s", "s"), ("population.wearers", "count"),
    ("harvest.lookups", "count"), ("harvest.misses", "count"),
    ("harvest.hit_rate", "ratio"), ("harvest.price_s", "s"),
    ("harvest.pv_voc_calls", "count"), ("harvest.pv_voc_s", "s"),
    ("builder.build_simulation_calls", "count"),
    ("builder.build_simulation_s", "s"),
    ("engine.scalar_runs", "count"), ("engine.scalar_run_self_s", "s"),
    ("engine.vector_self_s", "s"),
    ("policy.decide_calls", "count"), ("policy.decide_s", "s"),
    ("policy.decide_batch_calls", "count"), ("policy.decide_batch_s", "s"),
    ("reduce.records", "count"), ("reduce.from_records_s", "s"),
    ("json.canonical_calls", "count"), ("json.canonical_bytes", "bytes"),
    ("json.canonical_s", "s"),
    ("store.hits", "count"), ("store.misses", "count"),
    ("store.hit_rate", "ratio"), ("store.get_s", "s"), ("store.put_s", "s"),
    ("store.bytes_written", "bytes"),
    ("serve.handle_s", "s"), ("serve.transport_s", "s"),
    ("pool.warm_s", "s"), ("pool.spawns", "count"), ("pool.crashes", "count"),
    ("pool.batches", "count"), ("pool.chunks", "count"),
    ("pool.tasks", "count"), ("pool.dispatch_s", "s"),
    ("pool.payload_bytes", "bytes"), ("pool.result_bytes", "bytes"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


class Tracer:
    """Collects spans, counters and per-call aggregates in memory."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.aggregates: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, **attrs: Any) -> dict[str, Any]:
        """Open a span; a span with no open parent starts a new trace."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        span = {"id": span_id, "name": name,
                "parent": parent["id"] if parent else None,
                "trace": parent["trace"] if parent else span_id,
                "child_s": 0.0, **attrs}
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1]["child_s"] += span["end"] - span["start"]
        with self._lock:
            self.spans.append(span)

    def aggregate(self, name: str, seconds: float) -> None:
        """Add one call of ``seconds`` to ``name`` without a span."""
        stack = self._stack()
        if stack:
            stack[-1]["child_s"] += seconds
        with self._lock:
            entry = self.aggregates[name]
            entry[0] += 1
            entry[1] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def dump(self) -> dict[str, Any]:
        """Everything recorded, JSON-ready."""
        return {"spans": self.spans, "counts": dict(self.counts),
                "aggregates": {name: list(value) for name, value
                               in self.aggregates.items()}}


# -- wrappers ---------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn: Callable,
             measure: Callable[[tuple, Any], float] | None = None,
             attrs: Callable[[tuple], dict] | None = None) -> Callable:
    """``fn`` inside a span; ``measure(args, result)`` sets its ``n``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name, **(attrs(args) if attrs else {}))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if measure is not None:
            span["n"] = measure(args, result)
        return result

    return wrapper


def _aggregated(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` timed in aggregate: one count and a summed duration."""
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.aggregate(name, clock() - started)

    return wrapper


class _Patches:
    """Replacements applied to the program, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, original: Callable, replacement: Callable) -> None:
        """Swap ``original`` wherever a ``repro`` module holds it."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def method(self, cls: type, attr: str,
               make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self.set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self.set(cls, attr, make(raw))

    def undo(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _policy_classes() -> list[type]:
    """Every policy class defined in the loaded ``repro.policies`` modules."""
    found = []
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro.policies") or module is None:
            continue
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                found.append(value)
    return found


def _pool_payload_bytes(pool, kind, context, items, chunks=None) -> int:
    """Pickled size of the chunk payloads ``run_chunked`` submits."""
    items = list(items)
    count = max(1, min(len(items), pool.workers,
                       pool.workers if chunks is None else chunks))
    return sum(len(pickle.dumps({"kind": kind, "context": context,
                                 "items": items[c::count]}))
               for c in range(count))


def instrument(tracer: Tracer) -> _Patches:
    """Install the layer wrappers; returns the patches (call ``undo``)."""
    import repro.fleet.population as population
    import repro.fleet.vector as vector
    import repro.scenarios.builder as builder
    import repro.scenarios.spec as spec
    from repro.core.simulation import DaySimulation
    from repro.fleet.result import FleetResult
    from repro.harvest.dual import CachedHarvester, DualSourceHarvester
    from repro.harvest.photovoltaic import PVPanel
    import repro.policies.learned  # noqa: F401 - policy classes to wrap
    import repro.policies.library  # noqa: F401 - policy classes to wrap

    patches = _Patches()
    patches.function(population.wearer_scenarios, _spanned(
        tracer, "population.wearer_scenarios", population.wearer_scenarios,
        measure=lambda args, result: len(result)))
    patches.function(builder.build_simulation, _spanned(
        tracer, "builder.build_simulation", builder.build_simulation))
    patches.function(vector.simulate_specs_vector, _spanned(
        tracer, "engine.vector", vector.simulate_specs_vector))
    patches.function(spec.canonical_json_bytes, _spanned(
        tracer, "json.canonical", spec.canonical_json_bytes,
        measure=lambda args, result: len(result)))

    patches.method(DaySimulation, "run", lambda fn: _spanned(
        tracer, "engine.scalar_run", fn))
    patches.method(DualSourceHarvester, "battery_intake_w", lambda fn:
                   _spanned(tracer, "harvest.price", fn))
    patches.method(PVPanel, "open_circuit_voltage", lambda fn: _spanned(
        tracer, "harvest.pv_voc", fn))
    patches.method(FleetResult, "from_records", lambda fn: _spanned(
        tracer, "reduce.from_records", fn,
        measure=lambda args, result: len(args[2])))

    def cached_lookup(fn):
        @functools.wraps(fn)
        def wrapper(self, lighting, thermal):
            misses = self.stats.misses
            result = fn(self, lighting, thermal)
            tracer.count("harvest.lookups")
            if self.stats.misses != misses:
                tracer.count("harvest.misses")
            return result
        return wrapper

    patches.method(CachedHarvester, "battery_intake_w", cached_lookup)

    for cls in _policy_classes():
        for attr in ("decide", "decide_batch"):
            if attr in cls.__dict__:
                patches.method(cls, attr, lambda fn, attr=attr: _aggregated(
                    tracer, f"policy.{attr}", fn))

    _instrument_serve(tracer, patches)
    _instrument_pool(tracer, patches)
    return patches


def _instrument_serve(tracer: Tracer, patches: _Patches) -> None:
    from repro.serve.handlers import ServeService
    from repro.serve.store import ResultStore

    patches.method(ServeService, "handle", lambda fn: _spanned(
        tracer, "serve.handle", fn, attrs=lambda args: {"path": args[2]}))
    patches.method(ResultStore, "get", lambda fn: _spanned(
        tracer, "store.get", fn))
    patches.method(ResultStore, "put", lambda fn: _spanned(
        tracer, "store.put", fn, measure=lambda args, result: len(args[2])))

    def fetch(fn):
        @functools.wraps(fn)
        def wrapper(self, digest, compute):
            payload, state = fn(self, digest, compute)
            tracer.count(f"store.{state}")
            return payload, state
        return wrapper

    patches.method(ResultStore, "fetch_or_compute", fetch)


def _instrument_pool(tracer: Tracer, patches: _Patches) -> None:
    try:
        from repro.pool import WorkerPool
    except ImportError:  # versions from before repro.pool existed
        return

    def dispatch(fn):
        @functools.wraps(fn)
        def wrapper(self, kind, context, items, *, chunks=None):
            items = list(items)
            sizing = tracer.begin("trace.sizing")
            payload = _pool_payload_bytes(self, kind, context, items, chunks)
            tracer.end(sizing)
            span = tracer.begin("pool.dispatch")
            try:
                results = fn(self, kind, context, items, chunks=chunks)
            finally:
                tracer.end(span)
            sizing = tracer.begin("trace.sizing")
            tracer.count("pool.payload_bytes", payload)
            tracer.count("pool.result_bytes", len(pickle.dumps(results)))
            tracer.end(sizing)
            return results
        return wrapper

    patches.method(WorkerPool, "run_chunked", dispatch)


# -- reduction to per-layer metrics ------------------------------------------


def layer_metrics(dump: dict[str, Any], traces: set[int] | None = None,
                  ) -> dict[str, float]:
    """Per-layer self times and counts from one tracer :meth:`dump`.

    ``traces`` keeps only spans of those trace ids (``None``: all).
    Timing keys the workload cannot reach come out as ``0``.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    amount: dict[str, float] = defaultdict(float)
    for span in dump["spans"]:
        if traces is not None and span["trace"] not in traces:
            continue
        name = span["name"]
        self_s[name] += span["end"] - span["start"] - span["child_s"]
        calls[name] += 1
        amount[name] += span.get("n", 0)
    counts = dump["counts"]
    aggregates = dump["aggregates"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    decide = aggregates.get("policy.decide", [0, 0.0])
    batch = aggregates.get("policy.decide_batch", [0, 0.0])
    lookups = counts.get("harvest.lookups", 0)
    hits = counts.get("store.hit", 0)
    misses = counts.get("store.miss", 0)
    return {
        "population.wearer_scenarios_s": self_s["population.wearer_scenarios"],
        "population.wearers": amount["population.wearer_scenarios"],
        "harvest.lookups": lookups,
        "harvest.misses": counts.get("harvest.misses", 0),
        "harvest.hit_rate": ratio(lookups - counts.get("harvest.misses", 0),
                                  lookups),
        "harvest.price_s": self_s["harvest.price"],
        "harvest.pv_voc_calls": calls["harvest.pv_voc"],
        "harvest.pv_voc_s": self_s["harvest.pv_voc"],
        "builder.build_simulation_calls": calls["builder.build_simulation"],
        "builder.build_simulation_s": self_s["builder.build_simulation"],
        "engine.scalar_runs": calls["engine.scalar_run"],
        "engine.scalar_run_self_s": self_s["engine.scalar_run"],
        "engine.vector_self_s": self_s["engine.vector"],
        "policy.decide_calls": decide[0],
        "policy.decide_s": decide[1],
        "policy.decide_batch_calls": batch[0],
        "policy.decide_batch_s": batch[1],
        "reduce.records": amount["reduce.from_records"],
        "reduce.from_records_s": self_s["reduce.from_records"],
        "json.canonical_calls": calls["json.canonical"],
        "json.canonical_bytes": amount["json.canonical"],
        "json.canonical_s": self_s["json.canonical"],
        "store.hits": hits,
        "store.misses": misses,
        "store.hit_rate": ratio(hits, hits + misses),
        "store.get_s": self_s["store.get"],
        "store.put_s": self_s["store.put"],
        "store.bytes_written": amount["store.put"],
        "serve.handle_s": self_s["serve.handle"],
        "pool.dispatch_s": self_s["pool.dispatch"],
        "pool.payload_bytes": counts.get("pool.payload_bytes", 0),
        "pool.result_bytes": counts.get("pool.result_bytes", 0),
    }


def span_seconds(dump: dict[str, Any], name: str,
                 traces: set[int] | None = None) -> float:
    """Summed duration (not self time) of the spans called ``name``."""
    return sum(span["end"] - span["start"] for span in dump["spans"]
               if span["name"] == name
               and (traces is None or span["trace"] in traces))

"""Span tracing from outside the program: wrap layer entry points.

The benchmark never edits ``src/``.  For a traced run it replaces the
public entry point of each layer (a module-level function or a class
method) with a thin wrapper that records one span per call, runs the
traced run, and puts the originals back.  Spans stay in memory as
plain tuples ``(call_id, name, start, end, parent_id)`` and are written
out once, when the run ends.

Only layer boundaries are wrapped.  Hot, tiny functions such as
``Slice.intersects`` are deliberately left alone: their cost is what
the self time of the enclosing query span (``core.descent_self_s``)
measures, and wrapping them would multiply the tracing overhead.

Process-backend workers are forked from the benchmark process, so they
inherit the wrappers.  A worker records spans into its own copy of the
recorder; the wrapper around ``repro.parallel.worker._serve`` folds them
into per-layer seconds and ships them home as extra histograms in the
reply the pool already absorbs into the executor's telemetry registry
(see :meth:`SpanRecorder.install_worker_collector`).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Prefix of the histograms that carry worker-side layer seconds.
WORKER_HIST_PREFIX = "perfbench.worker."


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point: ``owner.attr`` recorded as span ``name``."""

    owner: Any
    attr: str
    name: str


def layer_hooks() -> list[Hook]:
    """The layer entry points a traced run wraps, by span name.

    Imported lazily so that importing this module does not import the
    program under test.
    """
    import repro.core.quasii as quasii_mod
    import repro.index.base as index_base
    import repro.parallel.pool as pool_mod
    from repro.core.quasii import QuasiiIndex
    from repro.datasets.store import BoxStore
    from repro.index.base import IndexStats
    from repro.sharding.executor import QueryExecutor
    from repro.sharding.maintenance import MaintenanceScheduler
    from repro.sharding.sharded_index import ShardedIndex
    from repro.updates.buffer import UpdateBuffer

    return [
        Hook(QueryExecutor, "run", "executor.run"),
        Hook(ShardedIndex, "execute_batch", "sharding.batch"),
        Hook(ShardedIndex, "plan_shards", "sharding.route"),
        Hook(ShardedIndex, "insert", "sharding.write"),
        Hook(ShardedIndex, "delete", "sharding.write"),
        Hook(pool_mod.ProcessPool, "run_batch", "parallel.fanout"),
        Hook(QuasiiIndex, "execute", "core.query"),
        Hook(QuasiiIndex, "execute_batch", "core.query"),
        Hook(quasii_mod, "crack", "core.crack"),
        Hook(index_base, "predicate_mask", "geometry.predicate"),
        Hook(IndexStats, "snapshot", "index.stats"),
        Hook(IndexStats, "delta_since", "index.stats"),
        Hook(BoxStore, "validate_batch", "store.validate"),
        Hook(BoxStore, "append_validated", "store.append"),
        Hook(BoxStore, "delete_ids", "store.delete"),
        Hook(BoxStore, "compact", "store.compact"),
        Hook(UpdateBuffer, "add", "updates.buffer_add"),
        Hook(MaintenanceScheduler, "run", "maintenance.run"),
    ]


class SpanRecorder:
    """In-memory span log fed by wrapped entry points.

    Recording is single-threaded by construction: every workload runs
    one client in one thread, and worker processes each own a
    private copy of the recorder.  A call re-entering a span name that
    is already open (recursion through the same entry point) is not
    recorded again, so busy time never counts an interval twice.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._installed: list[tuple[Any, str, Any, bool]] = []

    # -- recording ------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans (open spans keep their ids)."""
        self.spans = []

    def span(self, name: str) -> "_SpanContext":
        """A ``with`` block recorded as one span (the benchmark's own calls)."""
        return _SpanContext(self, name)

    def _enter(self, name: str) -> int:
        call_id = self._next_id
        self._next_id += 1
        self._stack.append(call_id)
        self._open[name] += 1
        return call_id

    def _exit(self, call_id: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self._open[name] -= 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((call_id, name, start, end, parent))

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Return ``fn`` wrapped to record one span per call."""
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled or recorder._open[name]:
                return fn(*args, **kwargs)
            call_id = recorder._enter(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._exit(call_id, name, start, time.perf_counter())

        return functools.wraps(fn)(traced)

    # -- installation ---------------------------------------------------
    def install(self, hooks: list[Hook]) -> None:
        """Wrap every hook; :meth:`uninstall` restores the originals.

        A method inherited from a base class is wrapped on the named
        class only (the attribute is set there), so sibling classes that
        share the base implementation stay untraced.
        """
        for hook in hooks:
            own = hook.attr in vars(hook.owner)
            original = getattr(hook.owner, hook.attr)
            if isinstance(hook.owner, type):
                original = hook.owner.__dict__.get(hook.attr, original)
            self._installed.append((hook.owner, hook.attr, original, own))
            setattr(hook.owner, hook.attr, self.wrap(original, hook.name))

    def install_worker_collector(self) -> None:
        """Wrap the worker's sub-batch entry point to ship layer seconds.

        The wrapper runs inside each forked worker: it records the
        sub-batch's spans, folds them into per-layer seconds, and adds
        one single-sample histogram per layer to the reply's histogram
        map, which the pool absorbs into the parent's registry.
        """
        import repro.parallel.worker as worker_mod
        from repro.telemetry import LatencyHistogram

        original = worker_mod._serve
        recorder = self

        def traced_serve(state: Any, wire: Any) -> Any:
            # A worker forked mid-run inherits the parent's open spans;
            # none of them is open in this process.
            recorder._stack = []
            recorder._open = defaultdict(int)
            recorder.reset()
            recorder.enabled = True
            try:
                reply, batch_seconds, hists, work = original(state, wire)
            finally:
                recorder.enabled = False
            for key, seconds in layer_seconds(recorder.spans).items():
                if seconds > 0:
                    hist = LatencyHistogram()
                    hist.record(seconds)
                    hists[WORKER_HIST_PREFIX + key] = hist
            recorder.reset()
            return reply, batch_seconds, hists, work

        self._installed.append((worker_mod, "_serve", original, True))
        worker_mod._serve = traced_serve

    def uninstall(self) -> None:
        """Restore every wrapped entry point, newest first."""
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()
        self.enabled = False

    # -- output ---------------------------------------------------------
    def write_jsonl(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for call_id, name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": call_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )


class _SpanContext:
    __slots__ = ("_rec", "_name", "_id", "_start")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._rec = recorder
        self._name = name

    def __enter__(self) -> None:
        self._id = -1
        if self._rec.enabled:
            self._id = self._rec._enter(self._name)
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        if self._id >= 0:
            self._rec._exit(self._id, self._name, self._start, time.perf_counter())


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def span_tree(
    spans: list[tuple[int, str, float, float, int]]
) -> tuple[dict[str, float], dict[str, float], dict[int, list[int]]]:
    """Per-name busy and self seconds, plus the parent -> children map.

    Busy time sums span durations.  Self time is a span's duration
    minus the durations of its direct children; children run inside
    their parent on the same thread, so they never overlap each other.
    """
    duration = {s[0]: s[3] - s[2] for s in spans}
    children: dict[int, list[int]] = defaultdict(list)
    for call_id, _name, _start, _end, parent in spans:
        if parent >= 0:
            children[parent].append(call_id)
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for call_id, name, _start, _end, _parent in spans:
        busy[name] += duration[call_id]
        covered = sum(duration.get(c, 0.0) for c in children.get(call_id, ()))
        self_time[name] += duration[call_id] - covered
    return dict(busy), dict(self_time), dict(children)


def layer_seconds(
    spans: list[tuple[int, str, float, float, int]]
) -> dict[str, float]:
    """The per-layer second metrics a span log yields.

    Keys are metric names without the workload context; every value is
    a sum over the log.  ``core.descent_self_s`` is the self time of the
    index's query calls: their duration minus the timed children
    (cracking, the refine kernel, stats bookkeeping, store and buffer
    calls made while absorbing buffered inserts).  ``index.stats_s``
    leaves out the stats bracket an executor with telemetry puts around
    each batch: only traced ``serve`` passes turn that telemetry on, to
    carry worker-side spans home, so the bracket is tracing cost.
    """
    busy, self_time, _ = span_tree(spans)
    return {
        "core.query_s": busy.get("core.query", 0.0),
        "bench.query_s": busy.get("bench.query", 0.0),
        "core.crack_s": busy.get("core.crack", 0.0),
        "core.descent_self_s": self_time.get("core.query", 0.0),
        "index.stats_s": busy.get("index.stats", 0.0)
        - child_busy(spans, "executor.run", "index.stats"),
        "geometry.predicate_s": busy.get("geometry.predicate", 0.0),
        "store.validate_s": busy.get("store.validate", 0.0),
        "store.append_s": busy.get("store.append", 0.0),
        "store.delete_s": busy.get("store.delete", 0.0),
        "store.compact_s": busy.get("store.compact", 0.0),
        "updates.buffer_add_s": busy.get("updates.buffer_add", 0.0),
        "sharding.route_s": busy.get("sharding.route", 0.0),
        "sharding.batch_self_s": self_time.get("sharding.batch", 0.0),
        "sharding.write_self_s": self_time.get("sharding.write", 0.0),
        "maintenance.busy_s": busy.get("maintenance.run", 0.0),
    }


def child_busy(
    spans: list[tuple[int, str, float, float, int]], parent: str, child: str
) -> float:
    """Seconds of ``child`` spans whose direct parent is a ``parent`` span."""
    names = {s[0]: s[1] for s in spans}
    return sum(
        s[3] - s[2] for s in spans if s[1] == child and names.get(s[4]) == parent
    )


def max_duration(
    spans: list[tuple[int, str, float, float, int]], name: str
) -> float:
    """Longest single span of ``name`` in seconds (0.0 when none)."""
    return max((s[3] - s[2] for s in spans if s[1] == name), default=0.0)


def shard_skews(spans: list[tuple[int, str, float, float, int]]) -> list[float]:
    """Max over mean of per-shard sub-batch time, one value per batch.

    On the inline backend each ``sharding.batch`` span's direct
    ``core.query`` children are the per-shard sub-batches.
    """
    by_id = {s[0]: s for s in spans}
    _, _, children = span_tree(spans)
    out = []
    for call_id, name, _start, _end, _parent in spans:
        if name != "sharding.batch":
            continue
        parts = [
            by_id[c][3] - by_id[c][2]
            for c in children.get(call_id, ())
            if by_id[c][1] == "core.query"
        ]
        if parts and sum(parts) > 0:
            out.append(max(parts) / (sum(parts) / len(parts)))
    return out


def check_tree(spans: list[tuple[int, str, float, float, int]]) -> list[str]:
    """Structural problems in a span log (an empty list when sound).

    Every child must lie inside its parent's interval, the children of a
    span must not cover more than its duration, and every self time must
    be non-negative.
    """
    by_id = {s[0]: s for s in spans}
    problems = []
    _, _, children = span_tree(spans)
    for call_id, name, start, end, parent in spans:
        if end < start:
            problems.append(f"span {call_id} ({name}) ends before it starts")
        if parent >= 0 and parent in by_id:
            p = by_id[parent]
            if start < p[2] or end > p[3]:
                problems.append(
                    f"span {call_id} ({name}) leaves its parent {parent} ({p[1]})"
                )
        covered = sum(by_id[c][3] - by_id[c][2] for c in children.get(call_id, ()))
        if covered > (end - start) + 1e-9:
            problems.append(
                f"children of span {call_id} ({name}) exceed its duration"
            )
    return problems

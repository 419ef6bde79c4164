"""The worker process: attach shard segments, rebuild, serve sub-batches.

One :func:`worker_main` loop runs per pool process.  A worker owns a
fixed subset of shards (dispatch is ``sid % n_workers``, so a shard's
snapshot is only ever cracked by a single process — shard affinity
extends across the process boundary) and keeps, per owned shard:

* a :class:`~repro.parallel.shm.SharedStoreView` — the zero-copy store
  over the shard's current shared-memory segment, and
* a locally rebuilt :class:`~repro.core.quasii.QuasiiIndex` over that
  snapshot, which keeps *cracking adaptively* inside the worker between
  refreshes — the warm structure is the whole point of a persistent
  pool over per-batch processes.

The worker-side index is always QUASII regardless of the engine's
``index_factory``: factory callables are exactly the kind of payload
the process boundary refuses to ship (QL008), and result correctness is
index-independent (every index is exact over its store).

Messages arrive as plain tuples of wire dataclasses (see
:mod:`repro.parallel.wire`); a ``batch`` message carries an optional
:class:`~repro.parallel.shm.SegmentSpec` that, when present, retires
the shard's previous view (mapping closed, index dropped) and attaches
the new segment version before serving — the epoch-invalidation
protocol's worker half.  Replies carry the result wire plus the
sub-batch's telemetry: fresh per-batch
:class:`~repro.telemetry.metrics.LatencyHistogram` instances (merged
into the driver registry after every batch) and the index work-counter
deltas (folded into the engine's ``IndexStats``), so a process-backend
run is observable exactly like an inline one.
"""

from __future__ import annotations

import time
from typing import Any, Protocol

from repro.parallel.shm import SegmentSpec, SharedStoreView
from repro.parallel.wire import (
    QueryBatchWire,
    decode_queries,
    encode_results,
)
from repro.telemetry.metrics import LatencyHistogram
from repro.telemetry.naming import WORKER_BATCH_SECONDS, WORKER_QUERY_SECONDS

__all__ = ["PipeEndpoint", "ProcessShardWorker", "WORK_COUNTERS", "worker_main"]


class PipeEndpoint(Protocol):
    """The duplex-pipe surface the serving protocol needs.

    Structural on purpose: naming
    :class:`multiprocessing.connection.Connection` in annotations ties
    the code to a typeshed revision (the class grew type parameters),
    while every real pipe end satisfies this protocol unchanged.
    """

    def send(self, obj: Any) -> None: ...

    def recv(self) -> Any: ...

    def poll(self, timeout: float | None = ...) -> bool: ...

    def close(self) -> None: ...

#: Index work counters shipped back per sub-batch (the same set
#: ShardedIndex.sync_shard_work rolls up for inline shards; the
#: flow counters stay driver-side or they would double count).
WORK_COUNTERS = (
    "objects_tested",
    "nodes_visited",
    "cracks",
    "rows_reorganized",
    "merges",
)


class _ShardState:
    """One owned shard inside a worker: view + warm local index."""

    __slots__ = ("view", "index", "version")

    def __init__(self, view: SharedStoreView) -> None:
        """Build the warm local index over an attached view."""
        from repro.core.quasii import QuasiiIndex

        self.view = view
        self.version = view.spec.version
        self.index = QuasiiIndex(view.store)
        self.index.build()

    def close(self) -> None:
        """Drop the index, then the mapping (order matters: a live
        index keeps the store's buffer exported, which would turn the
        mmap close into a no-op until GC)."""
        self.index = None  # type: ignore[assignment]
        try:
            self.view.close()
        except BufferError:  # pragma: no cover - stray view reference
            pass  # leak one mapping rather than kill the worker


def _serve(
    state: _ShardState, wire: QueryBatchWire
) -> tuple[object, float, dict[str, LatencyHistogram], dict[str, int]]:
    """Execute one sub-batch on a shard's warm local index."""
    queries = decode_queries(wire)
    index = state.index
    before = index.stats.snapshot()
    w0 = time.perf_counter()
    results = index.execute_batch(queries)
    batch_seconds = time.perf_counter() - w0
    batch_hist = LatencyHistogram()
    batch_hist.record(batch_seconds)
    query_hist = LatencyHistogram()
    for result in results:
        query_hist.record(result.seconds)
    delta = index.stats.delta_since(before)
    work = {name: int(getattr(delta, name)) for name in WORK_COUNTERS}
    reply = encode_results(results, index.store.ndim)
    hists = {
        WORKER_BATCH_SECONDS: batch_hist,
        WORKER_QUERY_SECONDS: query_hist,
    }
    return reply, batch_seconds, hists, work


def worker_main(
    conn: PipeEndpoint, wid: int, tracker_shared: bool = False
) -> None:
    """The worker process entry point (must stay module-level so the
    ``spawn`` start method can import it by qualified name).
    ``tracker_shared`` tells segment attaches whether this process
    writes to the driver's resource tracker (fork/forkserver) or its
    own (spawn) — see :mod:`repro.parallel.shm`.

    Protocol (requests -> replies, all plain picklable tuples):

    * ``("batch", sid, spec | None, QueryBatchWire)`` ->
      ``("ok", sid, ResultBatchWire, batch_seconds, hists, work)`` or
      ``("err", sid, message)``.  A non-``None`` spec switches the
      shard to that segment version first.
    * ``("shutdown",)`` -> ``("bye", wid)`` and the loop exits.

    A worker never exits on a per-batch failure — errors are reported
    to the driver, which decides whether to raise; only a lost pipe
    (driver gone) or a shutdown message ends the loop.
    """
    states: dict[int, _ShardState] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):  # driver went away
                break
            tag = msg[0]
            if tag == "shutdown":
                conn.send(("bye", wid))
                break
            if tag != "batch":
                conn.send(("err", -1, f"unknown message tag {tag!r}"))
                continue
            sid = int(msg[1])
            spec: SegmentSpec | None = msg[2]
            wire: QueryBatchWire = msg[3]
            try:
                if spec is not None:
                    old = states.pop(sid, None)
                    if old is not None:
                        old.close()
                    states[sid] = _ShardState(
                        SharedStoreView.attach(spec, tracker_shared)
                    )
                state = states.get(sid)
                if state is None:
                    raise RuntimeError(
                        f"worker {wid} has no segment for shard {sid}"
                    )
                reply, batch_seconds, hists, work = _serve(state, wire)
            # The serving loop's one broad catch: any failure must reach
            # the driver as an error reply, not kill the worker and
            # strand the rest of the batch.
            except Exception as exc:  # ql: allow[QL006]
                conn.send(("err", sid, f"{type(exc).__name__}: {exc}"))
                continue
            conn.send(("ok", sid, reply, batch_seconds, hists, work))
    finally:
        for state in states.values():
            state.close()
        conn.close()


class ProcessShardWorker:
    """Driver-side handle for one worker process.

    Tracks the per-shard segment versions the worker has attached, so
    dispatch only ships a :class:`SegmentSpec` when the worker's view
    is stale — and a respawned worker (fresh process, empty version
    map) transparently re-receives every spec it needs.
    """

    __slots__ = ("wid", "process", "conn", "seen_versions")

    def __init__(self, wid: int, process: object, conn: PipeEndpoint) -> None:
        self.wid = wid
        self.process = process
        self.conn = conn
        #: sid -> segment version this worker has attached.
        self.seen_versions: dict[int, int] = {}

    @property
    def pid(self) -> int | None:
        """OS pid of the worker process (``None`` before start)."""
        pid = getattr(self.process, "pid", None)
        return int(pid) if pid is not None else None

    def is_alive(self) -> bool:
        alive = getattr(self.process, "is_alive", None)
        return bool(alive()) if alive is not None else False

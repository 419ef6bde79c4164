"""The persistent process pool: segment publishing, dispatch, recovery.

:class:`ProcessPool` is the driver half of the process backend.  It
spawns its workers **once** (fork-preferred — see
:func:`resolve_start_method`) and keeps them warm across batches, so the
per-batch cost is a few small pickled wire structures per shard rather
than process creation, segment attach, and an index rebuild.  Per batch
it:

1. **Refreshes segments** — for every shard the batch touches, flushes
   the shard's buffered updates and republishes its shared-memory
   segment *iff* the existing one went stale (shard object replaced by
   a rebalance rebuild, store epoch bumped by append/delete/compact, or
   rows still pending in the update buffer).  Old versions are
   destroyed immediately; workers keep serving from their mapping until
   the new spec reaches them with the sub-batch that needs it.
2. **Dispatches sub-batches** — shard ``sid`` always goes to worker
   ``sid % n_workers`` (shard affinity across processes: one process
   cracks a given snapshot, ever), sending a
   :class:`~repro.parallel.shm.SegmentSpec` only when that worker's
   attached version is behind.
3. **Collects and folds** — decodes result wires back into
   :class:`~repro.queries.query.QueryResult` lists, absorbs the
   workers' per-batch histograms into the driver registry, and folds
   the index work-counter deltas into the engine's ``IndexStats``.

A worker that dies mid-service (OOM kill, SIGKILL, segfault) surfaces
as a broken pipe on send or EOF on recv; the pool respawns it, clears
its version map (the fresh process re-receives every spec), re-dispatches
the sub-batches that worker still owed, and emits ``worker.respawn`` —
the batch completes with no caller-visible difference.  Only a worker
that keeps dying faster than it can be respawned raises
:class:`~repro.errors.ParallelError`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing import resource_tracker
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError, ParallelError
from repro.parallel.shm import ShardSegment, publish_segment
from repro.parallel.wire import decode_results, encode_queries
from repro.parallel.worker import (
    WORK_COUNTERS,
    ProcessShardWorker,
    worker_main,
)
from repro.telemetry.naming import WORKER_DISPATCHES, WORKER_RESPAWNS

if TYPE_CHECKING:
    from repro.queries.query import Query, QueryResult
    from repro.sharding.sharded_index import ShardedIndex
    from repro.telemetry import Telemetry
    from repro.telemetry.events import EventLog

__all__ = ["ProcessPool", "resolve_start_method"]

#: Environment override for the pool's process start method.
START_METHOD_ENV = "QUASII_PROCESS_START_METHOD"

#: Pipe-level failures that mean "the worker process is gone".
_PIPE_ERRORS = (BrokenPipeError, ConnectionResetError, EOFError, OSError)

#: Respawns tolerated for one worker within one batch before giving up.
_MAX_RESPAWNS_PER_BATCH = 3


def resolve_start_method(requested: str | None = None) -> str:
    """Pick the multiprocessing start method for the pool.

    Preference order: explicit argument, then :data:`START_METHOD_ENV`,
    then ``fork`` when the platform offers it (workers inherit the
    imported modules for free — spawn pays a full interpreter boot and
    re-import per worker), else the platform default.
    """
    method = requested or os.environ.get(START_METHOD_ENV) or None
    available = multiprocessing.get_all_start_methods()
    if method is not None:
        if method not in available:
            raise ConfigurationError(
                f"process start method {method!r} not available here "
                f"(choose from {available})"
            )
        return method
    return "fork" if "fork" in available else multiprocessing.get_start_method()


class ProcessPool:
    """A persistent pool of shard-serving worker processes.

    Parameters
    ----------
    index:
        The driver-side engine.  The pool never mutates it beyond
        flushing shard update buffers before a republish; all update
        verbs stay driver-side.
    n_workers:
        Worker process count (>= 1).
    telemetry:
        Optional driver telemetry; worker histograms are absorbed into
        its registry after every batch and ``worker.*`` counters land
        there too.
    events:
        Optional event log for ``worker.spawn`` / ``worker.respawn`` /
        ``worker.refresh``.
    start_method:
        Explicit start method; defaults to :func:`resolve_start_method`.
    """

    def __init__(
        self,
        index: ShardedIndex,
        n_workers: int,
        telemetry: Telemetry | None = None,
        events: EventLog | None = None,
        start_method: str | None = None,
    ) -> None:
        # Teardown state first: __del__ runs even when construction
        # raises below, and close() must find a coherent (empty) pool.
        self._segments: dict[int, ShardSegment] = {}
        self._versions: dict[int, int] = {}
        self._workers: list[ProcessShardWorker] = []
        self._closed = False
        if n_workers < 1:
            raise ConfigurationError(
                f"process pool needs n_workers >= 1, got {n_workers}"
            )
        self._index = index
        self._telemetry = telemetry
        self._events = events
        self.start_method = resolve_start_method(start_method)
        self._ctx = multiprocessing.get_context(self.start_method)
        # Start the driver's resource tracker BEFORE forking: a forked
        # worker inherits (and shares) whatever tracker exists at fork
        # time.  Without this, the first worker to attach a segment
        # starts its own private tracker, whose exit-time "leak"
        # cleanup unlinks driver-owned segments when that worker dies —
        # exactly the crash the respawn path must survive.
        resource_tracker.ensure_running()
        self._workers = [self._spawn_worker(wid) for wid in range(n_workers)]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self._workers)

    @property
    def worker_pids(self) -> list[int | None]:
        """Current worker pids, by wid (test/diagnostic hook)."""
        return [w.pid for w in self._workers]

    def _spawn_worker(self, wid: int) -> ProcessShardWorker:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=True)
        # typeshed models contexts without a Process attribute on the
        # base class; the runtime attribute is the whole point of
        # get_context, so fetch it dynamically.
        process_cls: Any = getattr(self._ctx, "Process")  # noqa: B009
        # Workers always share the driver's resource tracker: fork and
        # forkserver children inherit its pipe fd, and spawn children
        # receive it through multiprocessing's preparation data.  Only a
        # genuinely foreign process (attaching by name from outside this
        # process tree) runs its own tracker and would pass False here.
        process = process_cls(
            target=worker_main,
            args=(child_conn, wid, True),
            name=f"quasii-shard-worker-{wid}",
            daemon=True,
        )
        process.start()
        # The parent's copy of the child end must close, or a dead
        # worker would never surface as EOF on recv.
        child_conn.close()
        worker = ProcessShardWorker(wid, process, parent_conn)
        if self._events is not None:
            self._events.emit(
                "worker.spawn",
                wid=wid,
                pid=worker.pid,
                start_method=self.start_method,
            )
        return worker

    def _respawn(self, wid: int, sids: list[int]) -> None:
        """Replace a dead worker and account for the loss."""
        old = self._workers[wid]
        old_pid = old.pid
        try:
            old.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        join = getattr(old.process, "join", None)
        if join is not None:
            join(timeout=1.0)
        replacement = self._spawn_worker(wid)
        self._workers[wid] = replacement
        self._count(WORKER_RESPAWNS)
        if self._events is not None:
            self._events.emit(
                "worker.respawn",
                wid=wid,
                old_pid=old_pid,
                new_pid=replacement.pid,
                sids=sorted(sids),
            )

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def _refresh_segments(self, sids: list[int]) -> None:
        """Republish every stale segment among ``sids``.

        Staleness = the shard object was replaced (rebalance rebuild),
        the store epoch moved (append / delete / compact), or rows sit
        in the shard's update buffer.  Buffers are flushed first so the
        published snapshot owns every routed row — the segment is then
        exact for the live multiset, and pruning on it cannot miss.
        """
        shards = self._index.shards
        for sid in sids:
            shard = shards[sid]
            pending = shard.pending()
            segment = self._segments.get(sid)
            if segment is not None and segment.is_current(
                shard, shard.store.epoch, pending
            ):
                continue
            if pending:
                shard.flush()
            version = self._versions.get(sid, -1) + 1
            self._versions[sid] = version
            spec, shm = publish_segment(shard.store, sid, version)
            if segment is not None:
                segment.destroy()
            self._segments[sid] = ShardSegment(spec, shm, shard)
            if self._events is not None:
                self._events.emit(
                    "worker.refresh",
                    sid=sid,
                    version=version,
                    rows=spec.n_rows,
                    epoch=spec.epoch,
                )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def run_batch(
        self, queries: list[Query], queues: dict[int, list[int]]
    ) -> dict[int, tuple[list[int], list[QueryResult], float]]:
        """Serve one routed batch: ``sid -> (query idxs, results, seconds)``.

        ``queues`` is the engine's routing product (query indexes per
        shard sid).  Returns, per shard, the decoded sub-batch results
        aligned with its index list plus the worker-measured sub-batch
        wall-clock (the ``shard.batch.seconds`` sample).
        """
        if self._closed:
            raise ParallelError("process pool used after close()")
        if not queues:
            return {}
        self._refresh_segments(sorted(queues))
        sub_queries = {
            sid: [queries[i] for i in idxs] for sid, idxs in queues.items()
        }
        wires = {
            sid: encode_queries(sub) for sid, sub in sub_queries.items()
        }
        pending = set(queues)
        replies: dict[int, tuple[Any, ...]] = {}
        respawns: dict[int, int] = {}
        while pending:
            by_worker: dict[int, list[int]] = {}
            for sid in sorted(pending):
                by_worker.setdefault(sid % self.n_workers, []).append(sid)
            dead: set[int] = set()
            for wid, sids in by_worker.items():
                worker = self._workers[wid]
                for sid in sids:
                    spec = self._segments[sid].spec
                    ship = (
                        spec
                        if worker.seen_versions.get(sid) != spec.version
                        else None
                    )
                    try:
                        worker.conn.send(("batch", sid, ship, wires[sid]))
                    except _PIPE_ERRORS:
                        dead.add(wid)
                        break
                    if ship is not None:
                        worker.seen_versions[sid] = spec.version
                    self._count(WORKER_DISPATCHES)
            for wid, sids in by_worker.items():
                if wid in dead:
                    continue
                worker = self._workers[wid]
                for _ in sids:
                    try:
                        reply = worker.conn.recv()
                    except _PIPE_ERRORS:
                        dead.add(wid)
                        break
                    if reply[0] == "err":
                        raise ParallelError(
                            f"worker {wid} failed on shard {reply[1]}: "
                            f"{reply[2]}"
                        )
                    sid = int(reply[1])
                    replies[sid] = reply
                    pending.discard(sid)
            for wid in sorted(dead):
                respawns[wid] = respawns.get(wid, 0) + 1
                if respawns[wid] > _MAX_RESPAWNS_PER_BATCH:
                    raise ParallelError(
                        f"worker {wid} died {respawns[wid]} times in one "
                        f"batch; giving up"
                    )
                owed = [s for s in by_worker.get(wid, []) if s in pending]
                self._respawn(wid, owed)
        return self._fold_replies(queues, sub_queries, replies)

    def _fold_replies(
        self,
        queues: dict[int, list[int]],
        sub_queries: dict[int, list[Query]],
        replies: dict[int, tuple[Any, ...]],
    ) -> dict[int, tuple[list[int], list[QueryResult], float]]:
        """Decode replies and fold worker telemetry into the driver."""
        work_totals = dict.fromkeys(WORK_COUNTERS, 0)
        out: dict[int, tuple[list[int], list[QueryResult], float]] = {}
        for sid, idxs in queues.items():
            _tag, _sid, wire, batch_seconds, hists, work = replies[sid]
            results = decode_results(wire, sub_queries[sid])
            out[sid] = (idxs, results, float(batch_seconds))
            for name in WORK_COUNTERS:
                work_totals[name] += int(work.get(name, 0))
            if self._telemetry is not None:
                for name, hist in hists.items():
                    self._telemetry.registry.histogram(name).absorb(hist)
        stats = self._index.stats
        for name, total in work_totals.items():
            if total:
                setattr(stats, name, getattr(stats, name) + total)
        return out

    def _count(self, name: str, n: int = 1) -> None:
        if self._telemetry is not None:
            self._telemetry.registry.counter(name).inc(n)

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut workers down and destroy every published segment.

        After this returns no pool-created name remains in the OS
        shared-memory namespace (the cleanup test attaches by name and
        expects ``FileNotFoundError``), and every worker process has
        exited (joined, or terminated if it ignored shutdown).
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if worker.is_alive():
                try:
                    worker.conn.send(("shutdown",))
                except _PIPE_ERRORS:
                    pass
        deadline = time.monotonic() + 5.0
        for worker in self._workers:
            join = getattr(worker.process, "join", None)
            if join is not None:
                join(timeout=max(0.1, deadline - time.monotonic()))
            if worker.is_alive():  # pragma: no cover - stuck worker
                terminate = getattr(worker.process, "terminate", None)
                if terminate is not None:
                    terminate()
                if join is not None:
                    join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._workers = []
        for segment in self._segments.values():
            segment.destroy()
        self._segments.clear()

    def __enter__(self) -> ProcessPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except (OSError, ValueError):
            pass

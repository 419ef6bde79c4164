"""Batch query execution across shards, inline or on a process pool.

Serving engines amortize dispatch over *batches*: the
:class:`QueryExecutor` takes a list of range queries and runs them
through the engine's one dispatch pipeline — every query is routed once
against the shard MBBs on the driver (so prune counters never race),
each shard answers its portion of the batch as one sub-batch in
submission order, and the partial results are merged once.  QUASII
queries physically reorganize their shard's data, so every shard index
has a single writer: the driver itself, or the one worker process that
owns the shard.

Only the sub-batch runner varies, and it is picked by the executor's
backend (:data:`BACKENDS`):

* ``"sequential"`` runs the sub-batches inline, one shard after
  another, through :meth:`ShardedIndex.execute_batch
  <repro.index.base.SpatialIndex.execute_batch>`;
* ``"processes"`` serves them on a persistent
  :class:`~repro.parallel.pool.ProcessPool` from shared-memory
  snapshots, escaping the GIL.  ``max_workers`` sizes that pool.

Both fill the same :class:`BatchResult` fields: per-shard query counts
and seconds, plus the route/fan-out/merge split.  An explicit
``backend=`` argument wins; otherwise ``QUASII_EXECUTOR_BACKEND`` is
consulted (only when the resolved ``max_workers`` exceeds 1, so
single-worker setups keep their sequential contract); otherwise the
backend is ``"sequential"``.  Replicated engines route reads through
per-shard replica picks, which the process tier bypasses by design, so
they serve inline: asking for ``backend="processes"`` on one raises,
and an env-sourced request resolves to ``"sequential"``.

Passing a :class:`~repro.sharding.maintenance.MaintenancePolicy` makes
the executor the maintenance driver too: after every batch it ticks a
:class:`~repro.sharding.maintenance.MaintenanceScheduler`, which
compacts tombstone-heavy shards and rebalances drifted ones — the
serving loop needs no ad-hoc ``maybe_compact`` calls sprinkled between
batches.  Maintenance time is charged to the scheduler's report, not to
any batch's ``seconds``.
"""

from __future__ import annotations

import os
from types import TracebackType
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.index.base import IndexStats
from repro.queries.query import Query
from repro.queries.range_query import RangeQuery
from repro.sharding.maintenance import MaintenancePolicy, MaintenanceScheduler
from repro.sharding.replication import FaultInjector, ReplicatedShardedIndex
from repro.sharding.sharded_index import BatchResult, ShardedIndex
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog
from repro.telemetry.naming import (
    BATCH_FANOUT_SECONDS,
    BATCH_MERGE_SECONDS,
    BATCH_ROUTE_SECONDS,
    BATCH_SECONDS,
    QUERY_SECONDS,
    SHARD_BATCH_SECONDS,
    record_stats_delta,
)

if TYPE_CHECKING:
    from repro.parallel.pool import ProcessPool

#: The executor's dispatch backends: run sub-batches inline or on a
#: process pool.
BACKENDS = ("sequential", "processes")

#: Environment override consulted when no explicit ``backend=`` is given.
BACKEND_ENV = "QUASII_EXECUTOR_BACKEND"


class QueryExecutor:
    """Run query batches against a :class:`ShardedIndex`.

    Parameters
    ----------
    index:
        The sharded engine; built on first use if necessary.
    max_workers:
        Process pool width.  ``None`` uses ``os.cpu_count()`` capped at
        the shard count.  It also gates the env override below: a
        ``<= 1`` executor never leaves the sequential backend unless
        ``backend`` says so.
    backend:
        Dispatch backend: one of :data:`BACKENDS` or ``None``.
        ``None`` (default) resolves via the module docstring's rules —
        the env override (:data:`BACKEND_ENV`, honored only when the
        resolved ``max_workers`` exceeds 1), else ``"sequential"``.
        The ``"processes"`` backend
        lazily spins up a persistent
        :class:`~repro.parallel.pool.ProcessPool` on first use; call
        :meth:`close` (or use the executor as a context manager) to
        tear it down deterministically.
    maintenance:
        Optional :class:`MaintenancePolicy`; when given, a
        :class:`MaintenanceScheduler` is ticked after every executed
        batch, so compaction and rebalancing ride the serving loop
        (cracking-style) instead of needing ad-hoc call sites.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle.  When given,
        every batch records latency histograms (whole batch, per query,
        per shard sub-batch, route/fan-out/merge phases) and flows the
        engine's :class:`~repro.index.base.IndexStats` delta into
        ``stats.*`` registry counters; the maintenance scheduler traces
        its passes as spans on ``telemetry.tracer``.  When ``None``
        (default), the only cost on the batch path is one ``is None``
        test — see docs/OBSERVABILITY.md.
    events:
        Optional :class:`~repro.telemetry.events.EventLog`.  Slow-query
        events land here (see ``slow_query_threshold``), and the
        maintenance scheduler mirrors its work-performing passes as
        ``maintenance.*`` events.
    slow_query_threshold:
        Seconds above which an executed query emits a ``slow_query``
        event into ``events``, carrying the query window,
        predicate/mode, its seconds, and the owning batch's fan-out
        profile (per-shard seconds, shards visited/pruned, phase
        split).  ``None`` (default) disables the check entirely.
    fault_injector:
        Optional :class:`~repro.sharding.replication.FaultInjector`,
        attached to a replication-aware engine
        (:class:`~repro.sharding.replication.ReplicatedShardedIndex`)
        so deterministic kill/stall/slow faults fire on the serving
        path.  Passing one with a plain :class:`ShardedIndex` raises —
        faults are first-class inputs, never silently dropped.
    """

    def __init__(
        self,
        index: ShardedIndex,
        max_workers: int | None = None,
        backend: str | None = None,
        maintenance: MaintenancePolicy | None = None,
        telemetry: Telemetry | None = None,
        events: EventLog | None = None,
        slow_query_threshold: float | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 0:
            raise ConfigurationError(
                f"max_workers must be >= 0, got {max_workers}"
            )
        if slow_query_threshold is not None and slow_query_threshold < 0:
            raise ConfigurationError(
                "slow_query_threshold must be >= 0 seconds, got "
                f"{slow_query_threshold}"
            )
        self._index = index
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, index.n_shards)
        self._max_workers = int(max_workers)
        self._backend = self._resolve_backend(backend, index)
        self._pool: ProcessPool | None = None
        self._telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        self._events = events
        self._slow_query_threshold = slow_query_threshold
        if fault_injector is not None:
            attach = getattr(index, "attach_fault_injector", None)
            if attach is None:
                raise ConfigurationError(
                    f"{type(index).__name__} has no fault-injection seam; "
                    "use a ReplicatedShardedIndex"
                )
            attach(fault_injector)
        if events is not None:
            attach_events = getattr(index, "attach_event_log", None)
            if attach_events is not None:
                attach_events(events)
        self._scheduler = (
            MaintenanceScheduler(
                index,
                maintenance,
                tracer=self._telemetry.tracer if self._telemetry else None,
                events=events,
            )
            if maintenance is not None
            else None
        )

    def _resolve_backend(
        self, requested: str | None, index: ShardedIndex
    ) -> str:
        """Settle the dispatch backend at construction time.

        Explicit argument > :data:`BACKEND_ENV` (only when more than one
        worker was resolved — the env knob widens parallel setups, it
        never un-sequentializes a deliberate single-worker executor) >
        ``"sequential"``.  Unknown names raise either way; ``processes``
        on a replicated engine raises when asked explicitly and resolves
        to ``sequential`` when the env asked, because the process tier
        serves from driver-published snapshots and would silently bypass
        replica routing and fault injection.
        """
        explicit = requested is not None
        backend = requested
        if backend is None and self._max_workers > 1:
            backend = os.environ.get(BACKEND_ENV) or None
        if backend is None:
            return "sequential"
        if backend not in BACKENDS:
            source = "backend argument" if explicit else BACKEND_ENV
            raise ConfigurationError(
                f"unknown executor backend {backend!r} (from {source}); "
                f"choose from {BACKENDS}"
            )
        if backend == "processes" and isinstance(index, ReplicatedShardedIndex):
            if explicit:
                raise ConfigurationError(
                    "backend='processes' cannot serve a "
                    "ReplicatedShardedIndex: process workers read "
                    "driver-published snapshots and would bypass replica "
                    "routing and fault injection"
                )
            return "sequential"
        return backend

    @property
    def max_workers(self) -> int:
        """Resolved process pool width."""
        return self._max_workers

    @property
    def backend(self) -> str:
        """The resolved dispatch backend (one of :data:`BACKENDS`)."""
        return self._backend

    @property
    def scheduler(self) -> MaintenanceScheduler | None:
        """The maintenance scheduler (``None`` without a policy)."""
        return self._scheduler

    @property
    def telemetry(self) -> Telemetry | None:
        """The telemetry handle (``None`` when disabled or absent)."""
        return self._telemetry

    @property
    def events(self) -> EventLog | None:
        """The event log (``None`` when absent)."""
        return self._events

    def run(self, queries: Sequence[Query | RangeQuery]) -> BatchResult:
        """Execute a batch; returns per-query merged results plus timing.

        Accepts first-class :class:`~repro.queries.query.Query` specs or
        legacy :class:`RangeQuery` windows (normalized to
        intersects/ids).  ``BatchResult.query_results`` carries the full
        per-query payloads; ``results`` keeps the legacy id-array view.

        With a maintenance policy configured, the scheduler is ticked
        once per executed query *after* the batch completes — its
        compaction/rebalancing work happens between batches and is
        charged to the scheduler's report, never to the batch's
        ``seconds``.
        """
        tel = self._telemetry
        before = self._index.stats.snapshot() if tel is not None else None
        out = self._run_batch(queries)
        if self._scheduler is not None:
            self._scheduler.after_ops(len(queries))
        if tel is not None and before is not None:
            self._record_batch(tel, out, before)
        if (
            self._events is not None
            and self._slow_query_threshold is not None
        ):
            self._log_slow_queries(out)
        return out

    def _record_batch(
        self, tel: Telemetry, out: BatchResult, before: IndexStats
    ) -> None:
        """Flow one batch's timings and stats delta into the registry.

        Runs *after* the maintenance tick so work triggered by this
        batch (compaction, rebalancing) lands in the same stats delta —
        window attribution in a TimeSeriesRecorder then lines up with
        the scheduler's spans.
        """
        reg = tel.registry
        reg.histogram(BATCH_SECONDS).record(out.seconds)
        query_hist = reg.histogram(QUERY_SECONDS)
        for result in out.query_results:
            query_hist.record(result.seconds)
        shard_hist = reg.histogram(SHARD_BATCH_SECONDS)
        for seconds in out.shard_seconds:
            if seconds:
                shard_hist.record(seconds)
        reg.histogram(BATCH_ROUTE_SECONDS).record(out.route_seconds)
        reg.histogram(BATCH_FANOUT_SECONDS).record(out.fanout_seconds)
        reg.histogram(BATCH_MERGE_SECONDS).record(out.merge_seconds)
        record_stats_delta(reg, self._index.stats.delta_since(before))

    def _log_slow_queries(self, out: BatchResult) -> None:
        """Emit one ``slow_query`` event per over-threshold query.

        Payloads carry the whole diagnostic picture a latency histogram
        cannot: the offending window, its predicate/mode, and the
        owning batch's fan-out profile — which shards did the work (and
        for how long), how many were pruned, and how the batch's time
        split across route/fan-out/merge.  Bounded by the event log's
        ring, so a pathological batch cannot balloon memory.
        """
        threshold = self._slow_query_threshold
        visited = sum(1 for n in out.shard_queries if n)
        pruned = self._index.n_shards - visited
        for result in out.query_results:
            if result.seconds <= threshold:
                continue
            q = result.query
            self._events.emit(
                "slow_query",
                seq=q.seq,
                predicate=q.predicate,
                mode=q.mode,
                window_lo=q.window.lo,
                window_hi=q.window.hi,
                seconds=result.seconds,
                count=result.count,
                batch_mode=out.mode,
                batch_seconds=out.seconds,
                batch_queries=out.n_queries,
                shards_visited=visited,
                shards_pruned=pruned,
                shard_seconds=out.shard_seconds,
                route_seconds=out.route_seconds,
                fanout_seconds=out.fanout_seconds,
                merge_seconds=out.merge_seconds,
            )

    def _run_batch(
        self, queries: Sequence[Query | RangeQuery]
    ) -> BatchResult:
        """One pass of the engine's dispatch pipeline.

        The inline backend enters through the engine's native
        ``execute_batch``; the process backend hands the same pipeline
        its pool's runner.  Either way the engine routes, merges, and
        records the batch's fan-out profile in ``last_batch``.
        """
        index = self._index
        if not index.is_built:
            index.build()
        if self._backend == "processes":
            pool = self._ensure_pool()
            index.execute_batch_via(queries, pool.run_batch)
            workers = pool.n_workers
        else:
            index.execute_batch(queries)
            workers = 1
        out = index.last_batch
        assert out is not None  # every engine batch records its profile
        out.mode, out.workers = self._backend, workers
        return out

    def _ensure_pool(self) -> ProcessPool:
        """The persistent process pool, created on first process batch.

        Lazy on purpose: the sequential backend never pays the
        multiprocessing import, and the pool forks only after the
        engine is built (workers inherit a warm interpreter under the
        fork start method).
        """
        if self._pool is None:
            from repro.parallel.pool import ProcessPool

            self._pool = ProcessPool(
                self._index,
                n_workers=max(1, self._max_workers),
                telemetry=self._telemetry,
                events=self._events,
            )
        return self._pool

    def close(self) -> None:
        """Tear down backend resources (the process pool, if started).

        Idempotent; the sequential backend holds nothing, so this is a
        no-op for it.  After closing, the next process-mode batch
        transparently starts a fresh pool.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> QueryExecutor:
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.close()
        return False

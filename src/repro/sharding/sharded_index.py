"""The sharded serving engine: K shards, fan-out queries, routed updates.

:class:`ShardedIndex` turns one :class:`~repro.datasets.store.BoxStore`
into a partition-then-search architecture ("The Case for Learned Spatial
Indexes" shows this layout dominating monolithic structures; LiLIS builds
a distributed framework the same way): a
:class:`~repro.sharding.partitioner.Partitioner` splits the rows into
``n_shards`` spatial tiles, an index factory builds one
:class:`SpatialIndex` per shard (QUASII by default, so every shard keeps
*cracking adaptively* on its own slice forest), and the engine exposes
the full :class:`MutableSpatialIndex` contract over the fleet:

* **Queries** fan out only to shards whose MBB intersects the window
  (``shards_visited`` / ``shards_pruned`` count the pruning), and the
  per-shard id sets are merged and deduplicated.
* **Inserts** are routed to an owning shard by the partitioner's
  :meth:`~repro.sharding.partitioner.Partitioner.route` policy; the
  shard's MBB expands to cover the new rows immediately (they may sit in
  the shard index's update buffer, and pruning must never skip them).
* **Deletes** are routed by the id→shard ownership map the engine
  maintains, so only owning shards do any work.
* **Compaction** reclaims the dead space deletes leave behind:
  :meth:`ShardedIndex.maybe_compact` compacts every shard whose
  tombstoned fraction crosses a policy threshold (re-tightening its
  pruning MBB), while the inherited
  :meth:`~repro.index.base.MutableSpatialIndex.compact` compacts the
  mirror and the whole fleet unconditionally.

The store handed to the constructor remains the engine's *ingest
mirror*: shards own private copies of their rows (incremental shard
indexes physically permute them), while every insert is also appended to
— and every delete tombstoned in — the outer store.  The outer store
therefore keeps satisfying the documented multiset-of-live-rows
invariant (ledger checks work unchanged), and the shared id-allocation /
validation gate stays exact across shards.

Every query batch runs one dispatch pipeline: the engine routes each
query once, hands the per-shard sub-batches to a runner — its own
inline loop, or a :class:`~repro.parallel.pool.ProcessPool` through
:meth:`ShardedIndex.execute_batch_via` — then merges once.  Each batch
leaves its fan-out profile in :attr:`ShardedIndex.last_batch`, which
:class:`~repro.sharding.executor.QueryExecutor` serves to its callers.

The engine also observes its own traffic: every planned query's centroid
is recorded in a :class:`~repro.sharding.rebalancer.WorkloadProfile`, and
per-shard load is read as deltas of the shard-index counters.  When the
balance factor or query-load skew drifts, a
:class:`~repro.sharding.rebalancer.Rebalancer` splits the hot shard
along the observed query distribution and merges the coldest one away —
see :mod:`repro.sharding.rebalancer` for the mechanics and
:mod:`repro.sharding.maintenance` for the scheduling policy that runs
both rebalancing and compaction on the query path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError, DatasetError
from repro.geometry.predicates import boxes_intersect_window
from repro.index.base import MutableSpatialIndex, SpatialIndex
from repro.queries.query import Query, QueryPlan, QueryResult
from repro.queries.range_query import RangeQuery
from repro.sharding.partitioner import Partitioner, make_partitioner
from repro.sharding.rebalancer import WorkloadProfile
from repro.sharding.shard import Shard

#: Builds the per-shard index over a shard's private store.
IndexFactory = Callable[[BoxStore], SpatialIndex]

#: Per-shard sub-batch replies: ``{sid: (query idxs, results, seconds)}``,
#: where ``seconds`` is the shard's own sub-batch wall-clock.
ShardReplies = dict[int, tuple[list[int], list[QueryResult], float]]

#: Runs routed per-shard sub-batches: ``(queries, {sid: query idxs})``
#: to :data:`ShardReplies`.
SubBatchRunner = Callable[[list[Query], dict[int, list[int]]], ShardReplies]


@dataclass
class BatchResult:
    """Outcome of one executed query batch.

    Attributes
    ----------
    results:
        One id array per query, in batch order (merged + deduplicated;
        empty for count-only queries — their payload lives in
        ``query_results``).
    query_results:
        One full :class:`~repro.queries.query.QueryResult` per query,
        in batch order — counts, boxes, and top-k payloads for
        non-``ids`` modes.
    seconds:
        Wall-clock for the whole batch (route + fan-out + merge).
    mode:
        ``"sequential"`` (sub-batches run inline) or ``"processes"``
        (sub-batches run on a process pool).
    workers:
        Process count used (1 when sub-batches run inline).
    shard_queries:
        Per-shard number of (query, shard) executions — the fan-out
        profile; its sum can exceed ``len(results)`` when queries span
        shards and be below it when pruning wins.
    shard_seconds:
        Per-shard sub-batch wall-clock, indexed by shard id (0.0 for
        shards the batch never visited).  Every backend times each
        shard's sub-batch on its own (a process worker times it
        in-process), so ``max(shard_seconds)`` bounds the fan-out phase,
        ``sum(shard_seconds)`` is the total work, and their ratio to the
        mean exposes shard skew.
    route_seconds / fanout_seconds / merge_seconds:
        The batch's phases, which tile ``seconds``: routing queries onto
        shards, running the sub-batches, and assembling the per-query
        results.
    """

    results: list[np.ndarray] = field(default_factory=list)
    query_results: list[QueryResult] = field(default_factory=list)
    seconds: float = 0.0
    mode: str = "sequential"
    workers: int = 1
    shard_queries: list[int] = field(default_factory=list)
    shard_seconds: list[float] = field(default_factory=list)
    route_seconds: float = 0.0
    fanout_seconds: float = 0.0
    merge_seconds: float = 0.0

    @property
    def n_queries(self) -> int:
        """Number of executed queries."""
        return len(self.results)

    def throughput(self) -> float:
        """Queries per second over the batch."""
        return self.n_queries / self.seconds if self.seconds > 0 else float("inf")


def _default_factory(store: BoxStore) -> SpatialIndex:
    from repro.core.quasii import QuasiiIndex

    return QuasiiIndex(store)


class ShardedIndex(MutableSpatialIndex):
    """K per-shard indexes behind one :class:`MutableSpatialIndex` facade.

    Parameters
    ----------
    store:
        The data array; partitioned at :meth:`build` time.  Kept as the
        ingest mirror afterwards (see the module docstring) — shards
        work on private copies of their rows.
    n_shards:
        Number of shards ``K >= 1``.
    partitioner:
        Strategy name (``"str"`` or ``"round-robin"``) or a
        :class:`Partitioner` instance.
    index_factory:
        Callable building one index per shard store; defaults to
        :class:`~repro.core.quasii.QuasiiIndex`.

    Examples
    --------
    >>> from repro.datasets import make_uniform
    >>> from repro.queries import uniform_workload
    >>> ds = make_uniform(10_000, seed=7)
    >>> engine = ShardedIndex(ds.store, n_shards=4)
    >>> engine.build()                      # STR split + per-shard indexes
    >>> for q in uniform_workload(ds.universe, 5, seed=7):
    ...     ids = engine.query(q)           # fans out, prunes, merges
    """

    name = "Sharded"

    def __init__(
        self,
        store: BoxStore,
        n_shards: int = 4,
        partitioner: str | Partitioner = "str",
        index_factory: IndexFactory | None = None,
    ) -> None:
        super().__init__(store)
        if n_shards < 1:
            raise ConfigurationError(f"need n_shards >= 1, got {n_shards}")
        self._n_shards = int(n_shards)
        self._partitioner = make_partitioner(partitioner)
        self._factory: IndexFactory = index_factory or _default_factory
        self._shards: list[Shard] = []
        #: id -> owning shard sid, maintained for every *live* object.
        self._owner: dict[int, int] = {}
        # Stacked (k, d) shard MBBs so planning prunes the whole fleet
        # with one vectorized intersection test; rebuilt lazily after
        # shard MBBs expand.
        self._stack_lo: np.ndarray | None = None
        self._stack_hi: np.ndarray | None = None
        # Fleet work totals already rolled into self.stats (so roll-ups
        # survive an outer stats.reset() without double counting).
        self._work_seen = dict.fromkeys(self._WORK_COUNTERS, 0)
        #: The observed query distribution: recent planned-query
        #: centroids plus per-shard load baselines.  Feeds the
        #: :class:`~repro.sharding.rebalancer.Rebalancer`'s drift
        #: detection and its query-driven split cut.
        self.profile = WorkloadProfile()
        #: Fan-out profile of the most recent query batch (``None``
        #: before the first); see :class:`BatchResult`.
        self.last_batch: BatchResult | None = None
        self.name = f"Sharded[{self._partitioner.name}x{self._n_shards}]"

    #: Shard-level work counters mirrored into the engine's stats; the
    #: flow counters (queries, inserts, results, compactions...) are
    #: engine-maintained and must NOT be rolled up, or they would double
    #: count — one engine compact() is one compaction event, not K+1.
    _WORK_COUNTERS = (
        "objects_tested",
        "nodes_visited",
        "cracks",
        "rows_reorganized",
        "merges",
    )

    def sync_shard_work(self) -> None:
        """Fold the fleet's work counters into this engine's stats.

        Called after every query (and by the executor after every batch)
        so harnesses that read ``engine.stats`` see the whole fleet's
        objects tested, cracks, rows moved, and merges.
        """
        for name in self._WORK_COUNTERS:
            total = sum(s.work_counter(name) for s in self._shards)
            delta = total - self._work_seen[name]
            if delta:
                setattr(self.stats, name, getattr(self.stats, name) + delta)
                self._work_seen[name] = total

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of shards (fixed at construction)."""
        return self._n_shards

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The shard fleet (read-only view; built after :meth:`build`)."""
        return tuple(self._shards)

    @property
    def partitioner(self) -> Partitioner:
        """The partitioning strategy in use."""
        return self._partitioner

    def owner_of(self, obj_id: int) -> int:
        """Owning shard sid of a live object id (raises if not live)."""
        try:
            return self._owner[int(obj_id)]
        except KeyError:
            raise DatasetError(f"id {obj_id} is not live in any shard") from None

    def shard_sizes(self) -> list[int]:
        """Owned live rows per shard, buffered inserts included (the
        balance profile; also the load vector for insert routing)."""
        return [s.owned_count for s in self._shards]

    def balance_factor(self) -> float:
        """Max/mean owned live rows across shards (1.0 = perfect balance).

        The drift signal skewed *ingestion* moves: inserts concentrating
        on few shards push it up, and the
        :class:`~repro.sharding.rebalancer.Rebalancer` pulls it back
        down by splitting the largest shard.  Counts buffered inserts
        (see :attr:`Shard.owned_count`) so a burst is visible before any
        query drains it.
        """
        sizes = self.shard_sizes()
        mean = sum(sizes) / len(sizes) if sizes else 0.0
        return max(sizes) / mean if mean > 0 else 1.0

    def memory_bytes(self) -> int:
        """Shard store copies plus per-shard index structures."""
        # ~60 bytes per ownership-map entry is the CPython dict ballpark.
        return sum(s.memory_bytes() for s in self._shards) + 60 * len(self._owner)

    # ------------------------------------------------------------------
    # Build: partition + per-shard index construction
    # ------------------------------------------------------------------
    def _make_shard_index(
        self, shard_store: BoxStore
    ) -> tuple[BoxStore, SpatialIndex]:
        """Run the factory over a shard store, enforcing its contract."""
        index = self._factory(shard_store)
        if index.store is not shard_store:
            raise ConfigurationError(
                "index_factory must build the index over the shard store "
                "it was given"
            )
        return shard_store, index

    def _new_shard(
        self,
        sid: int,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray,
        via_insert: bool,
    ) -> Shard:
        """Shard ``sid`` over a private copy of the rows, index built.

        The one shard-construction hook: :meth:`build` and
        :meth:`rebuild_shard` both call it, and a replicated engine
        overrides it to wrap several such shards into one replica set.

        With ``via_insert`` a mutable factory gets the start-empty,
        insert, flush path: a large batch then lands as an STR
        bulk-loaded, already-refined run (``bulk_flush_threshold``)
        instead of one coarse slice, so queries after a rebuild do not
        re-crack the shard from scratch on the serving path.  Immutable
        factories (and plain builds) get one ``build()`` over the
        populated store.
        """
        if via_insert:
            empty = np.empty((0, self._store.ndim), dtype=np.float64)
            shard = Shard(
                sid, *self._make_shard_index(BoxStore(empty, empty.copy()))
            )
            if shard.writable:
                shard.index.build()
                if ids.size:
                    shard.insert(lo.copy(), hi.copy(), ids.copy())
                    shard.flush()
                return shard
        shard_store, index = self._make_shard_index(
            BoxStore(lo.copy(), hi.copy(), ids.copy())
        )
        index.build()
        return Shard(sid, shard_store, index)

    def build(self) -> None:
        """Partition the store's live rows and build one index per shard."""
        if self._built:
            return
        store = self._store
        rows = store.live_rows()
        owners = self._partitioner.assign(store.lo[rows], store.hi[rows], self._n_shards)
        for sid in range(self._n_shards):
            mine = rows[owners == sid]
            self._shards.append(
                self._new_shard(
                    sid,
                    store.lo[mine],
                    store.hi[mine],
                    store.ids[mine],
                    via_insert=False,
                )
            )
        copied = sum(s.store.n for s in self._shards)
        if copied != rows.size:
            raise ConfigurationError(
                f"partitioner {self._partitioner.name!r} assigned {copied} "
                f"of {rows.size} rows to shards 0..{self._n_shards - 1}"
            )
        ids = store.ids[rows]
        self._owner = dict(zip(ids.tolist(), owners.tolist()))
        self._seen_epoch = store.epoch
        self._built = True
        self.profile.rebaseline(self._shards)

    # ------------------------------------------------------------------
    # Queries: prune, fan out, merge
    # ------------------------------------------------------------------
    def _mbb_stacks(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked shard MBBs, rebuilt if inserts expanded any shard."""
        if self._stack_lo is None:
            self._stack_lo = np.stack([s.mbb_lo for s in self._shards])
            self._stack_hi = np.stack([s.mbb_hi for s in self._shards])
        return self._stack_lo, self._stack_hi

    def plan_shards(self, query: Query | RangeQuery) -> list[Shard]:
        """Shards whose MBB intersects the window, updating prune counters.

        The *routing* half of planning (the cost-estimating half is the
        inherited :meth:`~repro.index.base.SpatialIndex.plan`).  One
        vectorized intersection test over the stacked shard MBBs, run
        on the driver before any sub-batch starts.  Each planned
        window's centroid is also recorded in :attr:`profile` — routing
        is the one spot every query goes through exactly once, on every
        backend, so the observed-traffic record stays exact.
        """
        self.profile.record(query)
        stack_lo, stack_hi = self._mbb_stacks()
        hits = np.flatnonzero(
            boxes_intersect_window(stack_lo, stack_hi, query.lo, query.hi)
        )
        self.stats.shards_visited += int(hits.size)
        self.stats.shards_pruned += self._n_shards - int(hits.size)
        return [self._shards[i] for i in hits]

    def _candidates(self, query: Query) -> np.ndarray:
        raise ConfigurationError(
            "ShardedIndex fans queries out to shards; it has no flat "
            "candidate set"
        )  # pragma: no cover - _execute is overridden, this is unreachable

    def _execute(
        self, query: Query
    ) -> tuple[int, np.ndarray | None, tuple[np.ndarray, np.ndarray] | None]:
        if not self._built:
            raise ConfigurationError(
                "ShardedIndex queried before build(); call build() first"
            )
        parts = [
            shard.serving_index().execute(query)
            for shard in self.plan_shards(query)
        ]
        payload = self._merge_payload(query, parts)
        self.sync_shard_work()
        return payload

    def _execute_batch(self, queries: list[Query]) -> list[QueryResult]:
        return self._dispatch(queries, self._run_inline)

    def execute_batch_via(
        self,
        queries: Sequence[Query | RangeQuery],
        run_shards: SubBatchRunner,
    ) -> list[QueryResult]:
        """:meth:`execute_batch` with the sub-batches run by ``run_shards``.

        The process backend's seam: routing, the gate, merging, and
        counters stay on this driver, and only the per-shard sub-batch
        execution is handed to ``run_shards`` (e.g.
        :meth:`~repro.parallel.pool.ProcessPool.run_batch`).
        """
        return self._dispatch(self._admit_batch(queries), run_shards)

    def _run_inline(
        self, queries: list[Query], queues: dict[int, list[int]]
    ) -> ShardReplies:
        """Run each shard's sub-batch in turn on this thread.

        One call per shard through its index's *native*
        ``execute_batch``, so vectorized shard indexes batch their
        candidate matrices and QUASII shards amortize their merges.
        ``serving_index()`` is the replication seam: a replicated shard
        picks its least-loaded live replica once per sub-batch.
        """
        served: ShardReplies = {}
        for sid, idxs in queues.items():
            w0 = time.perf_counter()
            sub = self._shards[sid].serving_index().execute_batch(
                [queries[i] for i in idxs]
            )
            served[sid] = (idxs, sub, time.perf_counter() - w0)
        return served

    def _dispatch(
        self, queries: list[Query], run_shards: SubBatchRunner
    ) -> list[QueryResult]:
        """Route every query once, run the sub-batches, merge once.

        The one batch pipeline behind every backend: prune counters and
        the traffic profile are updated here on the driver, each shard
        receives its queue in batch order, and the phase split plus the
        per-shard profile land in :attr:`last_batch`.
        """
        if not self._built:
            raise ConfigurationError(
                "ShardedIndex queried before build(); call build() first"
            )
        t0 = time.perf_counter()
        queues: dict[int, list[int]] = {}
        for i, q in enumerate(queries):
            for shard in self.plan_shards(q):
                queues.setdefault(shard.sid, []).append(i)
        t_routed = time.perf_counter()
        served = run_shards(queries, queues)
        t_joined = time.perf_counter()
        partials: dict[int, list[QueryResult]] = {}
        shard_queries = [0] * self._n_shards
        shard_seconds = [0.0] * self._n_shards
        for sid, (idxs, sub, seconds) in served.items():
            shard_queries[sid] = len(idxs)
            shard_seconds[sid] = seconds
            for i, res in zip(idxs, sub):
                partials.setdefault(i, []).append(res)
        query_results = self._assemble_batch(queries, partials, t0)
        t_done = time.perf_counter()
        self.last_batch = BatchResult(
            results=[
                r.ids if r.ids is not None else np.empty(0, dtype=np.int64)
                for r in query_results
            ],
            query_results=query_results,
            seconds=t_done - t0,
            shard_queries=shard_queries,
            shard_seconds=shard_seconds,
            route_seconds=t_routed - t0,
            fanout_seconds=t_joined - t_routed,
            merge_seconds=t_done - t_joined,
        )
        return query_results

    def _assemble_batch(
        self,
        queries: list[Query],
        partials: dict[int, list[QueryResult]],
        t0: float,
    ) -> list[QueryResult]:
        """Merge per-shard results into engine-level batch results.

        The merge work itself is part of the batch, so wall-clock is
        captured *after* merging and the equal-share per-query seconds
        are stamped in a second pass.
        Per-query index-stat deltas cannot be attributed to a single
        query across a fleet batch, so ``stats`` stays ``None`` here;
        fleet work lands in the engine's cumulative stats through
        :meth:`sync_shard_work`.
        """
        payloads = [
            self._merge_payload(q, partials.get(i, []))
            for i, q in enumerate(queries)
        ]
        share = (time.perf_counter() - t0) / max(len(queries), 1)
        out: list[QueryResult] = []
        for q, (count, ids, boxes) in zip(queries, payloads):
            returned = int(ids.size) if ids is not None else count
            self.stats.queries += 1
            self.stats.results_returned += returned
            out.append(
                QueryResult(
                    query=q,
                    count=count,
                    ids=ids,
                    boxes=boxes,
                    stats=None,
                    seconds=share,
                )
            )
        self.sync_shard_work()
        return out

    def _plan(self, query: Query) -> QueryPlan:
        """Aggregate the sub-plans of every shard the query would touch.

        Pure estimation: no prune counters, no profile recording — the
        side-effecting routing lives in :meth:`plan_shards`.
        """
        if not self._built:
            raise ConfigurationError(
                "ShardedIndex planned before build(); call build() first"
            )
        stack_lo, stack_hi = self._mbb_stacks()
        hits = np.flatnonzero(
            boxes_intersect_window(stack_lo, stack_hi, query.lo, query.hi)
        )
        nodes = 0
        candidates = 0
        exact = True
        for i in hits:
            sub = self._shards[i].index.plan(query)
            nodes += sub.nodes
            candidates += sub.candidates
            exact = exact and sub.exact
        return QueryPlan(
            index=self.name,
            query=query,
            nodes=nodes,
            candidates=candidates,
            shards=int(hits.size),
            exact=exact,
        )

    @staticmethod
    def _merge(parts: Sequence[np.ndarray]) -> np.ndarray:
        """Merge + deduplicate per-shard id sets (ownership is exclusive,
        so duplicates indicate a routing bug — unique keeps the contract
        airtight whenever shard sets actually combine; a single
        contributing shard cannot self-duplicate, so its set passes
        through without paying the sort)."""
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        return np.unique(np.concatenate(parts))

    def _merge_payload(
        self, query: Query, parts: Sequence[QueryResult]
    ) -> tuple[int, np.ndarray | None, tuple[np.ndarray, np.ndarray] | None]:
        """Combine per-shard :class:`QueryResult`\\ s into one payload.

        Ownership is exclusive, so shard result sets are disjoint:
        counts add, id sets merge through the dedup-checking
        :meth:`_merge`, boxes concatenate, and top-k re-ranks the
        per-shard top-k unions (each shard already kept its ``k``
        largest, so the global top-k is within the union).
        """
        count = int(sum(r.count for r in parts))
        if query.count_only:
            return count, None, None
        if query.mode == "ids":
            return count, self._merge([r.ids for r in parts]), None
        with_rows = [r for r in parts if r.ids is not None and r.ids.size]
        if not with_rows:
            empty = np.empty((0, self._store.ndim), dtype=np.float64)
            return count, np.empty(0, dtype=np.int64), (empty, empty.copy())
        ids = np.concatenate([r.ids for r in with_rows])
        lo = np.concatenate([r.boxes[0] for r in with_rows])
        hi = np.concatenate([r.boxes[1] for r in with_rows])
        if query.mode == "top_k":
            volumes = np.prod(hi - lo, axis=1)
            order = np.lexsort((ids, -volumes))[: query.k]
            return count, ids[order], (lo[order], hi[order])
        return count, ids, (lo, hi)

    # ------------------------------------------------------------------
    # Updates: shard-aware routing
    # ------------------------------------------------------------------
    def _insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> np.ndarray:
        if not self._built:
            # Pre-build rows just join the ingest store; build() sweeps
            # them into the initial partitioning.
            return self._store.append_validated(lo, hi, ids)
        # Reject a read-only fleet *before* touching the ingest mirror —
        # failing after the append would leave the mirror ahead of the
        # engine's epoch and brick every later query.
        self._require_mutable_shards()
        # Explicit-id collisions are fully covered by the mirror's shared
        # gate (validate_batch in the base class): every id ever owned by
        # a shard was first appended to the mirror, so the mirror's id
        # set is a superset of the ownership map's keys.
        assigned = self._store.append_validated(lo, hi, ids)
        if not assigned.size:
            return assigned
        stack_lo, stack_hi = self._mbb_stacks()
        targets = self._partitioner.route(
            lo,
            hi,
            stack_lo,
            stack_hi,
            np.asarray(self.shard_sizes(), dtype=np.int64),
        )
        for sid in np.unique(targets):
            mine = targets == sid
            self._shards[int(sid)].insert(lo[mine], hi[mine], assigned[mine])
        self._stack_lo = self._stack_hi = None
        for obj_id, sid in zip(assigned.tolist(), targets.tolist()):
            self._owner[obj_id] = int(sid)
        self.sync_shard_work()
        return assigned

    def _require_mutable_shards(self) -> None:
        """Raise before any mutation if the fleet cannot absorb updates."""
        for shard in self._shards:
            if not shard.writable:
                raise ConfigurationError(
                    f"shard index {shard.index.name!r} does not support "
                    "updates; use a MutableSpatialIndex factory"
                )

    def _delete(self, ids: np.ndarray) -> int:
        if not self._built:
            return self._store.delete_ids(ids)
        self._require_mutable_shards()
        id_list = np.unique(ids).tolist()
        missing = [i for i in id_list if i not in self._owner]
        if missing:
            raise DatasetError(
                f"cannot delete ids not live in any shard: {missing[:5]}"
            )
        # Tombstone the ingest mirror first (all-or-nothing with the
        # ownership check above), then fan the batch out by owner.
        removed = self._store.delete_ids(np.asarray(id_list, dtype=np.int64))
        by_shard: dict[int, list[int]] = {}
        for obj_id in id_list:
            by_shard.setdefault(self._owner.pop(obj_id), []).append(obj_id)
        for sid, victims in by_shard.items():
            self._shards[sid].delete(np.asarray(victims, dtype=np.int64))
        self.sync_shard_work()
        return removed

    # ------------------------------------------------------------------
    # Compaction: reclaim dead space shard by shard
    # ------------------------------------------------------------------
    def compact(self) -> int:
        """Reclaim tombstones across the ingest mirror and the whole fleet.

        Overrides the inherited verb, whose no-op gate inspects only the
        engine's own store: a prior partial :meth:`maybe_compact` can
        compact the mirror while leaving a below-threshold shard
        tombstoned, and that shard must still be swept here.  Returns
        the *logical* rows reclaimed — tombstones dropped from the
        mirror — matching :meth:`maybe_compact`'s accounting: shard-side
        copies of the same rows are not double-counted, and a row whose
        mirror tombstone an earlier policy pass already dropped adds
        nothing again, so totals across calls count each deleted row
        exactly once.
        """
        self._check_epoch()
        reclaimed = self._store.n_dead
        if reclaimed == 0 and all(s.store.n_dead == 0 for s in self._shards):
            return 0
        self.on_compaction(self._store.compact())
        self.stats.compactions += 1
        return reclaimed

    def _on_compaction(self, remap: np.ndarray) -> None:
        """Absorb a full compaction: the mirror is done, now the fleet.

        The engine itself holds no physical positions into the ingest
        mirror (ownership is id-keyed), so the mirror's remap needs no
        translation here; each shard compacts its *private* store
        (:meth:`Shard.compact`), and the stacked pruning MBBs are
        rebuilt from the re-tightened shards.
        """
        for shard in self._shards:
            shard.compact()
        self._stack_lo = self._stack_hi = None
        self.sync_shard_work()

    def maybe_compact(self, dead_fraction: float = 0.3) -> int:
        """Policy-driven compaction; returns the logical rows reclaimed.

        The serving-loop maintenance verb: every shard whose tombstoned
        fraction exceeds ``dead_fraction`` is compacted (shrinking its
        pruning MBB and restoring its load counters to live-row
        reality), and the ingest mirror compacts under the same policy.
        Shards below the threshold are untouched, so steady-state calls
        are cheap — sprinkle this between batches instead of scheduling
        stop-the-world rebuilds.

        The return value counts tombstones dropped from the *mirror*
        (each deleted row once, shard-side copies excluded), the same
        accounting as :meth:`compact`; a pass that only compacted shards
        therefore returns 0, and those rows are counted by whichever
        later call drops their mirror tombstones.
        """
        if not 0.0 <= dead_fraction < 1.0:
            raise ConfigurationError(
                f"dead_fraction must be in [0, 1), got {dead_fraction}"
            )
        self._check_epoch()
        compacted = 0
        for shard in self._shards:
            if shard.store.n and shard.dead_fraction > dead_fraction:
                compacted += shard.compact()
        reclaimed = 0
        mirror = self._store
        if mirror.n and mirror.n_dead / mirror.n > dead_fraction:
            reclaimed = mirror.n_dead
            mirror.compact()
            self._seen_epoch = mirror.epoch
        if compacted or reclaimed:
            self._stack_lo = self._stack_hi = None
            self.stats.compactions += 1
            self.sync_shard_work()
        return reclaimed

    def pending_updates(self) -> int:
        """Rows staged in shard-level update buffers, fleet-wide."""
        return sum(s.pending() for s in self._shards)

    def flush_updates(self) -> int:
        """Force every shard's pending buffer into its structure now.

        The fleet-wide form of
        :meth:`~repro.index.base.MutableSpatialIndex.flush_updates`:
        after it returns, every owned row is physically present in its
        shard's store — the precondition for migrating rows between
        shards.  Returns the total rows merged across the fleet.
        """
        if not self._built:
            return 0
        flushed = sum(s.flush() for s in self._shards)
        if flushed:
            self.sync_shard_work()
        return flushed

    # ------------------------------------------------------------------
    # Rebalancing: shard-to-shard row migration
    # ------------------------------------------------------------------
    # The verbs below only move rows *between shards*: the ingest mirror
    # is never touched, so the store epoch, the live (id, box) multiset,
    # and therefore the ledger/fingerprint invariants are preserved by
    # construction.  rebuild_shard + finish_rebalance are the engine
    # half of a :class:`~repro.sharding.rebalancer.Rebalancer` pass;
    # rebuild_shard builds the replacement through the same _new_shard
    # hook as build(), so replicated engines re-replicate for free.

    def rebuild_shard(
        self, sid: int, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray
    ) -> None:
        """Replace shard ``sid`` with a fresh store+index over the rows.

        Built by :meth:`_new_shard` through the insert/flush path, so a
        large batch lands bulk-loaded.  The shard's pruning MBB is
        re-derived from the new rows (not inherited — a stale MBB would
        mis-route the very next least-enlargement insert), ownership is
        rewritten for every row, the stacked routing MBBs are
        invalidated, and the fleet work totals are recalibrated so
        :meth:`sync_shard_work` never sees a negative delta from the
        discarded index's counters.
        """
        # Fold the outgoing index's unsynced work before discarding it.
        self.sync_shard_work()
        self._shards[sid] = self._new_shard(sid, lo, hi, ids, via_insert=True)
        for obj_id in ids.tolist():
            self._owner[int(obj_id)] = sid
        self._rebaseline_work()
        self._stack_lo = self._stack_hi = None

    def _rebaseline_work(self) -> None:
        """Re-read the fleet work totals after a shard index was replaced.

        The replacement starts with zeroed counters; without this,
        :meth:`sync_shard_work` would see a negative delta.  Callers fold
        the outgoing index's unsynced work first.
        """
        for name in self._WORK_COUNTERS:
            self._work_seen[name] = sum(
                s.work_counter(name) for s in self._shards
            )

    def finish_rebalance(self, rows_migrated: int) -> None:
        """Seal a rebalancing pass: counters, profile baseline, MBBs."""
        self.stats.rebalances += 1
        self.stats.rows_migrated += int(rows_migrated)
        self.profile.rebaseline(self._shards)
        self._stack_lo = self._stack_hi = None
        self.sync_shard_work()

    def validate_routing(self) -> None:
        """Assert the ownership map matches shard stores exactly (tests)."""
        seen: dict[int, int] = {}
        for shard in self._shards:
            store = shard.store
            live = store.ids[store.live_rows()]
            for obj_id in live.tolist():
                assert obj_id not in seen, f"id {obj_id} owned by two shards"
                seen[obj_id] = shard.sid
                assert self._owner.get(obj_id) == shard.sid, (
                    f"id {obj_id} mapped to shard {self._owner.get(obj_id)} "
                    f"but stored in shard {shard.sid}"
                )
        # Buffered (not yet merged) rows are owned but not yet in stores.
        unmapped = set(self._owner) - set(seen)
        assert len(unmapped) == self.pending_updates(), (
            f"{len(unmapped)} owned-but-unstored ids vs "
            f"{self.pending_updates()} pending buffer rows"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardedIndex(n_shards={self._n_shards}, "
            f"partitioner={self._partitioner.name!r}, built={self._built})"
        )

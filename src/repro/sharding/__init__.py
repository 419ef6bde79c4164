"""The sharded serving engine: spatial partitioning + parallel fan-out.

This package scales the single-process QUASII reproduction toward the
ROADMAP's production-serving north star by adopting the
partition-then-search architecture of the learned-spatial-index and
LiLIS lines of work, while keeping per-shard incremental cracking
intact:

* :class:`Partitioner` / :class:`STRPartitioner` /
  :class:`RoundRobinPartitioner` — build-time row splits and insert-time
  routing policies (:data:`PARTITIONERS` is the registry).
* :class:`Shard` — one shard: a private :class:`BoxStore` copy, its own
  index, and the MBB used for query pruning.  A shard applies its own
  writes and maintenance (``insert``/``delete``/``pending``/``flush``/
  ``compact``), so the engine has one write path for every shard kind.
* :class:`ShardedIndex` — the engine: the full
  :class:`~repro.index.base.MutableSpatialIndex` contract over K shards
  with pruned fan-out queries, merged + deduplicated results, and
  ownership-routed inserts/deletes handed to the owning shard.
* :class:`QueryExecutor` / :class:`BatchResult` — batch execution
  through the engine's one dispatch pipeline, with per-shard
  sub-batches run inline or on a process pool.
* :class:`WorkloadProfile` / :class:`ShardLoad` — the observed query
  distribution: recent query centroids plus per-shard load deltas.
* :class:`Rebalancer` / :class:`RebalanceResult` — query-driven shard
  rebalancing: split hot shards along the observed query centroids,
  merge cold ones away, migrate rows while preserving the ledger /
  fingerprint invariants and the ownership map.
* :class:`MaintenancePolicy` / :class:`MaintenanceScheduler` /
  :class:`MaintenanceReport` — automatic maintenance on the query path:
  dead-fraction-gated compaction plus drift-gated rebalancing, ticked
  by the executors instead of ad-hoc call sites.
* :class:`ReplicatedShardedIndex` / :class:`ReplicaSet` /
  :class:`ShardReplica` / :class:`ReplicatedShard` — the replication
  tier: R replicas per shard with least-loaded read routing, automatic
  failover, write application through the per-shard
  :class:`~repro.updates.ledger.UpdateLedger` (the replication stream),
  and ledger-replay recovery with fingerprint verification.  It is a
  different *shard* (overriding the shard write verbs), not a second
  engine: the replicated engine reuses the base engine's routing,
  compaction, and rebuild code.
* :class:`FaultInjector` / :class:`Fault` — deterministic, seed-driven
  kill/stall/slow faults, ticked on the engine's routing path so
  failures are first-class test inputs.

The ``shard-scaling`` bench experiment (``quasii-bench shard-scaling``)
measures batch throughput, pruning, and balance across shard and worker
counts; the ``rebalance`` experiment (``quasii-bench rebalance``) drives
a drifting hotspot with skewed ingestion and compares the maintained
engine against the static STR baseline.  Every verb is documented in
``docs/BENCH.md``.
"""

from repro.sharding.executor import QueryExecutor
from repro.sharding.maintenance import (
    MaintenancePolicy,
    MaintenanceReport,
    MaintenanceScheduler,
)
from repro.sharding.partitioner import (
    PARTITIONERS,
    Partitioner,
    RoundRobinPartitioner,
    STRPartitioner,
    make_partitioner,
)
from repro.sharding.rebalancer import (
    RebalanceResult,
    Rebalancer,
    ShardLoad,
    WorkloadProfile,
)
from repro.sharding.replication import (
    Fault,
    FaultInjector,
    ReplicaSet,
    ReplicatedShard,
    ReplicatedShardedIndex,
    ShardReplica,
)
from repro.sharding.shard import Shard
from repro.sharding.sharded_index import (
    BatchResult,
    IndexFactory,
    ShardedIndex,
)

__all__ = [
    "BatchResult",
    "Fault",
    "FaultInjector",
    "IndexFactory",
    "MaintenancePolicy",
    "MaintenanceReport",
    "MaintenanceScheduler",
    "PARTITIONERS",
    "Partitioner",
    "QueryExecutor",
    "RebalanceResult",
    "Rebalancer",
    "ReplicaSet",
    "ReplicatedShard",
    "ReplicatedShardedIndex",
    "RoundRobinPartitioner",
    "STRPartitioner",
    "Shard",
    "ShardLoad",
    "ShardReplica",
    "ShardedIndex",
    "WorkloadProfile",
    "make_partitioner",
]

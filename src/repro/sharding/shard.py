"""One shard of the serving engine: a private store plus its own index.

A :class:`Shard` owns a *copy* of its slice of the data — incremental
indexes (QUASII) physically permute their store, so shards cannot share
row ranges of one array — and whatever :class:`SpatialIndex` the factory
built over it.  The shard tracks its minimum bounding box for query
pruning; the MBB is exact at build time, *expands* when routed inserts
arrive (covering rows an index may still hold in its update buffer), and
deliberately never shrinks on delete (a loose MBB is conservative: it
can only cost a wasted visit, never a missed result).  Compaction is the
moment the looseness is paid off: :meth:`Shard.compact` re-tightens the
pruning box to the surviving live rows once the dead ones are gone.

A shard also owns its writes: the engine routes a batch and hands it to
:meth:`Shard.insert` / :meth:`Shard.delete`, and maintenance drives
:meth:`Shard.pending` / :meth:`Shard.flush` / :meth:`Shard.compact`.
Whether the shard's index can take writes at all is answered here and
nowhere else, so a replicated shard
(:class:`~repro.sharding.replication.ReplicatedShard`) changes *how* a
write is applied by overriding these verbs, while the engine keeps one
write and maintenance path for every kind of shard.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.store import BoxStore
from repro.index.base import MutableSpatialIndex, SpatialIndex

_INF = float("inf")


def flush_index(index: SpatialIndex) -> int:
    """Merge ``index``'s update buffer now; returns the rows merged."""
    if isinstance(index, MutableSpatialIndex):
        return index.flush_updates()
    return 0


def compact_index(store: BoxStore, index: SpatialIndex) -> int:
    """Drop ``store``'s tombstones under ``index``; returns the rows dropped."""
    if isinstance(index, MutableSpatialIndex):
        return index.compact()
    # Immutable shard indexes cannot have routed deletes, but a
    # factory-supplied store may carry tombstones from day one.
    reclaimed = store.n_dead
    if reclaimed:
        index.on_compaction(store.compact())
    return reclaimed


class Shard:
    """A shard id, its private :class:`BoxStore`, its index, and its MBB."""

    __slots__ = ("sid", "store", "index", "mbb_lo", "mbb_hi")

    def __init__(self, sid: int, store: BoxStore, index: SpatialIndex) -> None:
        self.sid = sid
        self.store = store
        self.index = index
        self.refresh_mbb()

    @property
    def live_count(self) -> int:
        """Live rows physically present in this shard's store."""
        return self.store.live_count

    @property
    def owned_count(self) -> int:
        """Live rows owned by this shard, buffered inserts included.

        Routed inserts may sit in the shard index's update buffer before
        physically reaching the store; they are owned (and answered) all
        the same, so load/balance decisions must count them —
        :attr:`live_count` alone would under-report a shard that just
        absorbed a burst.  The buffered count comes from the store's
        staged-id registry (every buffered row is registered there by
        the staging gate), **not** from ``pending_updates()``: an
        index's pending measure may count derived-structure backlog for
        rows already appended (the grid's overflow entries), which would
        double-count them here.
        """
        return self.store.live_count + self.store.staged_count

    @property
    def dead_fraction(self) -> float:
        """Tombstoned fraction of the shard's physical rows (0 when empty).

        The compaction policy's trigger: the engine compacts a shard
        once this crosses its ``dead_fraction`` threshold.
        """
        return self.store.n_dead / self.store.n if self.store.n else 0.0

    def refresh_mbb(self) -> None:
        """Reset the pruning MBB to exactly cover the live rows.

        Called at construction and after compaction; an empty (or fully
        dead) shard gets the inverted box, which intersects nothing and
        merges as the identity.
        """
        store = self.store
        if store.live_count:
            bounds = store.bounds()
            self.mbb_lo = np.asarray(bounds.lo, dtype=np.float64).copy()
            self.mbb_hi = np.asarray(bounds.hi, dtype=np.float64).copy()
        else:
            self.mbb_lo = np.full(store.ndim, _INF, dtype=np.float64)
            self.mbb_hi = np.full(store.ndim, -_INF, dtype=np.float64)

    def serving_index(self) -> SpatialIndex:
        """The index read traffic should hit for this shard.

        The read-routing seam: the base shard always serves from its own
        index, while :class:`~repro.sharding.replication.ReplicatedShard`
        overrides this to pick the least-loaded live replica.  The
        engine's inline sub-batch runner calls this exactly once per
        shard per batch, so whatever index is returned serves that
        shard's whole sub-batch (shard affinity extends to replicas).
        """
        return self.index

    def work_counter(self, name: str) -> int:
        """Cumulative value of one index work counter for this shard.

        The engine's :meth:`ShardedIndex.sync_shard_work` reads fleet
        work through this hook; a replicated shard overrides it to sum
        across all of its replicas' indexes.
        """
        return int(getattr(self.index.stats, name))

    def expand(self, lo: np.ndarray, hi: np.ndarray) -> None:
        """Grow the MBB to cover an insert batch routed to this shard."""
        if lo.shape[0]:
            self.mbb_lo = np.minimum(self.mbb_lo, lo.min(axis=0))
            self.mbb_hi = np.maximum(self.mbb_hi, hi.max(axis=0))

    # ------------------------------------------------------------------
    # Writes and maintenance: the verbs the engine drives
    # ------------------------------------------------------------------
    @property
    def writable(self) -> bool:
        """Whether this shard's index accepts inserts and deletes."""
        return isinstance(self.index, MutableSpatialIndex)

    def insert(self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray) -> None:
        """Apply a routed insert batch and grow the MBB to cover it."""
        self.index.insert(lo, hi, ids)
        self.expand(lo, hi)

    def delete(self, ids: np.ndarray) -> None:
        """Apply a routed delete batch (the MBB stays loose)."""
        self.index.delete(ids)

    def pending(self) -> int:
        """Rows routed here but still staged in the update buffer."""
        if isinstance(self.index, MutableSpatialIndex):
            return self.index.pending_updates()
        return 0

    def flush(self) -> int:
        """Merge the update buffer now; returns the rows merged."""
        return flush_index(self.index)

    def compact(self) -> int:
        """Drop the store's tombstones and re-tighten the MBB.

        Returns the rows reclaimed.  Buffered (not yet drained) inserts
        are covered by the MBB but invisible to the store, so the MBB is
        re-derived only once nothing is pending — otherwise pruning
        could skip a staged match.
        """
        reclaimed = compact_index(self.store, self.index)
        if reclaimed and self.pending() == 0:
            self.refresh_mbb()
        return reclaimed

    def memory_bytes(self) -> int:
        """Footprint of the shard's private store copy plus its index."""
        store_bytes = int(
            self.store.lo.nbytes
            + self.store.hi.nbytes
            + self.store.ids.nbytes
            + self.store.live.nbytes
        )
        return store_bytes + self.index.memory_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Shard(sid={self.sid}, n={self.store.n}, index={self.index.name})"

"""Replicated shard serving: R replicas per shard, faults, ledger recovery.

QUASII's splitting fixes *data* hotspots; this module addresses the
*traffic* hotspot splitting cannot fix (the LiLIS framing): when
queries concentrate on one tile, splitting it just moves the load, but
serving the tile from R independent replicas divides it.

Four pieces, each a first-class object rather than a monkeypatch:

* :class:`ReplicaSet` — R replicas of one shard, each a private
  :class:`~repro.datasets.store.BoxStore` plus its own index (replicas
  crack independently, so their physical layouts diverge while their
  live ``(id, box)`` multisets stay identical).  Reads route to the
  least-loaded live replica (automatic failover: dead replicas are
  never picked); writes apply to every live replica *through* the
  per-shard :class:`~repro.updates.ledger.UpdateLedger`, which doubles
  as the replication stream.  A dead replica recovers by replaying the
  ledger into a fresh store (:meth:`ReplicaSet.recover`) and is proven
  identical to its peers by the order-insensitive
  ``BoxStore.live_fingerprint`` plus ``UpdateLedger.assert_matches``.
* :class:`FaultInjector` — a deterministic, seed-driven failure
  schedule: kill/stall/slow a chosen replica at a chosen operation
  count.  It is ticked on the engine's routing path (exactly once per
  query or update, on the coordinating thread), so the same seed always
  produces the same failure interleaving — failures are test *inputs*.
* :class:`ReplicatedShard` — a :class:`~repro.sharding.shard.Shard`
  that owns its writes the replicated way: it overrides only the shard
  verbs (``insert``/``delete`` go ledger-first through the
  :class:`ReplicaSet`; ``flush``/``compact`` sweep every live replica
  and report the primary's count) and the read seam
  (:meth:`ReplicatedShard.serving_index`).
* :class:`ReplicatedShardedIndex` — the :class:`ShardedIndex` engine
  building every shard as a :class:`ReplicatedShard` through the
  engine's one ``_new_shard`` hook.  It adds only the fault, kill, and
  recovery API plus a fault tick on each routed operation; routing,
  compaction, flushing, and rebalancing are the base engine's own code.
  Shard affinity extends to replicas because the serving replica is
  picked once per shard per batch, keeping every incremental index
  single-writer.

The ledger-as-replication-stream invariant: every applied write is
recorded in the shard's ledger *before* it reaches any replica, so the
ledger's base snapshot plus its op log is always a superset-in-time of
any replica's state, and replay reconstructs exactly the live multiset
every live replica holds.  See docs/ARCHITECTURE.md (Replication).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.datasets.store import BoxStore
from repro.errors import ConfigurationError, ReplicationError
from repro.index.base import SpatialIndex
from repro.queries.query import Query
from repro.queries.range_query import RangeQuery
from repro.sharding.shard import Shard, compact_index, flush_index
from repro.sharding.sharded_index import IndexFactory, ShardedIndex
from repro.telemetry.events import EventLog
from repro.updates.ledger import UpdateLedger

#: Fault actions the injector understands.
FAULT_ACTIONS = ("kill", "stall", "slow")

#: Builds (store, index) for one replica; the engine passes its own
#: factory-enforcing helper here so replicas and shards are built alike.
ReplicaFactory = Callable[[BoxStore], tuple[BoxStore, SpatialIndex]]


@dataclass(frozen=True)
class Fault:
    """One scheduled failure: *what* happens to *which* replica *when*.

    Attributes
    ----------
    at_op:
        Global engine operation count (queries + updates, 1-based) at
        which the fault fires.
    action:
        ``"kill"`` (dead until recovered), ``"stall"`` (excluded from
        read routing for ``duration`` routing decisions; still receives
        writes), or ``"slow"`` (a synthetic load multiplier, so
        least-loaded routing deprioritizes the replica without any
        wall-clock sleeping — determinism over realism).
    sid / rid:
        Target shard and replica.
    duration:
        Stall length, counted in routing decisions for the shard.
    factor:
        Slow-down multiplier applied to the replica's effective load.
    """

    at_op: int
    action: str
    sid: int
    rid: int
    duration: int = 4
    factor: float = 4.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if self.at_op < 1:
            raise ConfigurationError(
                f"fault at_op must be >= 1, got {self.at_op}"
            )
        if self.duration < 0:
            raise ConfigurationError(
                f"fault duration must be >= 0, got {self.duration}"
            )
        if self.factor < 1.0:
            raise ConfigurationError(
                f"fault factor must be >= 1.0, got {self.factor}"
            )


class FaultInjector:
    """A deterministic failure schedule, ticked once per engine operation.

    The injector is pure clockwork: :meth:`advance` ticks the operation
    counter and returns the faults whose ``at_op`` has arrived.  It
    never touches the engine itself — the engine applies the returned
    faults — so the schedule is inspectable (:attr:`schedule`), the
    same instance replays identically after :meth:`reset`, and
    :meth:`random` builds the same schedule for the same seed.
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self._faults: tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: f.at_op)
        )
        self._ops = 0
        self._cursor = 0

    @classmethod
    def random(
        cls,
        seed: int,
        n_faults: int,
        n_shards: int,
        replication: int,
        max_op: int,
        actions: Sequence[str] = FAULT_ACTIONS,
    ) -> FaultInjector:
        """A seed-driven schedule: same arguments, same faults, always."""
        if n_faults < 0:
            raise ConfigurationError(f"need n_faults >= 0, got {n_faults}")
        if max_op < 1:
            raise ConfigurationError(f"need max_op >= 1, got {max_op}")
        rng = np.random.default_rng(seed)
        faults = [
            Fault(
                at_op=int(rng.integers(1, max_op + 1)),
                action=str(rng.choice(list(actions))),
                sid=int(rng.integers(n_shards)),
                rid=int(rng.integers(replication)),
                duration=int(rng.integers(1, 9)),
                factor=float(rng.uniform(2.0, 8.0)),
            )
            for _ in range(n_faults)
        ]
        return cls(faults)

    @property
    def schedule(self) -> tuple[Fault, ...]:
        """The full fault schedule, ordered by firing op."""
        return self._faults

    @property
    def ops_seen(self) -> int:
        """Operations ticked so far."""
        return self._ops

    @property
    def exhausted(self) -> bool:
        """Whether every scheduled fault has fired."""
        return self._cursor >= len(self._faults)

    def advance(self) -> list[Fault]:
        """Advance the op clock by one; return the faults due now."""
        self._ops += 1
        due: list[Fault] = []
        while (
            self._cursor < len(self._faults)
            and self._faults[self._cursor].at_op <= self._ops
        ):
            due.append(self._faults[self._cursor])
            self._cursor += 1
        return due

    def reset(self) -> None:
        """Rewind the clock so the same schedule replays from op 1."""
        self._ops = 0
        self._cursor = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(n_faults={len(self._faults)}, ops={self._ops})"
        )


class ShardReplica:
    """One replica of a shard: a private store+index plus health state.

    ``state`` is ``"live"`` or ``"dead"``; stall and slow are routing
    modifiers on a live replica, not states of their own (a stalled
    replica still applies writes, a slowed one still serves — just
    later in the least-loaded order).
    """

    __slots__ = (
        "rid",
        "store",
        "index",
        "state",
        "reads_served",
        "writes_applied",
        "stall_remaining",
        "slow_factor",
    )

    def __init__(self, rid: int, store: BoxStore, index: SpatialIndex) -> None:
        self.rid = rid
        self.store = store
        self.index = index
        self.state = "live"
        #: Read batches this replica served (the load measure routing
        #: minimizes; frozen while dead — the no-dead-reads invariant).
        self.reads_served = 0
        #: Write batches applied (ledger stream position, effectively).
        self.writes_applied = 0
        #: Routing decisions this replica still sits out (stall fault).
        self.stall_remaining = 0
        #: Synthetic load multiplier (slow fault; 1.0 = healthy).
        self.slow_factor = 1.0

    @property
    def alive(self) -> bool:
        return self.state == "live"

    def effective_load(self) -> float:
        """Reads served, scaled by the slow penalty (routing key)."""
        return (self.reads_served + 1) * self.slow_factor

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ShardReplica(rid={self.rid}, state={self.state!r}, "
            f"reads={self.reads_served}, writes={self.writes_applied})"
        )


class ReplicaSet:
    """R replicas of one shard behind least-loaded routing + the ledger.

    Parameters
    ----------
    sid:
        The owning shard id (event payloads and error messages).
    replicas:
        The initial replica fleet; all live, identical live multisets.
    ledger:
        The shard's replication stream: seeded from the initial rows,
        it records every write *before* replicas apply it and replays
        into a fresh store at recovery time.
    factory:
        Builds ``(store, index)`` over a recovered store — the engine's
        contract-enforcing ``_make_shard_index``.
    on_event:
        Optional callback ``(kind, **payload)`` for ``replica.*``
        telemetry events (the engine wires its event log here).
    """

    def __init__(
        self,
        sid: int,
        replicas: list[ShardReplica],
        ledger: UpdateLedger,
        factory: ReplicaFactory,
        on_event: Callable[..., object] | None = None,
    ) -> None:
        if not replicas:
            raise ConfigurationError("a replica set needs >= 1 replica")
        self.sid = sid
        self.replicas = replicas
        self.ledger = ledger
        self._factory = factory
        self._on_event = on_event

    def _emit(self, kind: str, **payload: object) -> None:
        if self._on_event is not None:
            self._on_event(kind, **payload)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def replication(self) -> int:
        """Configured replica count R."""
        return len(self.replicas)

    def live_replicas(self) -> list[ShardReplica]:
        """All live replicas, rid order."""
        return [r for r in self.replicas if r.alive]

    def dead_rids(self) -> list[int]:
        """Rids currently dead (recover targets)."""
        return [r.rid for r in self.replicas if not r.alive]

    def primary(self) -> ShardReplica | None:
        """The lowest-rid live replica (maintenance reads it), or None."""
        for r in self.replicas:
            if r.alive:
                return r
        return None

    # ------------------------------------------------------------------
    # Read routing
    # ------------------------------------------------------------------
    def pick(self) -> ShardReplica:
        """The least-loaded live replica for one read batch.

        Dead replicas are never candidates (automatic failover);
        stalled replicas sit out until their stall drains, unless every
        live replica is stalled — a stall delays, it must not fabricate
        an outage.  Raises :class:`ReplicationError` with zero live
        replicas instead of hanging or serving stale state.
        """
        live = self.live_replicas()
        if not live:
            raise ReplicationError(
                f"shard {self.sid}: all {self.replication} replicas are "
                "dead; recover via ledger replay before serving reads"
            )
        routable = [r for r in live if r.stall_remaining == 0]
        for r in live:
            if r.stall_remaining:
                r.stall_remaining -= 1
        pool = routable or live
        chosen = min(pool, key=lambda r: (r.effective_load(), r.rid))
        chosen.reads_served += 1
        return chosen

    # ------------------------------------------------------------------
    # Write application (the replication stream)
    # ------------------------------------------------------------------
    def apply_insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray
    ) -> None:
        """Record the insert in the ledger, then apply to live replicas.

        Ledger-first ordering is the stream invariant: a replica killed
        between the record and its apply simply misses the write and
        recovers it at replay time.  Dead replicas receive nothing.
        """
        self.ledger.record_insert(lo, hi, ids)
        for r in self.replicas:
            if r.alive:
                r.index.insert(lo, hi, ids)
                r.writes_applied += 1

    def apply_delete(self, ids: np.ndarray) -> None:
        """Record the delete in the ledger, then apply to live replicas."""
        self.ledger.record_delete(ids)
        for r in self.replicas:
            if r.alive:
                r.index.delete(ids)
                r.writes_applied += 1

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def kill(self, rid: int) -> bool:
        """Mark a replica dead; no-op (False) if already dead."""
        r = self.replicas[rid]
        if not r.alive:
            return False
        r.state = "dead"
        self._emit("replica.kill", sid=self.sid, rid=rid)
        return True

    def stall(self, rid: int, duration: int) -> bool:
        """Exclude a live replica from routing for ``duration`` picks."""
        r = self.replicas[rid]
        if not r.alive:
            return False
        r.stall_remaining = max(r.stall_remaining, int(duration))
        self._emit(
            "replica.stall", sid=self.sid, rid=rid, duration=int(duration)
        )
        return True

    def slow(self, rid: int, factor: float) -> bool:
        """Scale a live replica's effective load by ``factor``."""
        r = self.replicas[rid]
        if not r.alive:
            return False
        r.slow_factor = max(r.slow_factor, float(factor))
        self._emit(
            "replica.slow", sid=self.sid, rid=rid, factor=float(factor)
        )
        return True

    # ------------------------------------------------------------------
    # Recovery: ledger replay into a fresh store
    # ------------------------------------------------------------------
    def recover(self, rid: int) -> ShardReplica:
        """Rebuild a dead replica from the ledger; prove it identical.

        Replays base snapshot + op log into a fresh store, asserts the
        result matches the ledger's live mirror, and fingerprint-checks
        it against a live peer (order-insensitive ``live_fingerprint``:
        peers crack independently, so physical layouts differ while the
        live multiset must not).  Live peers are flushed first so their
        buffered writes are physically comparable.  Once every replica
        is live again the ledger folds its log into the base snapshot
        (:meth:`UpdateLedger.truncate`), bounding future replays.
        Idempotent: recovering a live replica is a no-op.
        """
        target = self.replicas[rid]
        if target.alive:
            return target
        replayed = self.ledger.log_length
        for r in self.live_replicas():
            flush_index(r.index)
        store = self.ledger.rebuild_store()
        self.ledger.assert_matches(store)
        peer = self.primary()
        if peer is not None and (
            peer.store.live_fingerprint() != store.live_fingerprint()
        ):
            raise ReplicationError(
                f"shard {self.sid}: recovered replica {rid} diverged from "
                f"live peer {peer.rid} (live fingerprints differ)"
            )
        shard_store, index = self._factory(store)
        index.build()
        fresh = ShardReplica(rid, shard_store, index)
        self.replicas[rid] = fresh
        if not self.dead_rids():
            self.ledger.truncate()
        self._emit(
            "replica.recover",
            sid=self.sid,
            rid=rid,
            replayed_ops=replayed,
            live_rows=shard_store.live_count,
        )
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        states = "".join(r.state[0] for r in self.replicas)
        return f"ReplicaSet(sid={self.sid}, replicas={states!r})"


class ReplicatedShard(Shard):
    """A :class:`Shard` served by, and writing to, a :class:`ReplicaSet`.

    ``store``/``index`` always point at the current *primary* (lowest
    live rid), so reads of the plain shard contract (sizes, MBB,
    rebalancing's row pooling) see one consistent copy.  The shard
    verbs are overridden to act on the whole set: writes go ledger-first
    to every live replica, ``flush``/``compact`` sweep every live
    replica but report the primary's count, and :meth:`serving_index`
    picks the least-loaded live replica for reads.  Dead replicas are
    skipped throughout; recovery rebuilds them from the ledger.
    """

    __slots__ = ("replica_set",)

    def __init__(self, sid: int, replica_set: ReplicaSet) -> None:
        primary = replica_set.primary()
        if primary is None:
            raise ConfigurationError(
                f"shard {sid}: cannot construct with zero live replicas"
            )
        self.replica_set = replica_set
        super().__init__(sid, primary.store, primary.index)

    def serving_index(self) -> SpatialIndex:
        """The least-loaded live replica's index (failover routing)."""
        return self.replica_set.pick().index

    def insert(self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray) -> None:
        """Ledger-first insert into every live replica; grow the MBB."""
        self.replica_set.apply_insert(lo, hi, ids)
        self.expand(lo, hi)

    def delete(self, ids: np.ndarray) -> None:
        """Ledger-first delete from every live replica."""
        self.replica_set.apply_delete(ids)

    def flush(self) -> int:
        """Flush every live replica; returns the primary's merged rows.

        One logical count per shard, not R: the rows are the same rows
        on every replica.  Every live replica is still flushed —
        rebalancing pools rows from the primary's store, and recovery
        fingerprints replicas against flushed peers.
        """
        flushed = 0
        for r in self.replica_set.live_replicas():
            if r.index is self.index:
                flushed = super().flush()
            else:
                flush_index(r.index)
        return flushed

    def compact(self) -> int:
        """Compact every live replica in lockstep; returns the primary's
        reclaimed rows.

        Replicas share one live multiset, so their dead fractions move
        together; compacting them together keeps the reinsert-id gates
        consistent across the set.  The primary goes through
        :meth:`Shard.compact`, so the MBB re-tightens exactly when the
        primary has nothing pending.
        """
        reclaimed = 0
        for r in self.replica_set.live_replicas():
            if r.index is self.index:
                reclaimed = super().compact()
            else:
                compact_index(r.store, r.index)
        return reclaimed

    def work_counter(self, name: str) -> int:
        """Fleet work summed across *all* replicas (dead ones included:
        their pre-kill work already happened and must stay counted
        until recovery swaps the replica out)."""
        return sum(
            int(getattr(r.index.stats, name))
            for r in self.replica_set.replicas
        )

    def sync_primary(self) -> bool:
        """Re-point ``store``/``index`` at the current primary.

        Returns True (and emits ``replica.failover``) when the previous
        primary died and a live replica took over; re-pointing after a
        recovery (old primary still live) is silent — no failover
        happened, the read path never lost service.
        """
        rs = self.replica_set
        primary = rs.primary()
        if primary is None or primary.index is self.index:
            return False
        old = next(
            (r for r in rs.replicas if r.index is self.index), None
        )
        self.store = primary.store
        self.index = primary.index
        if old is None or not old.alive:
            rs._emit(
                "replica.failover",
                sid=self.sid,
                to_rid=primary.rid,
                from_rid=None if old is None else old.rid,
            )
            return True
        return False

    def memory_bytes(self) -> int:
        """Footprint across all replicas' stores and indexes."""
        total = 0
        for r in self.replica_set.replicas:
            total += int(
                r.store.lo.nbytes
                + r.store.hi.nbytes
                + r.store.ids.nbytes
                + r.store.live.nbytes
            ) + r.index.memory_bytes()
        return total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicatedShard(sid={self.sid}, n={self.store.n}, "
            f"replicas={self.replica_set.replication})"
        )


class ReplicatedShardedIndex(ShardedIndex):
    """A :class:`ShardedIndex` serving every shard from R replicas.

    Parameters
    ----------
    store, n_shards, partitioner, index_factory:
        As for :class:`ShardedIndex`; the factory builds *every*
        replica's index, so replicas are structurally homogeneous.
    replication:
        Replica count R per shard (R=1 degenerates to the base engine's
        behavior plus the ledger/recovery machinery).
    fault_injector:
        Optional :class:`FaultInjector`, ticked once per engine
        operation (query routing, insert, delete) on the coordinating
        thread; due faults are applied before the operation proceeds.
    events:
        Optional :class:`~repro.telemetry.events.EventLog` receiving
        the canonical ``replica.*`` events.
    """

    def __init__(
        self,
        store: BoxStore,
        n_shards: int = 4,
        replication: int = 2,
        partitioner: str = "str",
        index_factory: IndexFactory | None = None,
        fault_injector: FaultInjector | None = None,
        events: EventLog | None = None,
    ) -> None:
        super().__init__(
            store,
            n_shards=n_shards,
            partitioner=partitioner,
            index_factory=index_factory,
        )
        if replication < 1:
            raise ConfigurationError(
                f"need replication >= 1, got {replication}"
            )
        self._replication = int(replication)
        self._fault_injector = fault_injector
        self._events = events
        self.name = (
            f"Replicated[{self._partitioner.name}x{self._n_shards}"
            f"xR{self._replication}]"
        )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def replication_factor(self) -> int:
        """Replicas per shard (the rebalancer's skew gate reads this)."""
        return self._replication

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The attached injector, if any."""
        return self._fault_injector

    def attach_fault_injector(self, injector: FaultInjector) -> None:
        """Attach (or replace) the failure schedule; the executor's
        ``fault_injector`` parameter lands here."""
        self._fault_injector = injector

    def attach_event_log(self, events: EventLog) -> None:
        """Attach an event log for ``replica.*`` events (keeps an
        already-attached log — the constructor wins over the executor)."""
        if self._events is None:
            self._events = events

    def _emit_replica_event(self, kind: str, **payload: object) -> None:
        if self._events is not None:
            self._events.emit(kind, **payload)

    # ------------------------------------------------------------------
    # Build: every shard is R replicas behind one ledger
    # ------------------------------------------------------------------
    def _new_shard(
        self,
        sid: int,
        lo: np.ndarray,
        hi: np.ndarray,
        ids: np.ndarray,
        via_insert: bool,
    ) -> ReplicatedShard:
        """R replicas, each built exactly like a plain shard.

        A fresh replica set starts fully live with a fresh ledger whose
        base snapshot is exactly the row set, so a rebalancing rebuild
        is a re-replication point: faults on the old set are wiped,
        just as a rebuilt plain shard is a new index.
        """
        replicas: list[ShardReplica] = []
        for rid in range(self._replication):
            plain = super()._new_shard(sid, lo, hi, ids, via_insert)
            replicas.append(ShardReplica(rid, plain.store, plain.index))
        replica_set = ReplicaSet(
            sid,
            replicas,
            UpdateLedger(replicas[0].store),
            factory=self._make_shard_index,
            on_event=self._emit_replica_event,
        )
        return ReplicatedShard(sid, replica_set)

    # ------------------------------------------------------------------
    # Fault seam: ticked on the routing path, applied on the coordinator
    # ------------------------------------------------------------------
    def _tick_faults(self) -> None:
        injector = self._fault_injector
        if injector is None or not self._built:
            return
        for fault in injector.advance():
            self.apply_fault(fault)

    def apply_fault(self, fault: Fault) -> bool:
        """Apply one fault now; returns whether it changed anything."""
        if not 0 <= fault.sid < self._n_shards:
            raise ConfigurationError(
                f"fault targets shard {fault.sid}; engine has "
                f"{self._n_shards} shards"
            )
        if not 0 <= fault.rid < self._replication:
            raise ConfigurationError(
                f"fault targets replica {fault.rid}; shards have "
                f"{self._replication} replicas"
            )
        if fault.action == "kill":
            return self.kill_replica(fault.sid, fault.rid)
        if fault.action == "stall":
            return self.stall_replica(fault.sid, fault.rid, fault.duration)
        return self.slow_replica(fault.sid, fault.rid, fault.factor)

    def _replicated(self, sid: int) -> ReplicatedShard:
        shard = self._shards[sid]
        assert isinstance(shard, ReplicatedShard)
        return shard

    def kill_replica(self, sid: int, rid: int) -> bool:
        """Kill one replica; promotes a new primary if needed."""
        shard = self._replicated(sid)
        changed = shard.replica_set.kill(rid)
        if changed:
            shard.sync_primary()
        return changed

    def stall_replica(self, sid: int, rid: int, duration: int) -> bool:
        """Stall one replica out of read routing for ``duration`` picks."""
        return self._replicated(sid).replica_set.stall(rid, duration)

    def slow_replica(self, sid: int, rid: int, factor: float) -> bool:
        """Scale one replica's effective load by ``factor``."""
        return self._replicated(sid).replica_set.slow(rid, factor)

    def dead_replicas(self) -> list[tuple[int, int]]:
        """All currently-dead ``(sid, rid)`` pairs."""
        out = []
        for shard in self._shards:
            if isinstance(shard, ReplicatedShard):
                out.extend(
                    (shard.sid, rid)
                    for rid in shard.replica_set.dead_rids()
                )
        return out

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover_replica(self, sid: int, rid: int) -> ShardReplica:
        """Ledger-replay one dead replica back to life.

        Folds the outgoing replica's unsynced work into the engine's
        stats first, then recalibrates the fleet work baseline: the
        fresh replica starts with zeroed index counters, and
        :meth:`sync_shard_work` must never see that as a negative
        delta.
        """
        shard = self._replicated(sid)
        self.sync_shard_work()
        replica = shard.replica_set.recover(rid)
        shard.sync_primary()
        self._rebaseline_work()
        return replica

    def recover_all(self) -> int:
        """Recover every dead replica fleet-wide; returns the count."""
        recovered = 0
        for sid, rid in self.dead_replicas():
            self.recover_replica(sid, rid)
            recovered += 1
        return recovered

    # ------------------------------------------------------------------
    # Routed operations tick the fault clock exactly once each
    # ------------------------------------------------------------------
    def plan_shards(self, query: Query | RangeQuery) -> list[Shard]:
        self._tick_faults()
        return super().plan_shards(query)

    def _insert(
        self, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None
    ) -> np.ndarray:
        self._tick_faults()
        return super()._insert(lo, hi, ids)

    def _delete(self, ids: np.ndarray) -> int:
        self._tick_faults()
        return super()._delete(ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicatedShardedIndex(n_shards={self._n_shards}, "
            f"replication={self._replication}, built={self._built})"
        )


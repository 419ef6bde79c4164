"""Unit tests for the replication tier: routing, failover, recovery.

Covers the ISSUE's named cases directly: least-loaded failover routing,
kill-during-write leaving the ledger replayable (see
``test_fault_injection``), double-kill of all replicas raising a clean
error instead of hanging, the no-dead-reads invariant, and ledger-replay
recovery with fingerprint verification.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.errors import ConfigurationError, ReplicationError, ReproError
from repro.geometry import Box
from repro.queries import RangeQuery
from repro.sharding import (
    MaintenancePolicy,
    MaintenanceScheduler,
    Rebalancer,
    ReplicatedShardedIndex,
    ShardedIndex,
)
from repro.telemetry.events import EVENTS, EventLog


def _grid_store(side: int = 6, spacing: float = 3.0) -> BoxStore:
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    lo = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64) * spacing
    return BoxStore(lo, lo + 1.0)


def _small_quasii(store: BoxStore) -> QuasiiIndex:
    return QuasiiIndex(store, QuasiiConfig(2, (8, 4)), max_runs=2)


def _window(lo, hi, seq=0) -> RangeQuery:
    return RangeQuery(Box(tuple(lo), tuple(hi)), seq=seq)


def _full(seq=9999) -> RangeQuery:
    return _window((-1.0, -1.0), (100.0, 100.0), seq=seq)


def _replicated(store=None, **kwargs) -> ReplicatedShardedIndex:
    engine = ReplicatedShardedIndex(
        store if store is not None else _grid_store(),
        index_factory=_small_quasii,
        **kwargs,
    )
    engine.build()
    return engine


class TestBuild:
    def test_every_shard_has_r_identical_replicas(self):
        engine = _replicated(n_shards=2, replication=3)
        assert engine.name == "Replicated[strx2xR3]"
        assert engine.replication_factor == 3
        for shard in engine.shards:
            rs = shard.replica_set
            assert rs.replication == 3
            assert rs.dead_rids() == []
            fps = {r.store.live_fingerprint() for r in rs.replicas}
            assert len(fps) == 1
            # Primary pointer: the shard contract fields alias replica 0.
            assert shard.store is rs.replicas[0].store
            assert shard.index is rs.replicas[0].index

    def test_replication_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="replication >= 1"):
            ReplicatedShardedIndex(_grid_store(), replication=0)

    def test_replication_error_is_a_repro_error(self):
        assert issubclass(ReplicationError, ReproError)

    def test_r1_engine_answers_queries(self):
        engine = _replicated(n_shards=2, replication=1)
        scan = ScanIndex(
            BoxStore(engine.store.lo.copy(), engine.store.hi.copy())
        )
        q = _window((0.0, 0.0), (8.0, 8.0))
        assert np.array_equal(
            np.sort(engine.query(q)), np.sort(scan.query(q))
        )


class TestRouting:
    def test_pick_chooses_least_loaded_live_replica(self):
        engine = _replicated(n_shards=1, replication=3)
        rs = engine.shards[0].replica_set
        rs.replicas[0].reads_served = 5
        rs.replicas[2].reads_served = 2
        chosen = rs.pick()
        assert chosen is rs.replicas[1]
        assert chosen.reads_served == 1

    def test_ties_break_by_lowest_rid(self):
        engine = _replicated(n_shards=1, replication=3)
        rs = engine.shards[0].replica_set
        assert rs.pick() is rs.replicas[0]

    def test_slow_replica_is_deprioritized_not_excluded(self):
        engine = _replicated(n_shards=1, replication=2)
        rs = engine.shards[0].replica_set
        rs.slow(0, 10.0)
        # Load-scaled: rid 0 serves again once rid 1 has absorbed enough.
        picks = [rs.pick().rid for _ in range(12)]
        assert picks[0] == 1
        assert 0 in picks

    def test_stalled_replica_sits_out_then_returns(self):
        engine = _replicated(n_shards=1, replication=3)
        rs = engine.shards[0].replica_set
        rs.stall(0, 2)
        assert rs.pick().rid != 0
        assert rs.pick().rid != 0
        # Stall drained; rid 0 is now the least-loaded candidate again.
        assert rs.pick().rid == 0

    def test_all_stalled_falls_back_to_live_pool(self):
        engine = _replicated(n_shards=1, replication=2)
        rs = engine.shards[0].replica_set
        rs.stall(0, 5)
        rs.stall(1, 5)
        # A stall delays; it must not fabricate an outage.
        assert rs.pick().alive

    def test_no_read_ever_routes_to_a_dead_replica(self):
        engine = _replicated(n_shards=1, replication=2)
        rs = engine.shards[0].replica_set
        engine.kill_replica(0, 1)
        frozen = rs.replicas[1].reads_served
        for i in range(6):
            engine.query(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        assert rs.replicas[1].reads_served == frozen
        assert rs.replicas[0].reads_served >= 6


class TestFailover:
    def test_kill_of_primary_promotes_and_emits_failover(self):
        events = EventLog()
        engine = _replicated(n_shards=2, replication=2, events=events)
        shard = engine.shards[0]
        old_index = shard.index
        assert engine.kill_replica(0, 0)
        assert shard.index is shard.replica_set.replicas[1].index
        assert shard.index is not old_index
        failovers = events.recent(kind="replica.failover")
        assert len(failovers) == 1
        assert failovers[0].payload == {"sid": 0, "to_rid": 1, "from_rid": 0}

    def test_queries_survive_single_replica_kill(self):
        engine = _replicated(n_shards=2, replication=2)
        scan = ScanIndex(
            BoxStore(engine.store.lo.copy(), engine.store.hi.copy())
        )
        engine.kill_replica(1, 0)
        for i in range(4):
            q = _window((i * 2.0, 0.0), (i * 2.0 + 9.0, 16.0), seq=i)
            assert np.array_equal(
                np.sort(engine.query(q)), np.sort(scan.query(q))
            )

    def test_double_kill_raises_clean_error_not_hang(self):
        engine = _replicated(n_shards=2, replication=2)
        engine.kill_replica(0, 0)
        engine.kill_replica(0, 1)
        assert sorted(engine.dead_replicas()) == [(0, 0), (0, 1)]
        with pytest.raises(
            ReplicationError, match="all 2 replicas are dead"
        ):
            engine.query(_full())
        # Recovery restores service completely.
        assert engine.recover_all() == 2
        assert engine.dead_replicas() == []
        scan = ScanIndex(
            BoxStore(engine.store.lo.copy(), engine.store.hi.copy())
        )
        assert np.array_equal(
            np.sort(engine.query(_full())), np.sort(scan.query(_full()))
        )

    def test_kill_is_idempotent(self):
        engine = _replicated(n_shards=1, replication=2)
        assert engine.kill_replica(0, 1)
        assert not engine.kill_replica(0, 1)


class TestRecovery:
    def test_writes_while_dead_are_recovered_by_replay(self):
        engine = _replicated(n_shards=1, replication=2)
        engine.kill_replica(0, 1)
        blo = np.array([[1.2, 1.2], [7.7, 7.7]])
        bhi = blo + 1.0
        new_ids = engine.insert(blo, bhi)
        engine.delete(np.array([engine.store.ids[0], new_ids[0]]))
        rs = engine.shards[0].replica_set
        assert rs.ledger.log_length >= 2
        engine.recover_replica(0, 1)
        # All live again: identical live multisets, log folded away.
        fps = {r.store.live_fingerprint() for r in rs.replicas}
        assert len(fps) == 1
        assert rs.ledger.log_length == 0
        rs.ledger.assert_matches(rs.replicas[1].store)

    def test_recover_of_live_replica_is_a_noop(self):
        events = EventLog()
        engine = _replicated(n_shards=1, replication=2, events=events)
        rs = engine.shards[0].replica_set
        before = rs.replicas[1]
        assert engine.recover_replica(0, 1) is before
        assert events.recent(kind="replica.recover") == []

    def test_recover_event_carries_replay_depth(self):
        events = EventLog()
        engine = _replicated(n_shards=1, replication=2, events=events)
        engine.kill_replica(0, 1)
        engine.insert(np.array([[2.2, 2.2]]), np.array([[3.0, 3.0]]))
        engine.recover_replica(0, 1)
        (rec,) = events.recent(kind="replica.recover")
        assert rec.payload["sid"] == 0 and rec.payload["rid"] == 1
        assert rec.payload["replayed_ops"] == 1
        assert rec.payload["live_rows"] == engine.store.live_count

    def test_diverged_peer_fails_the_fingerprint_check(self):
        engine = _replicated(n_shards=1, replication=2)
        engine.kill_replica(0, 1)
        rs = engine.shards[0].replica_set
        # Write to the live peer behind the ledger's back (through its
        # index, so its epoch stays consistent): recovery must refuse to
        # certify the rebuilt replica against the diverged peer.
        rs.replicas[0].index.insert(
            np.array([[50.0, 50.0]]), np.array([[51.0, 51.0]]),
            np.array([999]),
        )
        with pytest.raises(ReplicationError, match="diverged from"):
            engine.recover_replica(0, 1)

    def test_recovered_replica_serves_reads(self):
        engine = _replicated(n_shards=1, replication=2)
        engine.kill_replica(0, 1)
        engine.recover_replica(0, 1)
        rs = engine.shards[0].replica_set
        rs.replicas[0].reads_served = 50
        assert rs.pick().rid == 1


class TestMaintenanceIntegration:
    def test_scheduler_heals_replicas_when_policy_allows(self):
        engine = _replicated(n_shards=2, replication=2)
        scheduler = MaintenanceScheduler(
            engine, MaintenancePolicy(check_every=1, recover_replicas=True)
        )
        engine.kill_replica(1, 0)
        scheduler.run()
        assert engine.dead_replicas() == []
        assert scheduler.report.replicas_recovered == 1

    def test_default_policy_leaves_corpses_dead(self):
        engine = _replicated(n_shards=2, replication=2)
        scheduler = MaintenanceScheduler(
            engine, MaintenancePolicy(check_every=1)
        )
        engine.kill_replica(1, 0)
        scheduler.run()
        assert engine.dead_replicas() == [(1, 0)]


class TestRebalancerGate:
    def test_traffic_skew_does_not_retile_a_replicated_engine(self):
        corner = [_window((0.0, 0.0), (2.0, 2.0), seq=i) for i in range(6)]
        rebalancer = Rebalancer(
            min_queries=1, max_query_skew=1.2, min_centroids=2, warmup=0
        )

        plain = ShardedIndex(
            _grid_store(), n_shards=2, index_factory=_small_quasii
        )
        plain.build()
        for q in corner:
            plain.query(q)
        assert rebalancer.drift_reason(plain) == "skew"

        replicated = _replicated(n_shards=2, replication=2)
        for q in corner:
            replicated.query(q)
        assert rebalancer.drift_reason(replicated) is None


class TestCompactionAcrossReplicas:
    def test_compaction_keeps_replicas_in_lockstep(self):
        engine = _replicated(n_shards=2, replication=2)
        victims = engine.store.ids[:8].copy()
        engine.delete(victims)
        engine.compact()
        for shard in engine.shards:
            stores = [r.store for r in shard.replica_set.replicas]
            assert all(s.n_dead == 0 for s in stores)
            assert len({s.live_fingerprint() for s in stores}) == 1


def _insert_one(engine, lo) -> int:
    """Insert one unit box at ``lo``; returns the owning shard's sid."""
    blo = np.array([lo], dtype=np.float64)
    (new_id,) = engine.insert(blo, blo + 1.0).tolist()
    return engine.owner_of(new_id)


def _delete_some(engine, sid: int, count: int) -> None:
    """Delete ``count`` stored live rows of shard ``sid``."""
    store = engine.shards[sid].store
    engine.delete(store.ids[store.live_rows()[:count]].copy())


class TestFlushAndCompactionAccounting:
    def test_flush_counts_one_logical_row_per_shard(self):
        engine = _replicated(n_shards=2, replication=3)
        engine.insert(
            np.array([[1.2, 1.2], [13.2, 13.2]]),
            np.array([[2.0, 2.0], [14.0, 14.0]]),
        )
        assert engine.pending_updates() == 2
        # Every live replica merges its buffer, but the engine reports
        # each logical row once, not once per replica.
        assert engine.flush_updates() == 2
        assert engine.pending_updates() == 0
        for shard in engine.shards:
            for r in shard.replica_set.replicas:
                assert r.index.pending_updates() == 0

    def test_maybe_compact_compacts_live_replicas_in_lockstep(self):
        engine = _replicated(n_shards=2, replication=3)
        _delete_some(engine, 0, 8)
        engine.maybe_compact(dead_fraction=0.2)
        compacted = engine.shards[0].replica_set.replicas
        assert all(r.store.n_dead == 0 for r in compacted)
        assert all(r.index.stats.compactions == 1 for r in compacted)
        assert len({r.store.live_fingerprint() for r in compacted}) == 1
        # The untouched shard stays below the threshold on every replica.
        for r in engine.shards[1].replica_set.replicas:
            assert r.index.stats.compactions == 0

    def test_mbb_retightens_when_the_primary_has_nothing_pending(self):
        engine = _replicated(n_shards=2, replication=2)
        shard = engine.shards[0]
        store = shard.store
        live = store.live_rows()
        edge = store.lo[live, 0].max()
        engine.delete(store.ids[live[store.lo[live, 0] == edge]].copy())
        engine.compact()
        bounds = shard.store.bounds()
        assert np.array_equal(shard.mbb_lo, np.asarray(bounds.lo))
        assert np.array_equal(shard.mbb_hi, np.asarray(bounds.hi))
        assert shard.mbb_hi[0] < edge + 1.0

    def test_mbb_stays_loose_while_the_primary_has_rows_pending(self):
        engine = _replicated(n_shards=2, replication=2)
        sid = _insert_one(engine, (40.0, 40.0))
        shard = engine.shards[sid]
        rs = shard.replica_set
        # Route reads away from the primary: the serving secondary
        # drains its buffer, the primary keeps the row staged.
        engine.slow_replica(sid, 0, 100.0)
        engine.query(_window((39.0, 39.0), (42.0, 42.0)))
        assert rs.replicas[0].index.pending_updates() == 1
        assert rs.replicas[1].index.pending_updates() == 0
        _delete_some(engine, sid, 4)
        assert engine.compact() == 4
        # Primary still pending: the MBB must keep covering the row.
        assert np.all(shard.mbb_hi >= 41.0)
        assert shard.mbb_hi[0] > shard.store.bounds().hi[0]

    def test_mbb_follows_the_primary_even_if_a_secondary_is_pending(self):
        engine = _replicated(n_shards=2, replication=2)
        sid = _insert_one(engine, (40.0, 40.0))
        shard = engine.shards[sid]
        rs = shard.replica_set
        engine.slow_replica(sid, 1, 100.0)
        engine.query(_window((39.0, 39.0), (42.0, 42.0)))
        assert rs.replicas[0].index.pending_updates() == 0
        assert rs.replicas[1].index.pending_updates() == 1
        _delete_some(engine, sid, 4)
        engine.compact()
        # Re-tightened from the primary's store, which holds the row.
        bounds = shard.store.bounds()
        assert np.array_equal(shard.mbb_hi, np.asarray(bounds.hi))
        assert np.all(shard.mbb_hi >= 41.0)

    def test_dead_replicas_are_skipped(self):
        engine = _replicated(n_shards=2, replication=3)
        sid = _insert_one(engine, (4.2, 4.2))
        _delete_some(engine, sid, 6)
        engine.kill_replica(sid, 2)
        rs = engine.shards[sid].replica_set
        dead = rs.replicas[2]
        assert engine.flush_updates() == 1
        assert engine.compact() == 6
        assert dead.index.pending_updates() == 1
        assert dead.store.n_dead == 6
        assert dead.index.stats.compactions == 0
        for r in rs.live_replicas():
            assert r.index.pending_updates() == 0
            assert r.store.n_dead == 0
            assert r.index.stats.compactions == 1


class TestTelemetry:
    def test_all_emitted_kinds_are_canonical(self):
        events = EventLog()
        engine = _replicated(n_shards=2, replication=2, events=events)
        engine.kill_replica(0, 0)
        engine.stall_replica(1, 0, 3)
        engine.slow_replica(1, 1, 2.5)
        engine.recover_replica(0, 0)
        kinds = {r.kind for r in events.recent()}
        assert kinds == {
            "replica.kill",
            "replica.stall",
            "replica.slow",
            "replica.recover",
            "replica.failover",
        }
        assert kinds <= set(EVENTS)

    def test_work_counters_stay_consistent_through_recovery(self):
        engine = _replicated(n_shards=2, replication=2)
        for i in range(4):
            engine.query(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        before = engine.stats.objects_tested
        engine.kill_replica(0, 0)
        for i in range(4, 8):
            engine.query(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        engine.recover_replica(0, 0)
        # The recalibration around recovery must keep the engine's
        # cumulative counters monotone (no negative deltas).
        engine.sync_shard_work()
        assert engine.stats.objects_tested >= before
        for i in range(8, 12):
            engine.query(_window((0.0, 0.0), (9.0, 9.0), seq=i))
        assert engine.stats.objects_tested >= before

"""Unit tests for the sharding subsystem (partitioners, engine, executor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, DatasetError
from repro.geometry import Box
from repro.index import SpatialIndex
from repro.queries import RangeQuery, uniform_workload
from repro.sharding import (
    PARTITIONERS,
    QueryExecutor,
    RoundRobinPartitioner,
    STRPartitioner,
    ShardedIndex,
    make_partitioner,
)


def _grid_store(side: int = 10, spacing: float = 10.0) -> BoxStore:
    """A side x side grid of unit boxes (2-d), ids row-major."""
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    lo = np.stack([xs.ravel() * spacing, ys.ravel() * spacing], axis=1).astype(float)
    return BoxStore(lo, lo + 1.0)


def _window(lo, hi, seq=0) -> RangeQuery:
    return RangeQuery(Box(tuple(lo), tuple(hi)), seq=seq)


# ----------------------------------------------------------------------
# Partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_registry_and_factory(self):
        assert set(PARTITIONERS) == {"str", "round-robin"}
        assert isinstance(make_partitioner("str"), STRPartitioner)
        p = RoundRobinPartitioner()
        assert make_partitioner(p) is p
        with pytest.raises(ConfigurationError, match="unknown partitioner"):
            make_partitioner("hash")

    @pytest.mark.parametrize("name", sorted(PARTITIONERS))
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_assign_is_total_and_balanced(self, name, k):
        store = _grid_store(10)
        owners = make_partitioner(name).assign(store.lo, store.hi, k)
        assert owners.shape == (store.n,)
        assert owners.min() >= 0 and owners.max() < k
        counts = np.bincount(owners, minlength=k)
        assert counts.sum() == store.n
        # Near-equal split: no shard more than one tile's worth off.
        assert counts.max() - counts.min() <= max(2, store.n // k // 2)

    def test_str_tiles_are_spatially_compact(self):
        store = _grid_store(10)
        owners = STRPartitioner().assign(store.lo, store.hi, 4)
        # 4 shards over a 10x10 grid of boxes: each shard's MBB should
        # cover ~1/4 of the area, far less than the whole universe.
        for sid in range(4):
            rows = np.flatnonzero(owners == sid)
            span = store.lo[rows].max(axis=0) - store.lo[rows].min(axis=0)
            assert span.prod() <= 0.35 * (90.0 * 90.0)

    def test_str_assign_more_shards_than_rows(self):
        store = _grid_store(2)  # 4 rows
        owners = STRPartitioner().assign(store.lo, store.hi, 7)
        assert np.unique(owners).size == 4  # some shards stay empty

    def test_round_robin_route_rotates(self):
        p = RoundRobinPartitioner()
        lo = np.zeros((5, 2))
        hi = np.ones((5, 2))
        mbb_lo = np.zeros((3, 2))
        mbb_hi = np.ones((3, 2))
        loads = np.zeros(3, dtype=np.int64)
        first = p.route(lo, hi, mbb_lo, mbb_hi, loads)
        second = p.route(lo, hi, mbb_lo, mbb_hi, loads)
        assert first.tolist() == [0, 1, 2, 0, 1]
        assert second.tolist() == [2, 0, 1, 2, 0]

    def test_str_route_prefers_containing_shard(self):
        p = STRPartitioner()
        mbb_lo = np.array([[0.0, 0.0], [100.0, 0.0]])
        mbb_hi = np.array([[50.0, 50.0], [150.0, 50.0]])
        loads = np.array([10, 10], dtype=np.int64)
        lo = np.array([[120.0, 10.0]])
        hi = np.array([[121.0, 11.0]])
        assert p.route(lo, hi, mbb_lo, mbb_hi, loads).tolist() == [1]

    def test_str_route_breaks_ties_toward_least_loaded(self):
        p = STRPartitioner()
        # Identical shard MBBs: enlargement ties, load decides.
        mbb_lo = np.zeros((3, 2))
        mbb_hi = np.full((3, 2), 50.0)
        loads = np.array([9, 2, 5], dtype=np.int64)
        lo = np.array([[10.0, 10.0]])
        hi = np.array([[11.0, 11.0]])
        assert p.route(lo, hi, mbb_lo, mbb_hi, loads).tolist() == [1]


# ----------------------------------------------------------------------
# ShardedIndex
# ----------------------------------------------------------------------
class TestShardedIndex:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError, match="n_shards"):
            ShardedIndex(_grid_store(), n_shards=0)

    def test_query_before_build_raises(self):
        engine = ShardedIndex(_grid_store(), n_shards=2)
        with pytest.raises(ConfigurationError, match="build"):
            engine.query(_window((0.0, 0.0), (5.0, 5.0)))

    def test_pruning_counters(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4, partitioner="str")
        engine.build()
        # A query covering one corner tile: 1 visit, 3 pruned.
        hits = engine.query(_window((0.0, 0.0), (5.0, 5.0)))
        assert hits.size > 0
        assert engine.stats.shards_visited == 1
        assert engine.stats.shards_pruned == 3
        # A full-universe query visits everything.
        engine.query(_window((-1.0, -1.0), (95.0, 95.0), seq=1))
        assert engine.stats.shards_visited == 1 + 4
        assert engine.stats.shards_pruned == 3

    def test_empty_shards_are_pruned(self):
        store = _grid_store(2)  # 4 rows
        engine = ShardedIndex(store, n_shards=6, partitioner="str")
        engine.build()
        engine.query(_window((-1.0, -1.0), (25.0, 25.0)))
        assert engine.stats.shards_visited == 4
        assert engine.stats.shards_pruned == 2

    def test_ownership_routing_insert_and_delete(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4, partitioner="str")
        engine.build()
        sizes_before = engine.shard_sizes()
        # Insert a box deep inside one corner tile.
        new = engine.insert(np.array([[2.0, 2.0]]), np.array([[3.0, 3.0]]))
        sid = engine.owner_of(int(new[0]))
        # shard_sizes counts *owned* rows, so the insert shows up even
        # while it is still buffered in the shard index.
        assert engine.shard_sizes()[sid] == sizes_before[sid] + 1
        # The owning shard is the one whose tile contains the box.
        probe = engine.query(_window((1.5, 1.5), (3.5, 3.5)))
        assert int(new[0]) in probe
        # Delete routes to that shard and clears ownership.
        assert engine.delete(new) == 1
        with pytest.raises(DatasetError, match="not live"):
            engine.owner_of(int(new[0]))
        assert int(new[0]) not in engine.query(_window((1.5, 1.5), (3.5, 3.5), seq=2))

    def test_insert_expands_owner_mbb_for_pruning(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4, partitioner="str")
        engine.build()
        # Far outside every tile: still must be routed, owned, and found
        # even while buffered (MBB expands immediately).
        new = engine.insert(np.array([[500.0, 500.0]]), np.array([[501.0, 501.0]]))
        hits = engine.query(_window((499.0, 499.0), (502.0, 502.0)))
        assert np.array_equal(np.sort(hits), np.sort(new))

    def test_delete_unknown_id_raises_and_changes_nothing(self):
        engine = ShardedIndex(_grid_store(4), n_shards=2)
        engine.build()
        before = engine.store.live_count
        with pytest.raises(DatasetError, match="not live"):
            engine.delete(np.array([999]))
        assert engine.store.live_count == before
        engine.validate_routing()

    def test_insert_colliding_live_id_rejected(self):
        engine = ShardedIndex(_grid_store(4), n_shards=2)
        engine.build()
        new = engine.insert(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        with pytest.raises(DatasetError, match="collide"):
            engine.insert(np.array([[5.0, 5.0]]), np.array([[6.0, 6.0]]), ids=new)

    def test_pre_build_updates_flow_into_partitioning(self):
        store = _grid_store(4)
        engine = ShardedIndex(store, n_shards=2)
        new = engine.insert(np.array([[70.0, 70.0]]), np.array([[71.0, 71.0]]))
        engine.delete(new)
        engine.build()
        engine.validate_routing()
        full = engine.query(_window((-1.0, -1.0), (100.0, 100.0)))
        assert full.size == 16  # 4x4 grid, insert+delete cancelled out

    def test_merge_deduplicates(self):
        a = np.array([3, 1, 7], dtype=np.int64)
        b = np.array([7, 2], dtype=np.int64)
        merged = ShardedIndex._merge([a, b])
        assert merged.tolist() == [1, 2, 3, 7]
        # Single contributing shard passes through unsorted and uncopied.
        assert ShardedIndex._merge([a]) is a
        assert ShardedIndex._merge([]).size == 0

    def test_immutable_factory_supports_queries_but_rejects_updates(self):
        class FrozenScan(SpatialIndex):
            name = "FrozenScan"

            def _candidates(self, query):
                return None  # refine tests the whole store in place

        engine = ShardedIndex(
            _grid_store(4), n_shards=2, index_factory=FrozenScan
        )
        engine.build()
        assert engine.query(_window((-1.0, -1.0), (100.0, 100.0))).size == 16
        with pytest.raises(ConfigurationError, match="does not support"):
            engine.insert(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        with pytest.raises(ConfigurationError, match="does not support"):
            engine.delete(np.array([0]))
        # The rejected updates never touched the ingest mirror: the
        # engine keeps serving instead of failing epoch checks.
        assert engine.store.epoch == 0
        assert engine.query(_window((-1.0, -1.0), (100.0, 100.0), seq=1)).size == 16

    def test_factory_must_use_given_store(self):
        other = _grid_store(3)
        engine = ShardedIndex(
            _grid_store(4), n_shards=2, index_factory=lambda s: ScanIndex(other)
        )
        with pytest.raises(ConfigurationError, match="shard store"):
            engine.build()

    def test_fleet_work_counters_roll_up(self):
        engine = ShardedIndex(
            _grid_store(10),
            n_shards=4,
            index_factory=lambda s: QuasiiIndex(s, QuasiiConfig(2, (8, 4))),
        )
        engine.build()
        engine.query(_window((-1.0, -1.0), (95.0, 95.0)))
        assert engine.stats.objects_tested > 0
        assert engine.stats.cracks > 0
        # Insert enough to trigger a shard-level lazy merge on next query.
        engine.insert(np.array([[2.0, 2.0]] * 3), np.array([[3.0, 3.0]] * 3))
        engine.query(_window((-1.0, -1.0), (95.0, 95.0), seq=1))
        assert engine.stats.merges >= 1
        # Roll-up survives an outer reset without double counting.
        engine.stats.reset()
        engine.sync_shard_work()
        assert engine.stats.merges == 0

    def test_balance_factor_and_memory(self):
        engine = ShardedIndex(_grid_store(10), n_shards=4)
        engine.build()
        assert engine.balance_factor() == pytest.approx(1.0, abs=0.2)
        assert engine.memory_bytes() > 0

    def test_out_of_band_store_mutation_fails_loudly(self):
        engine = ShardedIndex(_grid_store(4), n_shards=2)
        engine.build()
        engine.store.append(np.array([[1.0, 1.0]]), np.array([[2.0, 2.0]]))
        with pytest.raises(Exception, match="epoch"):
            engine.query(_window((0.0, 0.0), (5.0, 5.0)))


# ----------------------------------------------------------------------
# QueryExecutor
# ----------------------------------------------------------------------
class TestQueryExecutor:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_uniform(5_000, seed=3)

    def _engine(self, dataset, **kw):
        kw.setdefault("n_shards", 4)
        return ShardedIndex(dataset.store.copy(), **kw)

    def test_rejects_negative_workers(self, dataset):
        with pytest.raises(ConfigurationError, match="max_workers"):
            QueryExecutor(self._engine(dataset), max_workers=-1)

    def test_default_workers_capped_by_shards(self, dataset):
        ex = QueryExecutor(self._engine(dataset, n_shards=2))
        assert 1 <= ex.max_workers <= 2

    def test_parallel_matches_sequential_and_scan(self, dataset):
        queries = uniform_workload(dataset.universe, 40, 1e-3, seed=5)
        scan = ScanIndex(dataset.store.copy())
        expected = [np.sort(scan.query(q)) for q in queries]
        seq = QueryExecutor(self._engine(dataset), max_workers=1).run(queries)
        with QueryExecutor(
            self._engine(dataset), max_workers=2, backend="processes"
        ) as ex:
            par = ex.run(queries)
        assert seq.mode == "sequential" and par.mode == "processes"
        for got_s, got_p, want in zip(seq.results, par.results, expected):
            assert np.array_equal(np.sort(got_s), want)
            assert np.array_equal(np.sort(got_p), want)
        assert par.n_queries == len(queries)
        assert sum(par.shard_queries) >= len(queries)

    def test_parallel_counters_match_sequential(self, dataset):
        queries = uniform_workload(dataset.universe, 25, 1e-3, seed=6)
        e_seq = self._engine(dataset)
        e_par = self._engine(dataset)
        QueryExecutor(e_seq, max_workers=1).run(queries)
        with QueryExecutor(e_par, max_workers=2, backend="processes") as ex:
            ex.run(queries)
        assert e_par.stats.queries == e_seq.stats.queries == len(queries)
        assert e_par.stats.shards_visited == e_seq.stats.shards_visited
        assert e_par.stats.shards_pruned == e_seq.stats.shards_pruned
        assert e_par.stats.results_returned == e_seq.stats.results_returned

    def test_builds_engine_on_first_use(self, dataset):
        engine = self._engine(dataset)
        assert not engine.is_built
        result = QueryExecutor(engine, max_workers=2).run(
            uniform_workload(dataset.universe, 3, 1e-3, seed=7)
        )
        assert engine.is_built
        assert result.n_queries == 3

    def test_parallel_rejects_wrong_dimension_queries(self, dataset):
        from repro.errors import QueryError

        bad = RangeQuery(Box((0.0,), (1.0,)), seq=0)
        with pytest.raises(QueryError, match="dims"):
            QueryExecutor(self._engine(dataset), max_workers=4).run([bad])

    def test_empty_batch(self, dataset):
        result = QueryExecutor(self._engine(dataset), max_workers=2).run([])
        assert result.n_queries == 0
        assert result.throughput() == float("inf") or result.seconds >= 0

    def test_quasii_shards_stay_structurally_valid_after_parallel_run(
        self, dataset
    ):
        engine = ShardedIndex(
            dataset.store.copy(),
            n_shards=4,
            index_factory=lambda s: QuasiiIndex(s, tau=16),
        )
        # Pinned inline: the point is that the *driver-side* shard indexes
        # crack and stay valid (the process backend cracks worker-local
        # indexes instead).
        QueryExecutor(engine, max_workers=4, backend="sequential").run(
            uniform_workload(dataset.universe, 30, 1e-2, seed=8)
        )
        for shard in engine.shards:
            shard.index.validate_structure()

    @pytest.mark.parametrize("backend", ["sequential", "processes"])
    def test_parallel_exposes_shard_and_phase_timings(self, dataset, backend):
        queries = uniform_workload(dataset.universe, 40, 1e-3, seed=9)
        # Every backend runs the engine's one pipeline, so every backend
        # owes the same per-shard and phase timings.
        with QueryExecutor(
            self._engine(dataset), max_workers=2, backend=backend
        ) as ex:
            par = ex.run(queries)
        assert par.mode == backend
        assert len(par.shard_seconds) == 4
        # Every shard that received a sub-batch self-timed its work.
        for sid, n in enumerate(par.shard_queries):
            if n:
                assert par.shard_seconds[sid] > 0.0
            else:
                assert par.shard_seconds[sid] == 0.0
        assert sum(par.shard_queries) >= len(queries)
        # Phase timings tile the batch: route -> fan-out -> merge.
        assert par.route_seconds > 0.0
        assert par.fanout_seconds > 0.0
        assert par.merge_seconds > 0.0
        phases = par.route_seconds + par.fanout_seconds + par.merge_seconds
        assert phases == pytest.approx(par.seconds, rel=0.05)
        # Shard self-timing excludes dispatch, so each shard's clock fits
        # inside the fan-out phase that contains it.
        assert max(par.shard_seconds) <= par.fanout_seconds * 1.05

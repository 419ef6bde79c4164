"""Unit tests for the process-parallel serving tier (``repro.parallel``).

Covers the four layers of the subsystem:

* segments — publish/attach round trips preserve the live multiset,
  views are genuinely zero-copy, destroy unlinks the OS object;
* the wire — query/result codecs across the full predicate/mode
  matrix, including the ``None`` payloads of count-mode results;
* backend resolution — explicit argument vs ``QUASII_EXECUTOR_BACKEND``
  vs the sequential default, and the replicated-engine guard;
* the serving pool — oracle parity through the executor (including
  across epoch bumps), telemetry golden-equivalence with the inline
  backend, worker SIGKILL recovery, and shared-memory cleanup.
"""

from __future__ import annotations

import os
import signal
import time
from multiprocessing.shared_memory import SharedMemory

import numpy as np
import pytest

from repro.baselines import ScanIndex
from repro.datasets import BoxStore, make_uniform
from repro.errors import ConfigurationError, ParallelError
from repro.geometry import Box
from repro.parallel import (
    ProcessPool,
    SegmentSpec,
    ShardSegment,
    SharedStoreView,
    decode_queries,
    decode_results,
    encode_queries,
    encode_results,
    publish_segment,
    resolve_start_method,
    segment_nbytes,
)
from repro.parallel.pool import START_METHOD_ENV
from repro.queries import Query, uniform_workload
from repro.sharding import QueryExecutor, ShardedIndex
from repro.sharding.executor import BACKEND_ENV
from repro.sharding.replication import ReplicatedShardedIndex
from repro.telemetry import Telemetry
from repro.telemetry.events import EventLog
from repro.telemetry.naming import (
    BATCH_FANOUT_SECONDS,
    BATCH_MERGE_SECONDS,
    BATCH_ROUTE_SECONDS,
    QUERY_SECONDS,
    SHARD_BATCH_SECONDS,
    WORKER_BATCH_SECONDS,
    WORKER_QUERY_SECONDS,
)


def _store(n: int = 50, ndim: int = 2, seed: int = 0) -> BoxStore:
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 100, size=(n, ndim))
    return BoxStore(lo, lo + rng.uniform(0.1, 5, size=(n, ndim)))


def _query_matrix(ndim: int = 2, span: float = 100.0) -> list[Query]:
    """One query per legal (predicate, mode) combination, inside ``span``."""
    queries: list[Query] = []
    seq = 0
    for predicate in ("intersects", "within", "contains"):
        for mode in ("ids", "boxes", "count"):
            lo = (0.1 * span + seq,) * ndim
            hi = (0.6 * span + seq,) * ndim
            queries.append(
                Query(Box(lo, hi), predicate=predicate, mode=mode, seq=seq)
            )
            seq += 1
        queries.append(
            Query(
                Box((0.05 * span,) * ndim, (0.9 * span,) * ndim),
                predicate=predicate,
                mode="top_k",
                k=3,
                seq=seq,
            )
        )
        seq += 1
    point = (0.5 * span,) * ndim
    queries.append(
        Query(Box(point, point), predicate="covers_point", mode="ids", seq=seq)
    )
    return queries


# ----------------------------------------------------------------------
# Segments
# ----------------------------------------------------------------------
class TestSegments:
    def test_publish_attach_roundtrip_preserves_live_multiset(self):
        store = _store(40)
        store.delete_ids(np.arange(0, 40, 3, dtype=np.int64))
        spec, shm = publish_segment(store, sid=7, version=2)
        try:
            assert spec.sid == 7 and spec.version == 2
            assert spec.n_rows == store.live_count
            assert spec.epoch == store.epoch
            # A same-process attach shares this process's (sole) resource
            # tracker registration, so it must be left alone: tracker_shared.
            view = SharedStoreView.attach(spec, tracker_shared=True)
            try:
                assert view.store.n == store.live_count
                assert view.store.live_count == view.store.n
                assert view.live_fingerprint() == store.live_fingerprint()
            finally:
                view.close()
        finally:
            shm.close()
            shm.unlink()

    def test_view_is_zero_copy_over_the_mapping(self):
        store = _store(16)
        spec, shm = publish_segment(store, sid=0, version=0)
        view = SharedStoreView(spec, shm)
        backing = np.frombuffer(shm.buf, dtype=np.uint8)
        assert np.shares_memory(view.store.lo, backing)
        assert np.shares_memory(view.store.hi, backing)
        assert np.shares_memory(view.store.ids, backing)
        # Release our raw view of the buffer before closing the mapping —
        # mmap refuses to close while exported pointers exist.
        del backing
        view.close()
        shm.unlink()

    def test_empty_snapshot_is_representable(self):
        store = _store(5)
        store.delete_ids(store.ids.copy())
        spec, shm = publish_segment(store, sid=1, version=0)
        try:
            assert spec.n_rows == 0
            view = SharedStoreView.attach(spec, tracker_shared=True)
            try:
                assert view.store.n == 0
            finally:
                view.close()
        finally:
            shm.close()
            shm.unlink()

    def test_attach_rejects_undersized_segment(self):
        store = _store(8)
        spec, shm = publish_segment(store, sid=0, version=0)
        try:
            lying = SegmentSpec(
                name=spec.name,
                sid=spec.sid,
                version=spec.version,
                n_rows=spec.n_rows * 100,
                ndim=spec.ndim,
                epoch=spec.epoch,
            )
            with pytest.raises(ParallelError, match="bytes"):
                SharedStoreView.attach(lying, tracker_shared=True)
        finally:
            shm.close()
            shm.unlink()

    def test_destroy_unlinks_the_os_object(self):
        store = _store(8)
        spec, shm = publish_segment(store, sid=0, version=0)
        segment = ShardSegment(spec, shm, shard_token=object())
        segment.destroy()
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=spec.name, create=False)

    def test_segment_nbytes_matches_layout(self):
        assert segment_nbytes(0, 3) == 0
        # lo + hi (float64) and ids (int64) per row.
        assert segment_nbytes(10, 3) == 10 * (2 * 3 * 8 + 8)


# ----------------------------------------------------------------------
# The wire
# ----------------------------------------------------------------------
class TestWire:
    def test_query_roundtrip_across_predicates_and_modes(self):
        queries = _query_matrix()
        decoded = decode_queries(encode_queries(queries))
        assert len(decoded) == len(queries)
        for want, got in zip(queries, decoded):
            assert got.predicate == want.predicate
            assert got.mode == want.mode
            assert got.k == want.k
            assert got.seq == want.seq
            assert got.window.lo == want.window.lo
            assert got.window.hi == want.window.hi

    def test_empty_sub_batch_is_rejected(self):
        with pytest.raises(ParallelError, match="empty"):
            encode_queries([])

    def test_corrupt_codes_fail_loudly(self):
        wire = encode_queries(_query_matrix())
        wire.predicates[0] = 200
        with pytest.raises(ParallelError, match="corrupt"):
            decode_queries(wire)

    def test_result_roundtrip_restores_per_mode_payloads(self):
        store = _store(60, seed=3)
        index = ScanIndex(store)
        queries = _query_matrix()
        results = index.execute_batch(queries)
        decoded = decode_results(
            encode_results(results, store.ndim), queries
        )
        assert len(decoded) == len(results)
        for want, got in zip(results, decoded):
            assert got.query == want.query
            assert got.count == want.count
            assert got.seconds == pytest.approx(want.seconds)
            if want.query.mode == "count":
                assert got.ids is None and got.boxes is None
            else:
                assert np.array_equal(got.ids, want.ids)
            if want.query.mode in ("boxes", "top_k"):
                assert np.array_equal(got.boxes[0], want.boxes[0])
                assert np.array_equal(got.boxes[1], want.boxes[1])
            elif want.query.mode == "ids":
                assert got.boxes is None


# ----------------------------------------------------------------------
# Backend resolution
# ----------------------------------------------------------------------
class TestBackendResolution:
    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        # The CI matrix exports QUASII_EXECUTOR_BACKEND; resolution rules
        # are this class's subject, so start every test from a clean slate.
        monkeypatch.delenv(BACKEND_ENV, raising=False)

    def _engine(self, **kw):
        kw.setdefault("n_shards", 4)
        return ShardedIndex(make_uniform(500, seed=1).store.copy(), **kw)

    def test_worker_count_default(self):
        # Without an argument or env request, every worker count serves
        # inline: max_workers only sizes the process pool.
        for workers in (None, 0, 1, 3):
            assert (
                QueryExecutor(self._engine(), max_workers=workers).backend
                == "sequential"
            )

    def test_env_widens_parallel_executors_only(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes")
        assert (
            QueryExecutor(self._engine(), max_workers=4).backend
            == "processes"
        )
        # A deliberate single-worker executor keeps its sequential contract.
        assert (
            QueryExecutor(self._engine(), max_workers=1).backend
            == "sequential"
        )

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes")
        ex = QueryExecutor(self._engine(), max_workers=4, backend="sequential")
        assert ex.backend == "sequential"

    def test_unknown_backend_names_its_source(self, monkeypatch):
        # "threads" was a backend once; it must fail loudly, not resolve.
        for name in ("fibers", "threads"):
            with pytest.raises(ConfigurationError, match="backend argument"):
                QueryExecutor(self._engine(), max_workers=2, backend=name)
            monkeypatch.setenv(BACKEND_ENV, name)
            with pytest.raises(ConfigurationError, match=BACKEND_ENV):
                QueryExecutor(self._engine(), max_workers=2)
            monkeypatch.delenv(BACKEND_ENV)

    def test_replicated_engine_rejects_explicit_processes(self):
        engine = ReplicatedShardedIndex(
            make_uniform(500, seed=1).store.copy(), n_shards=2, replication=2
        )
        with pytest.raises(ConfigurationError, match="Replicated"):
            QueryExecutor(engine, max_workers=2, backend="processes")

    def test_replicated_engine_downgrades_env_processes(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "processes")
        engine = ReplicatedShardedIndex(
            make_uniform(500, seed=1).store.copy(), n_shards=2, replication=2
        )
        assert QueryExecutor(engine, max_workers=2).backend == "sequential"

    def test_start_method_resolution(self, monkeypatch):
        monkeypatch.delenv(START_METHOD_ENV, raising=False)
        assert resolve_start_method() in ("fork", "spawn", "forkserver")
        with pytest.raises(ConfigurationError, match="start method"):
            resolve_start_method("osthreads")
        monkeypatch.setenv(START_METHOD_ENV, "nope")
        with pytest.raises(ConfigurationError, match="start method"):
            resolve_start_method()


# ----------------------------------------------------------------------
# The serving pool, through the executor
# ----------------------------------------------------------------------
class TestProcessBackend:
    @pytest.fixture(scope="class")
    def dataset(self):
        return make_uniform(4_000, seed=11)

    def _engine(self, dataset, **kw):
        kw.setdefault("n_shards", 4)
        return ShardedIndex(dataset.store.copy(), **kw)

    def test_pool_rejects_zero_workers(self, dataset):
        engine = self._engine(dataset)
        engine.build()
        with pytest.raises(ConfigurationError, match="n_workers"):
            ProcessPool(engine, n_workers=0)

    def test_parity_with_oracle_across_modes_and_epochs(self, dataset):
        queries = _query_matrix(ndim=3, span=10_000.0) + list(
            uniform_workload(dataset.universe, 20, 1e-3, seed=2)
        )
        scan = ScanIndex(dataset.store.copy())
        engine = self._engine(dataset)
        events = EventLog()

        def check(batch):
            for q, result in zip(queries, batch.query_results):
                want = scan.execute(q)
                assert result.count == want.count
                if result.query.mode != "count":
                    assert np.array_equal(
                        np.sort(result.ids), np.sort(want.ids)
                    )

        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            out = ex.run(queries)
            assert out.mode == "processes"
            assert out.workers == 2
            check(out)
            # Mutations bump the store epoch; the next batch must
            # republish segments and still agree with the oracle.
            rng = np.random.default_rng(5)
            blo = rng.uniform(0, 9_000, size=(30, 3))
            bhi = blo + rng.uniform(1, 50, size=(30, 3))
            assert np.array_equal(
                engine.insert(blo, bhi), scan.insert(blo, bhi)
            )
            victims = dataset.store.ids[:40].copy()
            assert engine.delete(victims) == scan.delete(victims) == 40
            refreshes_before = len(events.recent("worker.refresh"))
            check(ex.run(queries))
            assert len(events.recent("worker.refresh")) > refreshes_before

    def test_telemetry_matches_thread_backend(self, dataset):
        queries = uniform_workload(dataset.universe, 30, 1e-3, seed=3)
        runs = {}
        for backend in ("sequential", "processes"):
            engine = self._engine(dataset)
            telemetry = Telemetry()
            with QueryExecutor(
                engine, max_workers=2, backend=backend, telemetry=telemetry
            ) as ex:
                ex.run(queries)
            runs[backend] = (engine.stats, telemetry.registry)
        seq_stats, seq_reg = runs["sequential"]
        prc_stats, prc_reg = runs["processes"]
        # Routing and result accounting are driver-side on both paths.
        assert prc_stats.queries == seq_stats.queries == len(queries)
        assert prc_stats.shards_visited == seq_stats.shards_visited
        assert prc_stats.shards_pruned == seq_stats.shards_pruned
        assert prc_stats.results_returned == seq_stats.results_returned
        # Worker-side crack work folds back into the same counters: the
        # worker indexes see identical snapshots and identical sub-batches,
        # so the fleet-wide work totals must agree with the inline path.
        assert prc_stats.objects_tested == seq_stats.objects_tested
        # Driver histograms are the same on both paths — per query, per
        # shard sub-batch, and per phase; worker.* is the process tier's
        # own vocabulary, absorbed after each batch.
        for name in (
            QUERY_SECONDS,
            SHARD_BATCH_SECONDS,
            BATCH_ROUTE_SECONDS,
            BATCH_FANOUT_SECONDS,
            BATCH_MERGE_SECONDS,
        ):
            assert (
                prc_reg.histograms()[name].count
                == seq_reg.histograms()[name].count
                > 0
            )
        assert prc_reg.histograms()[WORKER_BATCH_SECONDS].count > 0
        assert prc_reg.histograms()[WORKER_QUERY_SECONDS].count > 0
        assert WORKER_BATCH_SECONDS not in seq_reg.histograms()

    def test_sigkilled_worker_respawns_and_batch_completes(self, dataset):
        queries = uniform_workload(dataset.universe, 15, 1e-3, seed=4)
        scan = ScanIndex(dataset.store.copy())
        expected = [np.sort(scan.query(q)) for q in queries]
        engine = self._engine(dataset)
        events = EventLog()
        with QueryExecutor(
            engine, max_workers=2, backend="processes", events=events
        ) as ex:
            first = ex.run(queries)
            for got, want in zip(first.results, expected):
                assert np.array_equal(np.sort(got), want)
            pool = ex._pool
            victim = pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while (
                pool._workers[0].is_alive() and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            second = ex.run(queries)
            for got, want in zip(second.results, expected):
                assert np.array_equal(np.sort(got), want)
            respawns = events.recent("worker.respawn")
            assert len(respawns) == 1
            assert respawns[0].payload["old_pid"] == victim
            assert pool.worker_pids[0] != victim

    def test_close_leaves_no_shared_memory_behind(self, dataset):
        engine = self._engine(dataset)
        ex = QueryExecutor(engine, max_workers=2, backend="processes")
        ex.run(uniform_workload(dataset.universe, 5, 1e-3, seed=6))
        pool = ex._pool
        names = [seg.spec.name for seg in pool._segments.values()]
        workers = list(pool._workers)
        assert names, "a served batch must have published segments"
        ex.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name, create=False)
        for worker in workers:
            assert not worker.is_alive()
        assert ex._pool is None
        # close() is idempotent.
        ex.close()

    def test_pool_refuses_batches_after_close(self, dataset):
        engine = self._engine(dataset)
        engine.build()
        pool = ProcessPool(engine, n_workers=1)
        pool.close()
        query = Query(Box((0.0,) * 3, (1.0,) * 3))
        with pytest.raises(ParallelError, match="close"):
            pool.run_batch([query], {0: [0]})

    def test_empty_batch_through_processes(self, dataset):
        with QueryExecutor(
            self._engine(dataset), max_workers=2, backend="processes"
        ) as ex:
            out = ex.run([])
            assert out.n_queries == 0

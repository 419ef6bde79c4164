"""The benchmark's workloads: ``explore``, ``serve`` and ``ingest``.

Each workload runs in one process as a closed loop with one client:
the next call is issued only after the previous one returns.  A run is
a sequence of *rounds*.  Round ``r`` draws its inputs from
``(seed, r)``, sets the engine up from the generated arrays (timed as
``setup_s``), runs the measured loop, and checks the answers against a
Scan oracle outside the timed region.

Only the public ``repro`` API is called.  The seed makes every input:
the program receives generated arrays and queries, never the seed.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from dataclasses import dataclass, field
from multiprocessing import active_children
from typing import Any, Callable, Iterator

import numpy as np

from perfbench.common import Samples, count_mismatches, same_ids
from perfbench.tracing import WORKER_HIST_PREFIX, SpanRecorder

_NULL = contextlib.nullcontext()


@dataclass(frozen=True)
class Sizes:
    """Input sizes and run shape of every workload.

    ``*_rounds`` is the least number of rounds a run makes; it makes more
    until ``--seconds`` of loop time are measured.  ``*_cold_starts`` is
    the number of throwaway set-ups per round that are timed up to their
    first answer, each with a different first query.  ``*_probe_every``
    spaces the write probe of the read-only workloads: one insert and
    one delete call after every that many query calls.
    """

    volume_fraction: float = 1e-4
    write_batch: int = 16
    # explore: a fresh single QUASII index, clustered exploration queries
    explore_rounds: int = 3
    explore_n: int = 1_000_000
    explore_clusters: int = 40
    explore_per_cluster: int = 50
    explore_cold_starts: int = 4
    explore_checked: int = 48
    explore_probe_every: int = 10
    # serve: 4-shard STR engine on the process backend, hotspot batches
    serve_rounds: int = 3
    serve_n: int = 500_000
    serve_shards: int = 4
    serve_batch: int = 16
    serve_hotspots: int = 8
    serve_warmup: int = 128
    serve_stream: int = 1024
    serve_cold_starts: int = 2
    serve_checked: int = 160
    serve_probe_every: int = 2
    # ingest: 4-shard engine with maintenance, drifting hotspot + writes
    ingest_rounds: int = 8
    ingest_n: int = 200_000
    ingest_shards: int = 4
    ingest_ops: int = 400
    ingest_batch: int = 16
    ingest_insert_every: int = 3
    ingest_insert_batch: int = 64
    ingest_delete_every: int = 20
    ingest_delete_batch: int = 2500
    ingest_check_fraction: float = 0.3
    ingest_cold_starts: int = 3


#: A small configuration for the benchmark's own tests.
TINY = Sizes(
    volume_fraction=1e-3,
    explore_rounds=1,
    explore_n=20_000,
    explore_clusters=3,
    explore_per_cluster=20,
    explore_cold_starts=2,
    explore_checked=10,
    explore_probe_every=5,
    serve_rounds=1,
    serve_n=20_000,
    serve_hotspots=2,
    serve_warmup=16,
    serve_stream=64,
    serve_checked=10,
    serve_probe_every=2,
    ingest_rounds=1,
    ingest_n=20_000,
    ingest_ops=120,
    ingest_delete_every=15,
    ingest_delete_batch=600,
    ingest_check_fraction=1.0,
    ingest_cold_starts=2,
)

#: The maintenance policy of the ``ingest`` workload (the soak's policy).
INGEST_POLICY = dict(
    check_every=16,
    dead_fraction=0.15,
    max_balance=1.2,
    max_query_skew=2.5,
    min_queries=16,
)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One pass over a workload: its samples and, when traced, its spans."""

    samples: Samples = field(default_factory=Samples)
    recorder: SpanRecorder | None = None

    def span(self, name: str) -> Any:
        return self.recorder.span(name) if self.recorder is not None else _NULL

    def trace(self, on: bool) -> None:
        if self.recorder is not None:
            self.recorder.enabled = on

    def call(self, span: str, fn: Callable[[], Any], ops: int) -> tuple[Any, float]:
        """Time one client call inside a span: ``(result or None, seconds)``.

        A call that raises counts ``ops`` failed ops and returns ``None``;
        the run goes on, because the error rate is what it reports.
        """
        with self.span(span):
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                out = None
                self.samples.raised += ops
            return out, time.perf_counter() - t0


def _seed(*parts: int) -> int:
    """One integer seed derived from several (workload seed, round, ...)."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _record_stats(s: Samples, delta: Any) -> None:
    for name in (
        "queries",
        "objects_tested",
        "results_returned",
        "nodes_visited",
        "cracks",
        "rows_reorganized",
        "merges",
        "shards_visited",
        "shards_pruned",
    ):
        s.add_count(name, float(getattr(delta, name)))


def _probe_boxes(universe: Any, seed: int, k: int, count: int = 64) -> list[tuple]:
    """Small boxes for the write probe: ``count`` batches of ``k``."""
    rng = np.random.default_rng(_seed(seed, 91))
    lo_u = np.asarray(universe.lo)
    hi_u = np.asarray(universe.hi)
    out = []
    for _ in range(count):
        centers = rng.uniform(lo_u, hi_u, size=(k, lo_u.size))
        half = rng.uniform(0.5, 5.0, size=(k, lo_u.size))
        lo = np.maximum(centers - half, lo_u)
        hi = np.maximum(np.minimum(centers + half, hi_u), lo)
        out.append((lo, hi))
    return out


def _probe_pair(p: Pass, index: Any, box: tuple, s: Samples) -> float:
    """Time one insert call and one delete call of the same small batch.

    The write probe of the read-only workloads.  The delete removes the
    batch the insert just added, so the live set, the shard buffers and
    the shard store epochs are as they were; the next query sees no
    change.  Not traced, so it does not show in the layers of the read
    path.  Returns the seconds spent, which the caller leaves out of its
    loop time.
    """
    lo, hi = box
    p.trace(False)
    s.attempted += 2
    t0 = time.perf_counter()
    try:
        ids = index.insert(lo, hi)
        t1 = time.perf_counter()
        removed = index.delete(ids)
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        s.raised += 2
        p.trace(True)
        return time.perf_counter() - t0
    t2 = time.perf_counter()
    p.trace(True)
    s.write_calls += [t1 - t0, t2 - t1]
    s.verified += 2
    if ids.size != lo.shape[0] or removed != ids.size:
        s.mismatched += 1
    return t2 - t0


# ----------------------------------------------------------------------
# explore
# ----------------------------------------------------------------------
class Explore:
    """A fresh QUASII index answering clustered exploration queries.

    The paper's interactive-exploration scenario: no build step, each
    query refines the index.  Early queries of every cluster crack;
    later ones descend a converged hierarchy.  Every round starts a new
    index and explores new clusters.  Cluster centres are drawn from the
    objects themselves (exploration happens where the data is): drawn
    uniformly in the universe, most would land in the near-empty
    background of this skewed dataset, and a run's cost would hinge on
    how many of its few centres hit a dense region.

    The dataset is one fixed dataset, like the paper's single brain
    model; the seed draws the queries.  Each generated dataset draws the
    spread of its densest cluster (about a quarter of the objects) from
    100 to 600 units, a 200-fold range in density, and the median query
    cost differed by up to 1.7x between seeds.
    """

    name = "explore"
    #: Percentiles reported as ``query_p99_ms`` / ``write_p99_ms``.
    tail = {"query": 99.0, "write": 99.0}
    #: Seed of the fixed dataset.
    data_seed = 0

    def __init__(self, seed: int, sizes: Sizes) -> None:
        from repro import make_neuro_like

        self.seed = seed
        self.sizes = sizes
        self.min_rounds = sizes.explore_rounds
        ds = make_neuro_like(sizes.explore_n, seed=self.data_seed)
        self.universe = ds.universe
        self.base = ds.store
        self.probe = _probe_boxes(ds.universe, seed, sizes.write_batch)
        self._oracle: Any = None

    def verify_mode(self) -> str:
        sz = self.sizes
        return (
            f"seeded sample of {sz.explore_checked} of "
            f"{sz.explore_clusters * sz.explore_per_cluster} queries per round, "
            "and every probe write"
        )

    def queries(self, r: int) -> list[Any]:
        """Round ``r``'s clustered queries, cluster by cluster."""
        from repro import Box, Query

        sz = self.sizes
        rng = np.random.default_rng(_seed(self.seed, r, 1))
        lo_u = np.asarray(self.universe.lo)
        hi_u = np.asarray(self.universe.hi)
        side = float(np.prod(hi_u - lo_u) * sz.volume_fraction) ** (1.0 / lo_u.size)
        rows = rng.choice(self.base.n, size=sz.explore_clusters, replace=False)
        centers = (self.base.lo[rows] + self.base.hi[rows]) / 2.0
        out = []
        for center in centers:
            offsets = rng.normal(0.0, 2.0 * side, size=(sz.explore_per_cluster, lo_u.size))
            for offset in offsets:
                lo = np.clip(center + offset - side / 2.0, lo_u, hi_u)
                hi = np.clip(center + offset + side / 2.0, lo_u, hi_u)
                out.append(Query(Box(tuple(lo), tuple(hi))))
        return out

    def expected(self, queries: list[Any]) -> list[np.ndarray]:
        if self._oracle is None:
            from repro import ScanIndex

            self._oracle = ScanIndex(self.base.copy())
            self._oracle.build()
        return [np.sort(r.ids) for r in self._oracle.execute_batch(queries)]

    def setup(self) -> Any:
        from repro import QuasiiIndex

        index = QuasiiIndex(self.base.copy())
        index.build()
        return index

    def round(self, p: Pass, r: int, budget_s: float) -> None:
        s = p.samples
        sz = self.sizes
        s.backend = "none: one index, called directly"
        queries = self.queries(r)
        rng = np.random.default_rng(_seed(self.seed, r, 2))
        checked = {
            int(i)
            for i in rng.choice(
                len(queries), size=min(sz.explore_checked, len(queries)), replace=False
            )
        }
        for k in range(sz.explore_cold_starts):
            t0 = time.perf_counter()
            index = self.setup()
            s.setup_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            index.execute(queries[(k * sz.explore_per_cluster) % len(queries)])
            s.first_query_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        index = self.setup()
        s.setup_s.append(time.perf_counter() - t0)
        answers: list[tuple[int, np.ndarray | None]] = []
        before = index.stats.snapshot()
        probe_s = 0.0
        p.trace(True)
        loop_t0 = time.perf_counter()
        for i, q in enumerate(queries):
            out, dt = p.call("bench.query", lambda: index.execute(q), 1)
            s.query_calls.append((dt, 1))
            if out is not None and i in checked:
                answers.append((i, out.ids))
            if (i + 1) % sz.explore_probe_every == 0:
                box = self.probe[(i // sz.explore_probe_every) % len(self.probe)]
                probe_s += _probe_pair(p, index, box, s)
        loop_s = time.perf_counter() - loop_t0 - probe_s
        p.trace(False)
        s.ops += len(queries)
        s.attempted += len(queries)
        s.measured_s += loop_s
        s.index_bytes.append(index.memory_bytes())
        _record_stats(s, index.stats.delta_since(before))
        order = sorted(checked)
        expected = dict(zip(order, self.expected([queries[i] for i in order])))
        s.mismatched += count_mismatches(answers, expected)
        s.verified += len(answers)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class LeakError(RuntimeError):
    """A worker process or shared-memory segment outlived its executor."""


class SegmentWatch:
    """Record the shared-memory segments the process pool publishes.

    Wraps ``publish_segment`` as the pool module binds it, for the
    teardown check: after the executor closes, none of the recorded
    names may still exist.
    """

    def __init__(self) -> None:
        import repro.parallel.pool as pool_mod

        self._mod = pool_mod
        self._original = pool_mod.publish_segment
        self.names: list[str] = []
        original = self._original

        def watched(*args: Any, **kwargs: Any) -> Any:
            spec, shm = original(*args, **kwargs)
            self.names.append(spec.name)
            return spec, shm

        pool_mod.publish_segment = watched

    def close(self) -> None:
        self._mod.publish_segment = self._original

    def survivors(self) -> list[str]:
        """Recorded segments that still exist (each is unlinked here)."""
        from multiprocessing import shared_memory

        alive = []
        for name in self.names:
            try:
                shm = shared_memory.SharedMemory(name=name, create=False)
            except FileNotFoundError:
                continue
            alive.append(name)
            shm.close()
            shm.unlink()
        return alive


def _reap(pids: list[int]) -> list[int]:
    """Pids among ``pids`` still running; each is killed and reaped."""
    alive = []
    for proc in active_children():
        if proc.pid in pids:
            alive.append(proc.pid)
            proc.kill()
            proc.join(5.0)
    for pid in pids:
        if pid in alive:
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        except PermissionError:  # pragma: no cover - pid reused by another user
            continue
        alive.append(pid)
        os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    return alive


class Serve:
    """A warm 4-shard engine served through the process backend.

    The warm read path: routing, fan-out to shared-memory workers,
    merge.  Clients send 90/10 hotspot batches; each batch comes from one
    of several client groups with its own hot region, taken in turn, so
    a run does not hinge on where one hot region falls against the shard
    boundaries.  Warm-up runs through the same executor before timing
    and counts in ``setup_s``; cracking is then near zero.
    """

    name = "serve"
    #: Two workers and the client process share two CPUs, so scheduling delays
    #: stretch the far tail whenever the host is busier; p95 and p90 move
    #: with the program rather than with the neighbours.
    tail = {"query": 95.0, "write": 90.0}

    def __init__(self, seed: int, sizes: Sizes) -> None:
        from repro import make_uniform

        self.seed = seed
        self.sizes = sizes
        self.min_rounds = sizes.serve_rounds
        ds = make_uniform(sizes.serve_n, seed=seed)
        self.universe = ds.universe
        self.base = ds.store
        self.probe = _probe_boxes(ds.universe, seed, sizes.write_batch)
        self.workers = nproc()
        self._oracle: Any = None

    def verify_mode(self) -> str:
        return (
            f"seeded sample of {self.sizes.serve_checked} served queries per "
            "round, and every probe write"
        )

    def streams(self, r: int) -> list[list[Any]]:
        """Round ``r``'s query stream of every client group."""
        from repro import Query, hotspot_workload

        sz = self.sizes
        return [
            [
                Query(q.window)
                for q in hotspot_workload(
                    self.universe,
                    n_queries=sz.serve_warmup + sz.serve_stream,
                    volume_fraction=sz.volume_fraction,
                    seed=_seed(self.seed, r, j),
                )
            ]
            for j in range(sz.serve_hotspots)
        ]

    def expected(self, queries: list[Any]) -> list[np.ndarray]:
        if self._oracle is None:
            from repro import ScanIndex

            self._oracle = ScanIndex(self.base.copy())
            self._oracle.build()
        return [np.sort(r.ids) for r in self._oracle.execute_batch(queries)]

    def build(self) -> Any:
        from repro import ShardedIndex

        engine = ShardedIndex(
            self.base.copy(), n_shards=self.sizes.serve_shards, partitioner="str"
        )
        engine.build()
        return engine

    @contextlib.contextmanager
    def serving(self, engine: Any, telemetry: Any = None) -> Iterator[Any]:
        """A process-backend executor, closed and checked for leaks on exit."""
        from repro import QueryExecutor
        from repro.telemetry.events import EventLog

        watch = SegmentWatch()
        events = EventLog()
        executor = None
        try:
            executor = QueryExecutor(
                engine,
                max_workers=self.workers,
                backend="processes",
                telemetry=telemetry,
                events=events,
            )
            yield executor
        finally:
            if executor is not None:
                executor.close()
            watch.close()
            pids = [int(e.payload["pid"]) for e in events.recent("worker.spawn")]
            pids += [int(e.payload["new_pid"]) for e in events.recent("worker.respawn")]
            leaked_pids = _reap(pids)
            leaked_shm = watch.survivors()
        if leaked_pids or leaked_shm:
            raise LeakError(
                f"serve leaked workers {leaked_pids} and segments {leaked_shm}"
            )

    def round(self, p: Pass, r: int, budget_s: float) -> None:
        from repro import Telemetry

        s = p.samples
        sz = self.sizes
        streams = self.streams(r)
        for k in range(sz.serve_cold_starts):
            with self.serving(self.build()) as executor:
                t0 = time.perf_counter()
                executor.run(streams[k % len(streams)][:1])
                s.first_query_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        engine = self.build()
        # Worker-side spans travel home through the telemetry registry,
        # so only traced passes turn it on.
        telemetry = Telemetry() if p.recorder is not None else None
        with self.serving(engine, telemetry) as executor:
            s.backend = executor.backend
            for b in range(0, sz.serve_warmup, sz.serve_batch):
                for stream in streams:
                    executor.run(stream[b : b + sz.serve_batch])
            s.setup_s.append(time.perf_counter() - t0)
            self._measure(p, r, streams, engine, executor, budget_s)

    def _measure(
        self,
        p: Pass,
        r: int,
        streams: list[list[Any]],
        engine: Any,
        executor: Any,
        budget_s: float,
    ) -> None:
        s = p.samples
        sz = self.sizes
        batch = sz.serve_batch
        groups = len(streams)
        rng = np.random.default_rng(_seed(self.seed, r, 2))
        # Checked queries, as (group, position in its measured stream).
        checked = {
            (int(j), int(i))
            for j, i in zip(
                rng.integers(groups, size=sz.serve_checked),
                rng.integers(sz.serve_stream, size=sz.serve_checked),
            )
        }
        registry = executor.telemetry.registry if executor.telemetry else None
        worker_before = _worker_sums(registry)
        before = engine.stats.snapshot()
        answers: list[tuple[tuple[int, int], np.ndarray | None]] = []
        calls = 0
        probe_s = 0.0
        p.trace(True)
        loop_t0 = time.perf_counter()
        deadline = loop_t0 + budget_s
        while True:
            group = calls % groups
            start = (calls // groups) * batch
            idx = [(start + k) % sz.serve_stream for k in range(batch)]
            queries = [streams[group][sz.serve_warmup + i] for i in idx]
            out, dt = p.call("bench.query", lambda: executor.run(queries), batch)
            s.query_calls.append((dt, batch))
            calls += 1
            if out is not None:
                for k, i in enumerate(idx):
                    if (group, i) in checked:
                        answers.append(((group, i), out.results[k]))
                shard = [x for x in out.shard_seconds if x > 0]
                s.add_count("shard_busy_s", sum(shard))
                s.add_count("merge_s", out.merge_seconds)
                s.add_count("ipc_s", out.fanout_seconds - max(shard, default=0.0))
                if shard:
                    s.skews.append(max(shard) / (sum(shard) / len(shard)))
            if calls % sz.serve_probe_every == 0:
                box = self.probe[(calls // sz.serve_probe_every) % len(self.probe)]
                probe_s += _probe_pair(p, engine, box, s)
            if time.perf_counter() - probe_s >= deadline:
                break
        loop_s = time.perf_counter() - loop_t0 - probe_s
        p.trace(False)
        s.ops += calls * batch
        s.attempted += calls * batch
        s.measured_s += loop_s
        s.index_bytes.append(engine.memory_bytes())
        _record_stats(s, engine.stats.delta_since(before))
        for key, value in _worker_sums(registry).items():
            s.add_count("worker." + key, value - worker_before.get(key, 0.0))
        keys = sorted({key for key, _ in answers})
        expected = dict(
            zip(keys, self.expected([streams[j][sz.serve_warmup + i] for j, i in keys]))
        )
        s.mismatched += count_mismatches(answers, expected)
        s.verified += len(answers)


def _worker_sums(registry: Any) -> dict[str, float]:
    """Worker-side layer seconds absorbed into ``registry`` so far."""
    if registry is None:
        return {}
    return {
        name[len(WORKER_HIST_PREFIX) :]: hist.sum
        for name, hist in registry.histograms().items()
        if name.startswith(WORKER_HIST_PREFIX)
    }


def stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker, if one started.

    The process pool starts it; it would otherwise outlive the run by a
    few milliseconds, unreaped, after the benchmark exits.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
class Ingest:
    """Writes beside reads on a maintained 4-shard engine, served inline.

    A drifting-hotspot stream: queries in mini-batches, an insert burst
    every third op, and a delete storm every ``ingest_delete_every``
    ops.  Maintenance (compaction, rebalancing) runs inside the calls
    that trigger it.  Every round runs its own stream: how often the
    rebalancer fires differs a lot from stream to stream, so a run
    averages over many short ones.  The dataset is one fixed dataset,
    for the same reason: with a fresh uniform dataset per seed, the
    rebalancer's pass count moved with the dataset as well.  The call
    sequence, delete victims, assigned ids and the expected answers of a
    seeded sample of query calls come from an oracle pre-pass.
    """

    name = "ingest"
    #: Seed of the fixed dataset.
    data_seed = 0
    #: Rebalance (~0.3 s) and compaction (~0.05 s) pauses land in about
    #: 2% of query calls and 1% of write calls, so p98/p99 and p99 sit on
    #: the cliffs between them and the rest and jump from run to run;
    #: p95 and p98 stay below them.
    tail = {"query": 95.0, "write": 98.0}

    def __init__(self, seed: int, sizes: Sizes) -> None:
        from repro import make_uniform

        self.seed = seed
        self.sizes = sizes
        self.min_rounds = sizes.ingest_rounds
        ds = make_uniform(sizes.ingest_n, seed=self.data_seed)
        self.universe = ds.universe
        self.base = ds.store

    def verify_mode(self) -> str:
        return (
            f"seeded sample of {self.sizes.ingest_check_fraction:.0%} of query "
            "calls, and every write"
        )

    def calls(self, r: int) -> list[tuple]:
        """Round ``r``'s call sequence (its own drifting hotspot)."""
        from repro import WorkloadOp, drifting_hotspot_workload

        sz = self.sizes
        base_ops = drifting_hotspot_workload(
            self.universe,
            n_ops=sz.ingest_ops,
            phases=3,
            volume_fraction=sz.volume_fraction,
            insert_every=sz.ingest_insert_every,
            insert_batch=sz.ingest_insert_batch,
            seed=_seed(self.seed, r, 1),
        )
        ops = []
        for i, op in enumerate(base_ops):
            if i and i % sz.ingest_delete_every == 0:
                ops.append(
                    WorkloadOp(kind="delete", seq=len(ops), count=sz.ingest_delete_batch)
                )
            ops.append(op)
        return self._plan_calls(ops, _seed(self.seed, r, 3))

    def _plan_calls(self, ops: list, seed: int) -> list[tuple]:
        """Turn the op stream into calls, with oracle answers to check.

        A query call carries its expected answers when it is in the
        seeded sample, else ``None``.
        """
        from repro import Query, ScanIndex
        from repro.updates.executor import resolve_delete_victims

        oracle = ScanIndex(self.base.copy())
        oracle.build()
        rng = np.random.default_rng(seed)
        calls: list[tuple] = []
        pending: list = []

        def flush() -> None:
            if pending:
                queries = [Query(w) for w in pending]
                expected = None
                if rng.random() < self.sizes.ingest_check_fraction:
                    results = oracle.execute_batch(queries)
                    expected = [np.sort(r.ids) for r in results]
                calls.append(("query", queries, expected))
                pending.clear()

        for seq, op in enumerate(ops):
            if op.kind == "query":
                pending.append(op.query.window)
                if len(pending) >= self.sizes.ingest_batch:
                    flush()
                continue
            flush()
            if op.kind == "insert":
                ids = oracle.insert(op.lo, op.hi)
                calls.append(("insert", op.lo, op.hi, ids))
            else:
                store = oracle.store
                live = store.ids[store.live_rows()]
                victims = resolve_delete_victims(live, op.count, seq, seed)
                oracle.delete(victims)
                calls.append(("delete", victims))
        flush()
        return calls

    def setup(self) -> tuple[Any, Any]:
        from repro import MaintenancePolicy, QueryExecutor, ShardedIndex

        engine = ShardedIndex(
            self.base.copy(), n_shards=self.sizes.ingest_shards, partitioner="str"
        )
        engine.build()
        executor = QueryExecutor(
            engine,
            max_workers=1,
            backend="sequential",
            maintenance=MaintenancePolicy(**INGEST_POLICY),
        )
        return engine, executor

    def round(self, p: Pass, r: int, budget_s: float) -> None:
        s = p.samples
        calls = self.calls(r)
        cold = self.sizes.ingest_cold_starts
        firsts = [c[1][0] for c in calls if c[0] == "query"]
        for k in range(cold):
            t0 = time.perf_counter()
            _, executor = self.setup()
            s.setup_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            executor.run([firsts[(k * len(firsts)) // cold]])
            s.first_query_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        engine, executor = self.setup()
        s.setup_s.append(time.perf_counter() - t0)
        s.backend = executor.backend
        scheduler = executor.scheduler
        before = engine.stats.snapshot()
        answers: list[tuple[int, Any]] = []
        ops = 0

        def write(call: tuple) -> Any:
            # The maintenance tick a write triggers is part of the call.
            if call[0] == "insert":
                got = engine.insert(call[1], call[2])
            else:
                got = engine.delete(call[1])
            scheduler.after_ops(1)
            return got

        p.trace(True)
        loop_t0 = time.perf_counter()
        for ci, call in enumerate(calls):
            if call[0] == "query":
                queries = call[1]
                out, dt = p.call("bench.query", lambda: executor.run(queries), len(queries))
                s.query_calls.append((dt, len(queries)))
                ops += len(queries)
                if out is not None:
                    answers.append((ci, out.results))
                continue
            got, dt = p.call("bench.write", lambda: write(call), 1)
            s.write_calls.append(dt)
            ops += 1
            if got is not None:
                answers.append((ci, got))
        loop_s = time.perf_counter() - loop_t0
        p.trace(False)
        s.ops += ops
        s.attempted += ops
        s.measured_s += loop_s
        s.index_bytes.append(engine.memory_bytes())
        _record_stats(s, engine.stats.delta_since(before))
        report = scheduler.report
        s.add_count("compactions", report.compaction_passes)
        s.add_count("rows_reclaimed", report.rows_reclaimed)
        s.add_count("rebalances", report.rebalances)
        s.add_count("rows_migrated", report.rows_migrated)
        self._verify(s, calls, answers)

    @staticmethod
    def _verify(s: Samples, calls: list[tuple], answers: list[tuple[int, Any]]) -> None:
        for ci, got in answers:
            call = calls[ci]
            if call[0] == "query":
                if call[2] is None:
                    continue
                for ids, expected in zip(got, call[2]):
                    s.verified += 1
                    if not same_ids(ids, expected):
                        s.mismatched += 1
            elif call[0] == "insert":
                s.verified += 1
                if not np.array_equal(got, call[3]):
                    s.mismatched += 1
            else:
                s.verified += 1
                if got != call[1].size:
                    s.mismatched += 1


WORKLOADS: dict[str, Callable[[int, Sizes], Any]] = {
    "explore": Explore,
    "serve": Serve,
    "ingest": Ingest,
}


def run_pass(
    workload: Any, seconds: float, recorder: SpanRecorder | None = None
) -> Samples:
    """Run rounds until ``seconds`` are measured and the least rounds done.

    Round ``r`` draws its queries and writes from ``(seed, r)``, so a run
    averages over several sub-scenarios while the same seed still gives
    the same inputs.  ``serve`` rounds each measure an equal share of
    ``seconds``; the other workloads run whole rounds.
    """
    p = Pass(recorder=recorder)
    p.samples.verify_mode = workload.verify_mode()
    budget = seconds / max(workload.min_rounds, 1)
    while p.samples.rounds < workload.min_rounds or p.samples.measured_s < seconds:
        workload.round(p, p.samples.rounds, budget)
        p.samples.rounds += 1
    return p.samples

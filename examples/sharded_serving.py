#!/usr/bin/env python3
"""Sharded serving: partition, fan out, prune, and route updates.

The sharding subsystem (`repro.sharding`) turns the single-process
QUASII reproduction into a partition-then-search serving engine: an STR
partitioner splits the store into K compact spatial tiles, one QUASII is
built per tile, queries fan out only to shards whose MBB intersects the
window, and inserts/deletes route to the owning shard so every shard
keeps cracking adaptively on its own slice forest.

This demo builds the engine, serves a batch of queries inline and on a
pool of worker processes, verifies both against a full scan,
pushes a stream of updates through the ownership routing, and finally
turns on automatic maintenance: a MaintenancePolicy attached to the
executor compacts tombstone-heavy shards and — when skewed ingestion
drifts the balance factor — splits the hot shard along the observed
query centroids (query-driven rebalancing, QUASII's principle applied
to the partition layout).

Run:  python examples/sharded_serving.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    MaintenancePolicy,
    QueryExecutor,
    ScanIndex,
    ShardedIndex,
    hotspot_workload,
    make_uniform,
    uniform_workload,
)


def main() -> None:
    # 1. Data: 200k boxes in the paper's synthetic 10,000^3 universe.
    dataset = make_uniform(200_000, seed=42)
    print(f"dataset: {dataset.n:,} boxes in {dataset.universe.sides} universe")

    # 2. Build the engine: STR split into 8 shards, one QUASII per shard.
    engine = ShardedIndex(dataset.store.copy(), n_shards=8, partitioner="str")
    engine.build()
    print(f"engine: {engine.name}, shard sizes {engine.shard_sizes()}, "
          f"balance {engine.balance_factor():.2f}\n")

    # 3. Serve a batch of small queries two ways and check both vs Scan.
    queries = uniform_workload(dataset.universe, 300, 1e-4, seed=7)
    scan = ScanIndex(dataset.store.copy())
    expected = [np.sort(scan.query(q)) for q in queries]

    sequential = QueryExecutor(engine, max_workers=1).run(queries)
    assert all(
        np.array_equal(np.sort(got), want)
        for got, want in zip(sequential.results, expected)
    )
    visited, pruned = engine.stats.shards_visited, engine.stats.shards_pruned
    print(f"sequential: {sequential.seconds:.3f}s "
          f"({sequential.throughput():.0f} queries/s), "
          f"{pruned}/{visited + pruned} shard visits pruned")

    with QueryExecutor(engine, max_workers=4, backend="processes") as ex:
        parallel = ex.run(queries)
    assert all(
        np.array_equal(np.sort(got), want)
        for got, want in zip(parallel.results, expected)
    )
    print(f"processes:  {parallel.seconds:.3f}s "
          f"({parallel.throughput():.0f} queries/s), "
          f"fan-out profile {parallel.shard_queries}")
    print("(worker processes crack their own snapshots from scratch, while "
          "the inline batch left its refinement in the driver's indexes — "
          "run `quasii-bench shard-scaling` for fair fresh-engine "
          "comparisons)\n")

    # 4. Skewed serving traffic: the hot region concentrates on few shards.
    hot = hotspot_workload(dataset.universe, 300, 1e-4, seed=11)
    engine.stats.reset()
    QueryExecutor(engine, max_workers=1).run(hot)
    v, p = engine.stats.shards_visited, engine.stats.shards_pruned
    print(f"hotspot traffic: {p}/{v + p} shard visits pruned "
          f"(spatial tiles keep hot queries on few shards)\n")

    # 5. Shard-aware updates: inserts route by least enlargement, deletes
    #    by ownership; the Scan oracle keeps verifying results.
    rng = np.random.default_rng(3)
    centers = rng.uniform(0, 10_000, size=(500, 3))
    lo, hi = centers - 2.0, centers + 2.0
    new_ids = engine.insert(lo, hi)
    scan.insert(lo, hi)
    victims = new_ids[::2]
    engine.delete(victims)
    scan.delete(victims)
    print(f"inserted {new_ids.size}, deleted {victims.size}; "
          f"pending (buffered) rows fleet-wide: {engine.pending_updates()}")
    check = uniform_workload(dataset.universe, 50, 1e-3, seed=13)
    assert all(
        np.array_equal(np.sort(engine.query(q)), np.sort(scan.query(q)))
        for q in check
    )
    engine.validate_routing()
    owner = engine.owner_of(int(new_ids[1]))
    print(f"id {int(new_ids[1])} is owned by shard {owner}; "
          f"all results still match the Scan oracle\n")

    # 6. Automatic maintenance: skew the ingestion into one corner, then
    #    let the executor's MaintenancePolicy rebalance on the query path.
    burst = rng.uniform(0, 2_000, size=(30_000, 3))
    engine.insert(burst - 2.0, burst + 2.0)
    scan.insert(burst - 2.0, burst + 2.0)
    print(f"after a skewed burst: balance factor {engine.balance_factor():.2f} "
          f"(max/mean owned rows)")
    serve = QueryExecutor(
        engine,
        max_workers=1,
        maintenance=MaintenancePolicy(check_every=64, max_balance=1.3,
                                      max_query_skew=2.5, min_queries=32),
    )
    corner = hotspot_workload(dataset.universe, 300, 1e-4,
                              hotspot_volume=0.002, seed=17)
    batch = serve.run(corner)
    report = serve.scheduler.report
    print(f"served {batch.n_queries} hotspot queries; maintenance ran "
          f"{report.checks} checks, {report.rebalances} rebalancing pass(es), "
          f"migrated {report.rows_migrated:,} rows in {report.seconds*1000:.0f}ms")
    print(f"balance factor now {engine.balance_factor():.2f}; results still "
          f"match the oracle: ", end="")
    check = uniform_workload(dataset.universe, 30, 1e-3, seed=19)
    ok = all(
        np.array_equal(np.sort(engine.query(q)), np.sort(scan.query(q)))
        for q in check
    )
    engine.validate_routing()
    print("yes" if ok else "NO")


if __name__ == "__main__":
    main()

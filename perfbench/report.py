"""Turn a pass's samples (and spans) into the named metrics."""

from __future__ import annotations

import statistics
from typing import Any

import numpy as np

from perfbench.common import Samples, calls_beyond, median, percentile_ms
from perfbench.tracing import child_busy, layer_seconds, max_duration, shard_skews

#: Layer seconds measured inside process-backend workers (``serve``).
WORKER_KEYS = (
    "core.query_s",
    "core.crack_s",
    "core.descent_self_s",
    "index.stats_s",
    "geometry.predicate_s",
)


def end_to_end(s: Samples, tail: dict[str, float]) -> tuple[dict[str, float], dict]:
    """The user-facing metrics of one untraced pass, plus their notes.

    ``tail`` gives the percentile reported as ``query_p99_ms`` and
    ``write_p99_ms``: 99 where the run puts at least ten calls beyond it,
    a lower fixed percentile per workload where it cannot.
    """
    queries = s.query_latencies()
    writes = np.asarray(s.write_calls, dtype=np.float64)
    query_calls = [sec for sec, _ in s.query_calls]
    metrics = {
        "setup_s": median(s.setup_s),
        "first_query_ms": median(s.first_query_s) * 1e3,
        "ops_per_s": s.ops / s.measured_s,
        "query_p50_ms": percentile_ms(queries, 50),
        "query_p99_ms": percentile_ms(queries, tail["query"]),
        "write_p50_ms": percentile_ms(writes, 50),
        "write_p99_ms": percentile_ms(writes, tail["write"]),
        "index_mb": median([float(b) for b in s.index_bytes]) / 1e6,
    }
    notes = {
        "rounds": s.rounds,
        "samples": {
            "setup_s": len(s.setup_s),
            "first_query_ms": len(s.first_query_s),
            "ops_per_s": s.ops,
            "query_ms": int(queries.size),
            "query_calls": len(query_calls),
            "write_calls": int(writes.size),
            "index_mb": len(s.index_bytes),
        },
        "query_p99_ms_percentile": tail["query"],
        "query_calls_beyond_tail": calls_beyond(
            query_calls, metrics["query_p99_ms"] / 1e3
        ),
        "write_p99_ms_percentile": tail["write"],
        "write_calls_beyond_tail": calls_beyond(
            s.write_calls, metrics["write_p99_ms"] / 1e3
        ),
        "measured_s": s.measured_s,
        "ops": s.ops,
    }
    return metrics, notes


def per_layer(
    untraced: Samples, traced: Samples, spans: list[tuple[int, str, float, float, int]]
) -> dict[str, float]:
    """Per-layer metrics of a traced pass.

    Seconds and work counts are per round (the traced pass's totals over
    its rounds); ratios are over the whole traced pass.  A layer that
    does no work on a workload reads 0.
    """
    rounds = max(traced.rounds, 1)
    c = traced.counts
    layer = layer_seconds(spans)
    for key in WORKER_KEYS:
        layer[key] += c.get("worker." + key, 0.0)

    def per_round(value: float) -> float:
        return value / rounds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    queries = c.get("queries", 0.0)
    visited = c.get("shards_visited", 0.0)
    pruned = c.get("shards_pruned", 0.0)
    if "merge_s" in c:  # process backend: the executor times its merge
        merge_s = c["merge_s"]
        busy_s = c["shard_busy_s"]
        skews = traced.skews
    else:  # inline backend: merge is the engine batch's self time
        merge_s = layer["sharding.batch_self_s"]
        busy_s = child_busy(spans, "sharding.batch", "core.query")
        skews = shard_skews(spans)
    accounted = (
        layer["core.crack_s"]
        + layer["core.descent_self_s"]
        + layer["index.stats_s"]
        + layer["geometry.predicate_s"]
    )
    return {
        "core.query_s": per_round(layer["core.query_s"]),
        "core.crack_s": per_round(layer["core.crack_s"]),
        "core.descent_self_s": per_round(layer["core.descent_self_s"]),
        "core.cracks": per_round(c.get("cracks", 0.0)),
        "core.rows_reorganized": per_round(c.get("rows_reorganized", 0.0)),
        "core.nodes_visited_per_query": ratio(c.get("nodes_visited", 0.0), queries),
        "core.merges": per_round(c.get("merges", 0.0)),
        "index.stats_s": per_round(layer["index.stats_s"]),
        "geometry.predicate_s": per_round(layer["geometry.predicate_s"]),
        "index.objects_tested_per_query": ratio(c.get("objects_tested", 0.0), queries),
        "index.candidate_precision": ratio(
            c.get("results_returned", 0.0), c.get("objects_tested", 0.0)
        ),
        "store.validate_s": per_round(layer["store.validate_s"]),
        "store.append_s": per_round(layer["store.append_s"]),
        "store.delete_s": per_round(layer["store.delete_s"]),
        "store.compact_s": per_round(layer["store.compact_s"]),
        "updates.buffer_add_s": per_round(layer["updates.buffer_add_s"]),
        "sharding.route_s": per_round(layer["sharding.route_s"]),
        "sharding.merge_s": per_round(merge_s),
        "sharding.shard_busy_s": per_round(busy_s),
        "sharding.shard_skew": statistics.fmean(skews) if skews else 0.0,
        "sharding.fanout_per_query": ratio(visited, queries),
        "sharding.pruned_frac": ratio(pruned, visited + pruned),
        "sharding.write_self_s": per_round(layer["sharding.write_self_s"]),
        "maintenance.busy_s": per_round(layer["maintenance.busy_s"]),
        "maintenance.max_pause_ms": max_duration(spans, "maintenance.run") * 1e3,
        "maintenance.compactions": per_round(c.get("compactions", 0.0)),
        "maintenance.rows_reclaimed": per_round(c.get("rows_reclaimed", 0.0)),
        "maintenance.rebalances": per_round(c.get("rebalances", 0.0)),
        "maintenance.rows_migrated": per_round(c.get("rows_migrated", 0.0)),
        "parallel.ipc_s": per_round(c.get("ipc_s", 0.0)),
        "trace.overhead_frac": 1.0
        - ratio(traced.ops / traced.measured_s, untraced.ops / untraced.measured_s),
        "trace.query_accounted_frac": ratio(accounted, layer["bench.query_s"]),
    }


def check_names(
    computed: dict[str, Any], declared: list[dict[str, str]], kind: str
) -> None:
    """Raise unless ``computed`` names exactly the metrics ``declared``."""
    want = [m["name"] for m in declared]
    missing = sorted(set(want) - set(computed))
    extra = sorted(set(computed) - set(want))
    if missing or extra:
        raise ValueError(
            f"{kind} metrics disagree with BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )

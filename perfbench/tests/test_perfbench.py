"""The benchmark's own tests, at a tiny size.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from multiprocessing import active_children
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as run_mod
from perfbench.tracing import SpanRecorder, check_tree, layer_hooks, span_tree
from perfbench.workloads import TINY, WORKLOADS, run_pass

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = 0.2


def _run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=SECONDS, trace=trace)
    return run_mod.run(args, SPEC, TINY)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(workload: str, trace: int) -> None:
    record, result = _run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["error_rate"] == 0.0 and record["verified"] > 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
    json.dumps(result)  # the result line must serialize
    if not trace:
        for name in ("setup_s", "first_query_ms", "ops_per_s", "query_p50_ms"):
            assert result["metrics"][name]["value"] > 0


def test_trace_accounts_for_explore_query_time() -> None:
    _, result = _run("explore", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["core.query_s"] > 0 and m["core.crack_s"] > 0
    assert 0.9 < m["trace.query_accounted_frac"] <= 1.0


def test_serve_trace_collects_worker_layers_and_leaves_no_worker() -> None:
    record, result = _run("serve", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert record["backend"] == "processes"
    assert m["core.query_s"] > 0 and m["geometry.predicate_s"] > 0
    assert m["sharding.shard_busy_s"] > 0
    assert active_children() == []


def test_ingest_exercises_writes_and_maintenance() -> None:
    _, result = _run("ingest", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["store.append_s"] > 0 and m["store.delete_s"] > 0
    assert m["updates.buffer_add_s"] > 0 and m["sharding.write_self_s"] > 0
    assert m["maintenance.compactions"] >= 1


def test_injected_wrong_answer_is_counted(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.core.quasii import QuasiiIndex

    original = QuasiiIndex.execute

    def drop_one_id(self, query):
        result = original(self, query)
        if result.ids is not None and result.ids.size:
            return dataclasses.replace(result, ids=result.ids[1:])
        return result

    monkeypatch.setattr(QuasiiIndex, "execute", drop_one_id)
    record, result = _run("explore", 0)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert record["error_rate"] == result["failed"] / result["attempted"] > 0


def test_injected_wrong_answer_is_counted_on_ingest(monkeypatch: pytest.MonkeyPatch) -> None:
    from repro.sharding.executor import QueryExecutor

    original = QueryExecutor.run
    calls = {"n": 0}

    def corrupt_third_batch(self, queries):
        out = original(self, queries)
        calls["n"] += 1
        if calls["n"] == 3:
            out.results[0] = np.append(out.results[0], -1)
        return out

    monkeypatch.setattr(QueryExecutor, "run", corrupt_third_batch)
    workload = WORKLOADS["ingest"](3, TINY)
    samples = run_pass(workload, SECONDS)
    assert samples.mismatched >= 1


def test_spans_nest_and_self_times_are_non_negative() -> None:
    workload = WORKLOADS["ingest"](5, TINY)
    recorder = SpanRecorder()
    recorder.install(layer_hooks())
    try:
        run_pass(workload, SECONDS, recorder)
    finally:
        recorder.uninstall()
    assert recorder.spans
    assert check_tree(recorder.spans) == []
    _, self_time, _ = span_tree(recorder.spans)
    assert all(v >= -1e-9 for v in self_time.values())
    names = {s[1] for s in recorder.spans}
    assert {"bench.query", "bench.write", "core.query", "maintenance.run"} <= names


def test_uninstall_restores_the_program() -> None:
    from repro.core.quasii import QuasiiIndex
    from repro.index.base import MutableSpatialIndex
    from repro.sharding.sharded_index import ShardedIndex

    execute = QuasiiIndex.__dict__.get("execute")
    recorder = SpanRecorder()
    recorder.install(layer_hooks())
    assert ShardedIndex.insert is not MutableSpatialIndex.insert
    recorder.uninstall()
    assert ShardedIndex.insert is MutableSpatialIndex.insert
    assert QuasiiIndex.__dict__.get("execute") is execute


def test_check_tree_flags_a_child_outside_its_parent() -> None:
    spans = [(1, "child", 0.5, 2.5, 0), (0, "parent", 0.0, 2.0, -1)]
    assert check_tree(spans)
    spans = [(1, "a", 0.0, 0.6, 0), (2, "b", 0.5, 1.2, 0), (0, "p", 0.0, 1.0, -1)]
    assert any("exceed" in p for p in check_tree(spans))


def test_pinned_environment_is_removed(monkeypatch: pytest.MonkeyPatch) -> None:
    for var in run_mod.PINNED_ENV:
        monkeypatch.setenv(var, "threads")
    run_mod.pin_environment()
    assert not any(var in os.environ for var in run_mod.PINNED_ENV)


def test_incorrect_result_exits_non_zero(monkeypatch: pytest.MonkeyPatch, capsys) -> None:
    def wrong(args, spec, sizes):
        return {}, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}

    monkeypatch.setattr(run_mod, "run", wrong)
    code = run_mod.main(["--workload", "explore", "--seed", "1", "--seconds", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Regression gate: headline extraction, drift comparison, exit codes."""

from __future__ import annotations

import json

from repro.bench.regression import (
    compare_headlines,
    extract_headline,
    higher_is_better,
    noise_floor,
    render_drift,
    run_diff,
)


def _doc(verb: str, headline: dict | None = None, **extra) -> dict:
    """A minimal schema-valid repro-bench/1 document."""
    metrics = dict(extra.pop("metrics", {}))
    if headline is not None:
        metrics["headline"] = headline
    return {
        "schema": "repro-bench/1",
        "verb": verb,
        "scale": "smoke",
        "created_unix": 1.0,
        "elapsed_seconds": 1.0,
        "description": "test doc",
        "tables": extra.pop("tables", []),
        "notes": [],
        "metrics": metrics,
        **extra,
    }


class TestDirections:
    def test_latency_and_balance_regress_upward(self):
        assert not higher_is_better("query_p99_ms")
        assert not higher_is_better("rebalanced_peak_balance")

    def test_speedup_and_throughput_regress_downward(self):
        assert higher_is_better("batch_speedup_scan")
        assert higher_is_better("ops_per_second")

    def test_noise_floors_by_family(self):
        assert noise_floor("query_p99_ms") == 0.5
        assert noise_floor("rebalanced_peak_balance") == 0.05
        assert noise_floor("batch_speedup_grid") == 0.1
        assert noise_floor("unknown_metric") == 0.0


class TestCompareHeadlines:
    def test_self_diff_is_clean(self):
        docs = [
            _doc("soak", {"query_p99_ms": 3.0, "ops_per_second": 500.0}),
            _doc("query-api", {"batch_speedup_scan": 8.0}),
        ]
        drifts = compare_headlines(docs, [dict(d) for d in docs])
        assert len(drifts) == 3
        assert all(not d.breach for d in drifts)
        assert all(d.regression == 0.0 for d in drifts)

    def test_inflated_p99_breaches(self):
        base = [_doc("soak", {"query_p99_ms": 2.0})]
        cand = [_doc("soak", {"query_p99_ms": 4.0})]
        (drift,) = compare_headlines(base, cand, tolerance=0.25)
        assert drift.breach
        assert drift.regression == 1.0
        assert drift.delta == 2.0

    def test_speedup_drop_breaches(self):
        base = [_doc("query-api", {"batch_speedup_scan": 8.0})]
        cand = [_doc("query-api", {"batch_speedup_scan": 4.0})]
        (drift,) = compare_headlines(base, cand, tolerance=0.25)
        assert drift.breach and drift.regression == 0.5

    def test_improvements_never_breach(self):
        base = [
            _doc(
                "soak",
                {"query_p99_ms": 4.0, "ops_per_second": 100.0},
            )
        ]
        cand = [
            _doc(
                "soak",
                {"query_p99_ms": 1.0, "ops_per_second": 900.0},
            )
        ]
        drifts = compare_headlines(base, cand)
        assert all(not d.breach for d in drifts)
        assert all(d.regression < 0 for d in drifts)

    def test_noise_floor_suppresses_tiny_absolute_drift(self):
        # +50% relative but only +0.1 ms absolute: jitter, not regression.
        base = [_doc("soak", {"query_p99_ms": 0.2})]
        cand = [_doc("soak", {"query_p99_ms": 0.3})]
        (drift,) = compare_headlines(base, cand, tolerance=0.25)
        assert not drift.breach
        # noise_scale=0 disables absolute gating; now it breaches.
        (drift,) = compare_headlines(
            base, cand, tolerance=0.25, noise_scale=0.0
        )
        assert drift.breach

    def test_one_sided_metrics_and_verbs_are_skipped(self):
        base = [_doc("soak", {"query_p99_ms": 2.0}), _doc("query-api", {"a": 1.0})]
        cand = [_doc("soak", {"ops_per_second": 100.0}), _doc("fig7")]
        assert compare_headlines(base, cand) == []

    def test_render_drift_marks_breaches(self):
        base = [_doc("soak", {"query_p99_ms": 2.0})]
        cand = [_doc("soak", {"query_p99_ms": 40.0})]
        drifts = compare_headlines(base, cand)
        text = render_drift(drifts)
        assert "BREACH" in text
        assert "1 of 1 headline metric(s) regressed" in text
        assert "no comparable headline" in render_drift([])


class TestExtractHeadline:
    def test_prefers_explicit_headline_payload(self):
        doc = _doc("soak", {"query_p99_ms": 3.5})
        assert extract_headline(doc) == {"query_p99_ms": 3.5}

    def test_unrecognized_verb_yields_nothing(self):
        assert extract_headline(_doc("fig7")) == {}
        # No headline payload means no gate, even for a gated verb:
        # rendered tables and windows are never parsed for numbers.
        windows = [{"histograms": {"query.seconds": {"count": 1, "p50": 1.0}}}]
        assert extract_headline(_doc("soak", metrics={"windows": windows})) == {}


class TestRunDiff:
    def _write(self, directory, doc):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{doc['verb']}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")

    def test_breach_exits_nonzero(self, tmp_path):
        self._write(tmp_path / "base", _doc("soak2", {"query_p99_ms": 2.0}))
        self._write(tmp_path / "cand", _doc("soak2", {"query_p99_ms": 40.0}))
        assert run_diff(tmp_path / "base", tmp_path / "cand") == 1

    def test_warn_only_downgrades_to_zero(self, tmp_path):
        self._write(tmp_path / "base", _doc("soak2", {"query_p99_ms": 2.0}))
        self._write(tmp_path / "cand", _doc("soak2", {"query_p99_ms": 40.0}))
        assert (
            run_diff(tmp_path / "base", tmp_path / "cand", warn_only=True)
            == 0
        )

    def test_self_diff_exits_zero_and_writes_out_file(self, tmp_path):
        self._write(tmp_path, _doc("soak2", {"query_p99_ms": 2.0}))
        out = tmp_path / "drift.txt"
        assert run_diff(tmp_path, tmp_path, out_file=out) == 0
        assert "within the" in out.read_text()

    def test_invalid_files_are_skipped_not_fatal(self, tmp_path):
        base = tmp_path / "base"
        base.mkdir()
        (base / "BENCH_bad.json").write_text("{not json")
        (base / "BENCH_wrong.json").write_text('{"schema": "other"}')
        assert run_diff(base, base) == 0

"""Perf-regression gate over persisted ``BENCH_<verb>.json`` results.

The bench harness leaves a trajectory behind (one ``BENCH_<verb>.json``
per verb, committed at the repo root); this module closes the loop by
*comparing* a fresh candidate set against that baseline and failing
loudly when a headline metric regressed.  The CLI's ``diff`` verb is a
thin wrapper around :func:`run_diff`:

    python -m repro.bench soak query-api --smoke --json-out bench-results
    python -m repro.bench diff --json-out bench-results   # vs repo root

Headline metrics are the few numbers per verb worth gating on — soak
latency percentiles, query-API speedup ratios, the rebalanced engine's
balance/latency — which each gated verb writes under
``metrics.headline`` and :func:`extract_headline` reads back.  A verb
without that payload is not gated.

A drift only *breaches* when it is both relatively large (worse than
``tolerance``, default 25% — bench runs on shared CI hardware are
noisy) and absolutely large (above a per-metric noise floor, so a
0.2 ms p99 cannot "regress 30%" by jitter alone).  Direction matters:
latencies and balance factors regress upward, speedups and throughput
regress downward.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

from repro.bench.reporting import (
    load_bench_files,
    render_table,
    validate_bench_json,
)

__all__ = [
    "Drift",
    "compare_headlines",
    "extract_headline",
    "higher_is_better",
    "noise_floor",
    "render_drift",
    "run_diff",
]

#: Default relative regression tolerance (fraction of the baseline).
DEFAULT_TOLERANCE = 0.25


def higher_is_better(name: str) -> bool:
    """Regression direction for one headline metric, by naming convention.

    Speedup ratios and throughput regress when they *drop*; latencies
    (``*_ms``) and balance factors regress when they *climb*.
    """
    return "speedup" in name or "per_second" in name


def noise_floor(name: str) -> float:
    """Minimum absolute change for a drift in ``name`` to be meaningful.

    Relative tolerances alone misfire near zero — a 0.2 ms p50 can move
    30% on scheduler jitter.  The floors are deliberately coarse: they
    exist to suppress noise, not to hide real regressions.
    """
    if name.endswith("_ms"):
        return 0.5        # half a millisecond of latency
    if "balance" in name:
        return 0.05       # balance factors live near 1.0
    if "speedup" in name:
        return 0.1        # dimensionless ratios
    if "per_second" in name:
        return 50.0       # ops/s at smoke scale runs in the thousands
    return 0.0


# ---------------------------------------------------------------------------
# Headline extraction
# ---------------------------------------------------------------------------

def extract_headline(doc: dict) -> dict[str, float]:
    """The gate-worthy metrics of one ``repro-bench/1`` document.

    Reads the explicit ``metrics.headline`` payload (written by the
    serving-engine verbs: soak, query-api, rebalance, replication,
    shard-scaling).  Documents without one yield ``{}`` and are skipped
    by the comparison — the gate covers the serving-engine verbs, not
    every figure reproduction.
    """
    headline = doc.get("metrics", {}).get("headline")
    if not isinstance(headline, dict):
        return {}
    return {
        str(k): float(v)
        for k, v in headline.items()
        if isinstance(v, (int, float))
    }


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Drift:
    """One headline metric compared baseline -> candidate."""

    verb: str
    name: str
    baseline: float
    candidate: float
    higher_is_better: bool
    #: Relative regression (positive = got worse), fraction of baseline.
    regression: float
    #: True when the regression exceeds tolerance *and* the noise floor.
    breach: bool

    @property
    def delta(self) -> float:
        return self.candidate - self.baseline


def _regression(baseline: float, candidate: float, higher: bool) -> float:
    """Signed relative regression; positive means the metric got worse."""
    if baseline == 0:
        return 0.0
    rel = (candidate - baseline) / abs(baseline)
    return -rel if higher else rel


def compare_headlines(
    baseline_docs: list[dict],
    candidate_docs: list[dict],
    tolerance: float = DEFAULT_TOLERANCE,
    noise_scale: float = 1.0,
) -> list[Drift]:
    """Diff every headline metric present in both result sets.

    Documents are matched by verb; metrics by name.  Metrics present on
    only one side are skipped (a new metric is not a regression), as
    are verbs without headline extraction.  ``noise_scale`` multiplies
    every per-metric noise floor (0 disables absolute gating).
    """
    base = {d["verb"]: extract_headline(d) for d in baseline_docs}
    cand = {d["verb"]: extract_headline(d) for d in candidate_docs}
    drifts: list[Drift] = []
    for verb in sorted(set(base) & set(cand)):
        names = sorted(set(base[verb]) & set(cand[verb]))
        for name in names:
            b, c = base[verb][name], cand[verb][name]
            higher = higher_is_better(name)
            reg = _regression(b, c, higher)
            breach = (
                reg > tolerance
                and abs(c - b) > noise_floor(name) * noise_scale
            )
            drifts.append(
                Drift(verb, name, b, c, higher, reg, breach)
            )
    return drifts


def render_drift(
    drifts: list[Drift], tolerance: float = DEFAULT_TOLERANCE
) -> str:
    """Human-readable drift table plus a one-line verdict."""
    if not drifts:
        return (
            "no comparable headline metrics between baseline and "
            "candidate (run soak/query-api/rebalance first)"
        )
    rows = []
    for d in drifts:
        rows.append(
            [
                d.verb,
                d.name,
                f"{d.baseline:.4g}",
                f"{d.candidate:.4g}",
                f"{d.delta:+.4g}",
                f"{d.regression:+.1%}",
                "better" if d.higher_is_better else "worse",
                "BREACH" if d.breach else "ok",
            ]
        )
    table = render_table(
        [
            "verb", "metric", "baseline", "candidate", "delta",
            "regression", "higher is", "verdict",
        ],
        rows,
    )
    breaches = sum(d.breach for d in drifts)
    verdict = (
        f"{breaches} of {len(drifts)} headline metric(s) regressed past "
        f"the {tolerance:.0%} tolerance"
        if breaches
        else f"all {len(drifts)} headline metric(s) within the "
        f"{tolerance:.0%} tolerance"
    )
    return f"{table}\n\n{verdict}"


def _load_valid(directory: Path, label: str) -> list[dict]:
    """Schema-valid bench documents from one directory (warn on bad)."""
    docs: list[dict] = []
    for path, doc in load_bench_files(directory):
        problems = (
            [doc] if isinstance(doc, str) else validate_bench_json(doc)
        )
        if problems:
            print(
                f"diff: skipping {label} {path.name}: {problems[0]}",
                file=sys.stderr,
            )
        else:
            docs.append(doc)
    return docs


def run_diff(
    baseline_dir: str | Path,
    candidate_dir: str | Path,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_scale: float = 1.0,
    warn_only: bool = False,
    out_file: str | Path | None = None,
) -> int:
    """Compare two directories of bench results; 1 on breach, 0 otherwise.

    ``warn_only`` downgrades breaches to exit 0 (CI runs this mode on
    shared runners, where a hard gate would flake; the drift table is
    still printed and uploaded as an artifact).  ``out_file`` gets the
    rendered table for artifact upload.
    """
    baseline_dir, candidate_dir = Path(baseline_dir), Path(candidate_dir)
    baseline = _load_valid(baseline_dir, "baseline")
    candidate = _load_valid(candidate_dir, "candidate")
    drifts = compare_headlines(
        baseline, candidate, tolerance=tolerance, noise_scale=noise_scale
    )
    text = render_drift(drifts, tolerance)
    header = (
        f"perf drift: baseline={baseline_dir} ({len(baseline)} result(s)) "
        f"vs candidate={candidate_dir} ({len(candidate)} result(s))"
    )
    output = f"{header}\n\n{text}\n"
    print(output, end="")
    if out_file is not None:
        Path(out_file).write_text(output, encoding="utf-8")
    breaches = [d for d in drifts if d.breach]
    if breaches and not warn_only:
        return 1
    if breaches:
        print(
            f"diff: --warn-only set; {len(breaches)} breach(es) not fatal",
            file=sys.stderr,
        )
    return 0

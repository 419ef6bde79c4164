"""Sample collection, percentiles, and answer checking for the benchmark."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

@dataclass
class Samples:
    """Everything one pass (untraced or traced) measured.

    ``query_calls`` holds one ``(seconds, n_queries)`` entry per query
    call; every query in a batched call is charged that call's wall time,
    which includes any maintenance tick inside it.
    """

    setup_s: list[float] = field(default_factory=list)
    first_query_s: list[float] = field(default_factory=list)
    query_calls: list[tuple[float, int]] = field(default_factory=list)
    write_calls: list[float] = field(default_factory=list)
    index_bytes: list[int] = field(default_factory=list)
    rounds: int = 0
    measured_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    raised: int = 0
    mismatched: int = 0
    verified: int = 0
    verify_mode: str = ""
    backend: str = ""
    counts: dict[str, float] = field(default_factory=dict)
    skews: list[float] = field(default_factory=list)

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    @property
    def failed(self) -> int:
        return self.raised + self.mismatched

    def query_latencies(self) -> np.ndarray:
        """Per-query latencies in seconds (batch time repeated per query)."""
        if not self.query_calls:
            return np.empty(0, dtype=np.float64)
        secs = np.array([s for s, _ in self.query_calls], dtype=np.float64)
        reps = np.array([n for _, n in self.query_calls], dtype=np.int64)
        return np.repeat(secs, reps)


def calls_beyond(call_seconds: list[float], cut_seconds: float) -> int:
    """How many calls took longer than ``cut_seconds``."""
    return sum(1 for x in call_seconds if x > cut_seconds)


def percentile_ms(latencies: np.ndarray, pct: float) -> float:
    """The ``pct`` percentile of ``latencies`` (seconds) in milliseconds."""
    if latencies.size == 0:
        return math.nan
    return float(np.percentile(latencies, pct)) * 1e3


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else math.nan


def same_ids(got: np.ndarray | None, expected: np.ndarray) -> bool:
    """Whether a program answer equals the oracle's sorted id array."""
    if got is None:
        return False
    return bool(np.array_equal(np.sort(got), expected))


def count_mismatches(
    answers: list[tuple[Hashable, np.ndarray | None]],
    expected: dict[Hashable, np.ndarray],
) -> int:
    """Answers, as ``(query key, ids)`` pairs, that differ from the oracle."""
    return sum(0 if same_ids(got, expected[pos]) else 1 for pos, got in answers)

"""Shared fixtures for the figure-regeneration benchmarks.

Every ``test_figNN_*`` target regenerates one table/figure of the paper at
the ``smoke`` scale (fast; intended to validate the harness end-to-end).
Run the real thing with ``quasii-bench all --scale small`` — see
docs/BENCH.md for the scale presets.

Benchmarks print their report; run pytest with ``-s`` to see the rows.
"""

from __future__ import annotations

import pytest

from repro.bench.experiments import SCALES, run_experiment


@pytest.fixture(scope="session")
def smoke_scale():
    """The fast harness-validation scale."""
    return SCALES["smoke"]


@pytest.fixture
def regenerate():
    """Run one experiment once under pytest-benchmark and print its report."""

    def _regenerate(benchmark, name: str, scale) -> None:
        report = benchmark.pedantic(
            lambda: run_experiment(name, scale), rounds=1, iterations=1
        )
        print()
        print(report.render())
        assert report.tables, f"experiment {name} produced no tables"

    return _regenerate

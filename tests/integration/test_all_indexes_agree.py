"""Integration: every index returns exactly the Scan results, always.

This is the oracle-agreement invariant of docs/ARCHITECTURE.md ("The
invariants") — the strongest end-to-end check the library has.  Each
index runs over shared query sequences on both dataset families,
including mixed selectivities, boundary-hugging windows, and degenerate
windows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    MosaicIndex,
    RTreeIndex,
    SFCIndex,
    SFCrackerIndex,
    UniformGridIndex,
)
from repro.core import QuasiiIndex
from repro.geometry import Box
from repro.queries import RangeQuery

from tests.conftest import assert_matches_scan


def make_index(kind, ds):
    """Fresh index over a private copy of the dataset store."""
    store = ds.store.copy()
    if kind == "quasii":
        return QuasiiIndex(store)
    if kind == "rtree":
        idx = RTreeIndex(store)
        idx.build()
        return idx
    if kind == "grid-ext":
        idx = UniformGridIndex(store, ds.universe, 20, "query_extension")
        idx.build()
        return idx
    if kind == "grid-rep":
        idx = UniformGridIndex(store, ds.universe, 20, "replication")
        idx.build()
        return idx
    if kind == "sfc":
        idx = SFCIndex(store, ds.universe)
        idx.build()
        return idx
    if kind == "sfcracker":
        return SFCrackerIndex(store, ds.universe)
    if kind == "mosaic":
        return MosaicIndex(store, ds.universe)
    raise ValueError(kind)


ALL_KINDS = ["quasii", "rtree", "grid-ext", "grid-rep", "sfc", "sfcracker", "mosaic"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_matches_scan_on_uniform(kind, uniform_ds, uniform_queries):
    index = make_index(kind, uniform_ds)
    assert_matches_scan(index, uniform_ds, uniform_queries)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_matches_scan_on_clustered(kind, neuro_ds, clustered_queries):
    index = make_index(kind, neuro_ds)
    assert_matches_scan(index, neuro_ds, clustered_queries)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_boundary_and_degenerate_windows(kind, uniform_ds):
    side = uniform_ds.universe.hi[0]
    queries = [
        # Whole universe.
        RangeQuery(uniform_ds.universe, 0),
        # Degenerate plane and point windows.
        RangeQuery(Box((side / 2, 0.0, 0.0), (side / 2, side, side)), 1),
        RangeQuery(Box((side / 2,) * 3, (side / 2,) * 3), 2),
        # Hugging the lower and upper corners.
        RangeQuery(Box((0.0,) * 3, (side * 0.05,) * 3), 3),
        RangeQuery(Box((side * 0.95,) * 3, (side,) * 3), 4),
        # Entirely outside the data (legal: window beyond the universe).
        RangeQuery(Box((side * 2,) * 3, (side * 3,) * 3), 5),
    ]
    index = make_index(kind, uniform_ds)
    assert_matches_scan(index, uniform_ds, queries)


@pytest.mark.parametrize("kind", ["quasii", "sfcracker", "mosaic"])
def test_incremental_indexes_stay_correct_under_repeats(kind, uniform_ds, uniform_queries):
    """Re-running the same workload twice must give identical answers —
    the second pass runs on a (partially) refined structure."""
    index = make_index(kind, uniform_ds)
    first = [np.sort(index.query(q)) for q in uniform_queries]
    second = [np.sort(index.query(q)) for q in uniform_queries]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_quasii_structure_valid_after_mixed_workloads(uniform_ds, uniform_queries):
    index = make_index("quasii", uniform_ds)
    for q in uniform_queries:
        index.query(q)
    index.validate_structure()

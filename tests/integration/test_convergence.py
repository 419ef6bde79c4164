"""Integration: incremental indexes converge.

After enough queries in a region, further queries there must perform zero
reorganization, and incremental work must shrink monotonically in
aggregate.  These are the mechanisms behind the paper's Figures 7–9.
"""

from __future__ import annotations

import pytest

from repro.baselines import MosaicIndex, RTreeIndex, SFCrackerIndex
from repro.core import QuasiiIndex
from repro.queries import clustered_workload


@pytest.fixture(scope="module")
def repeated_region_queries(neuro_ds):
    """Many queries hammering one small region (one paper 'cluster')."""
    return clustered_workload(
        neuro_ds.universe, n_clusters=1, queries_per_cluster=60,
        volume_fraction=1e-4, seed=33,
    )


class TestQuasiiConvergence:
    def test_cracking_ceases_in_hammered_region(self, neuro_ds, repeated_region_queries):
        index = QuasiiIndex(neuro_ds.store.copy())
        for q in repeated_region_queries:
            index.query(q)
        cracks = index.stats.cracks
        rows = index.stats.rows_reorganized
        # Replay the same region: fully refined, nothing to reorganize.
        for q in repeated_region_queries[:10]:
            index.query(q)
        assert index.stats.cracks == cracks
        assert index.stats.rows_reorganized == rows

    def test_objects_tested_approaches_result_size(self, neuro_ds, repeated_region_queries):
        index = QuasiiIndex(neuro_ds.store.copy())
        for q in repeated_region_queries:
            index.query(q)
        index.stats.reset()
        q = repeated_region_queries[0]
        hits = index.query(q)
        # Converged: only bottom slices overlapping the window are scanned,
        # bounded by a few leaves of tau objects each.
        tau = index.config.leaf_threshold
        assert index.stats.objects_tested <= max(4 * tau, 8 * hits.size + 2 * tau)

    def test_work_decays_across_query_sequence(self, neuro_ds, repeated_region_queries):
        index = QuasiiIndex(neuro_ds.store.copy())
        moved = []
        for q in repeated_region_queries:
            before = index.stats.rows_reorganized
            index.query(q)
            moved.append(index.stats.rows_reorganized - before)
        first_five = sum(moved[:5])
        last_five = sum(moved[-5:])
        assert last_five < first_five / 10

    def test_untouched_regions_stay_coarse(self, uniform_ds):
        index = QuasiiIndex(uniform_ds.store.copy())
        qs = clustered_workload(
            uniform_ds.universe, n_clusters=1, queries_per_cluster=20,
            volume_fraction=1e-4, seed=44,
        )
        for q in qs:
            index.query(q)
        counts = index.slice_counts()
        # Far fewer slices than a full build would create (n/tau leaves).
        full_leaves = uniform_ds.n / index.config.leaf_threshold
        assert counts[-1] < full_leaves / 2, (
            "only the queried region should be refined"
        )


class TestSFCrackerConvergence:
    def test_repeat_region_stops_cracking(self, neuro_ds, repeated_region_queries):
        index = SFCrackerIndex(neuro_ds.store.copy(), neuro_ds.universe)
        for q in repeated_region_queries:
            index.query(q)
        cracks = index.stats.cracks
        for q in repeated_region_queries[:10]:
            index.query(q)
        assert index.stats.cracks == cracks


class TestMosaicConvergence:
    def test_depth_stabilizes(self, neuro_ds, repeated_region_queries):
        index = MosaicIndex(neuro_ds.store.copy(), neuro_ds.universe)
        for q in repeated_region_queries:
            index.query(q)
        depth = index.max_depth_reached()
        splits = index.stats.cracks
        for q in repeated_region_queries[:10]:
            index.query(q)
        assert index.max_depth_reached() == depth
        assert index.stats.cracks == splits


class TestConvergedPerformanceParity:
    def test_quasii_converged_work_comparable_to_rtree(self, neuro_ds):
        """The paper's headline (Fig. 9a): converged QUASII touches about
        as few objects per query as the R-Tree."""
        qs = clustered_workload(
            neuro_ds.universe, 1, 80, volume_fraction=1e-4, seed=55
        )
        quasii = QuasiiIndex(neuro_ds.store.copy())
        for q in qs:
            quasii.query(q)
        rtree = RTreeIndex(neuro_ds.store.copy())
        rtree.build()
        quasii.stats.reset()
        rtree.stats.reset()
        for q in qs[:20]:
            quasii.query(q)
            rtree.query(q)
        assert quasii.stats.objects_tested <= 3 * max(rtree.stats.objects_tested, 1)

"""Ablation benches for the design choices docs/BENCH.md lists.

* slice-assignment representative (paper footnote 1: lower/center/upper);
* QUASII's single parameter tau (the paper fixes 60);
* STR bulk loading vs Guttman insertion (the paper's Section 6.1 rationale).
"""


def test_ablation_representative(benchmark, smoke_scale, regenerate):
    regenerate(benchmark, "ablation-rep", smoke_scale)


def test_ablation_tau(benchmark, smoke_scale, regenerate):
    regenerate(benchmark, "ablation-tau", smoke_scale)


def test_ablation_artificial_split(benchmark, smoke_scale, regenerate):
    regenerate(benchmark, "ablation-split", smoke_scale)


def test_ablation_sequential_access(benchmark, smoke_scale, regenerate):
    regenerate(benchmark, "ablation-sequential", smoke_scale)


def test_ablation_rtree_build(benchmark, smoke_scale, regenerate):
    regenerate(benchmark, "ablation-rtree", smoke_scale)

"""Property tests: the dispatch backends are observationally equal.

Hypothesis drives an initial dataset plus an arbitrary interleaving of
first-class queries (across predicates and result modes), insert
batches, delete batches, and compactions.  The same interleaving runs
against one engine per executor backend — ``sequential`` and
``processes`` — with the executors kept alive across operations, so
the process pool must survive every epoch bump (insert/delete/compact
between batches) by republishing its shared-memory segments.

Invariants, after every single operation:

* **Oracle agreement** — each backend's payload matches the Scan
  oracle: equal counts, equal id sets, and (for ``boxes``/``top_k``)
  equal corner matrices, no matter which backend served it.
* **Id-stream agreement** — inserts assign identical identifiers on
  every engine, so the ledger stays a single source of truth.
* **Ledger closure** — a final full-window query returns exactly the
  ledger's live id set on every backend.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import ScanIndex
from repro.core import QuasiiConfig, QuasiiIndex
from repro.datasets import BoxStore
from repro.geometry import Box
from repro.queries import Query
from repro.sharding import QueryExecutor, ShardedIndex
from repro.updates import UpdateLedger

UNIVERSE_SIDE = 100.0

BACKENDS = ("sequential", "processes")

#: The query shapes the interleavings draw from: (predicate, mode, k).
QUERY_SHAPES = (
    ("intersects", "ids", None),
    ("intersects", "count", None),
    ("intersects", "top_k", 2),
    ("within", "ids", None),
    ("contains", "boxes", None),
)


@st.composite
def dataset_and_ops(draw, ndim=2):
    n = draw(st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    lo = rng.uniform(0, UNIVERSE_SIDE, size=(n, ndim))
    hi = np.minimum(lo + rng.uniform(0, 10, size=(n, ndim)), UNIVERSE_SIDE)

    n_ops = draw(st.integers(1, 10))
    ops = []
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(["query", "query", "insert", "delete", "compact"])
        )
        if kind == "query":
            predicate, mode, k = draw(st.sampled_from(QUERY_SHAPES))
            qlo = rng.uniform(-10, UNIVERSE_SIDE, size=ndim)
            qhi = qlo + rng.uniform(0, 60, size=ndim)
            ops.append(("query", (Box(tuple(qlo), tuple(qhi)), predicate, mode, k)))
        elif kind == "insert":
            k = draw(st.integers(1, 5))
            blo = rng.uniform(0, UNIVERSE_SIDE, size=(k, ndim))
            bhi = np.minimum(blo + rng.uniform(0, 8, size=(k, ndim)), UNIVERSE_SIDE)
            ops.append(("insert", (blo, bhi)))
        elif kind == "delete":
            ops.append(
                ("delete", (draw(st.integers(1, 6)), draw(st.integers(0, 2**31 - 1))))
            )
        else:
            ops.append(("compact", None))
    return (lo, hi), ops


def _check_payload(result, want, label):
    assert result.count == want.count, f"{label}: count diverged"
    if want.query.mode == "count":
        assert result.ids is None
        return
    order_got = np.argsort(result.ids)
    order_want = np.argsort(want.ids)
    assert np.array_equal(result.ids[order_got], want.ids[order_want]), (
        f"{label}: id sets diverged"
    )
    if want.query.mode in ("boxes", "top_k"):
        for side in (0, 1):
            assert np.array_equal(
                result.boxes[side][order_got], want.boxes[side][order_want]
            ), f"{label}: box payload diverged"


@given(dataset_and_ops())
@settings(max_examples=10, deadline=None)
def test_backends_agree_with_scan_under_interleavings(case):
    (lo, hi), ops = case
    scan = ScanIndex(BoxStore(lo.copy(), hi.copy()))
    engines = {
        backend: ShardedIndex(
            BoxStore(lo.copy(), hi.copy()),
            n_shards=3,
            partitioner="str",
            index_factory=lambda s: QuasiiIndex(
                s, QuasiiConfig(2, (8, 4)), max_runs=2
            ),
        )
        for backend in BACKENDS
    }
    ledger = UpdateLedger(scan.store)

    with ExitStack() as stack:
        executors = {
            backend: stack.enter_context(
                QueryExecutor(
                    engine,
                    max_workers=1 if backend == "sequential" else 2,
                    backend=backend,
                )
            )
            for backend, engine in engines.items()
        }

        seq = 0
        for kind, payload in ops:
            if kind == "query":
                window, predicate, mode, k = payload
                query = Query(window, predicate=predicate, mode=mode, k=k, seq=seq)
                seq += 1
                want = scan.execute(query)
                for backend, ex in executors.items():
                    batch = ex.run([query])
                    _check_payload(
                        batch.query_results[0],
                        want,
                        f"{backend} on query {query.seq}",
                    )
            elif kind == "insert":
                blo, bhi = payload
                expect_ids = scan.insert(blo, bhi)
                for backend, engine in engines.items():
                    assert np.array_equal(engine.insert(blo, bhi), expect_ids), (
                        f"{backend}: id stream diverged"
                    )
                ledger.record_insert(blo, bhi, expect_ids)
            elif kind == "delete":
                count, victim_seed = payload
                live = ledger.live_ids()
                count = min(count, live.size)
                if count == 0:
                    continue
                victims = np.random.default_rng(victim_seed).choice(
                    live, size=count, replace=False
                )
                assert scan.delete(victims) == count
                for engine in engines.values():
                    assert engine.delete(victims) == count
                ledger.record_delete(victims)
            else:  # compact
                scan.compact()
                for backend, engine in engines.items():
                    fp = engine.store.live_fingerprint()
                    engine.compact()
                    assert engine.store.live_fingerprint() == fp, (
                        f"{backend}: compaction changed the live multiset"
                    )

        full = Query(
            Box((-1.0, -1.0), (UNIVERSE_SIDE + 1.0,) * 2), seq=10_000
        )
        want = scan.execute(full)
        assert np.array_equal(np.sort(want.ids), ledger.live_ids())
        for backend, ex in executors.items():
            batch = ex.run([full])
            _check_payload(
                batch.query_results[0], want, f"{backend} on the full window"
            )
    for engine in engines.values():
        ledger.assert_matches(engine.store)

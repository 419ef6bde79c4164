"""Wire format for the process boundary: query batches and result sets.

Dispatch ships *per-shard sub-batches*, so the unit of IPC is one
:class:`QueryBatchWire` per (shard, batch) pair — a handful of small
numpy arrays rather than a list of Python objects.  Frozen
:class:`~repro.queries.query.Query` specs are flattened to coordinate
matrices plus code vectors (predicates and result modes become indexes
into the canonical :data:`~repro.queries.query.PREDICATES` /
:data:`~repro.queries.query.RESULT_MODES` tuples); results come back as
id/count arrays with offset vectors in the classic concatenated-ragged
layout.  Everything on the wire is a dataclass of ndarrays and ints —
picklable by construction (QL008), and numpy arrays pickle as near-raw
buffer copies, so a sub-batch round trip costs microseconds, amortized
over the whole sub-batch's refine work.

The decoder rebuilds real :class:`Query` objects (validation included)
on the worker side and real :class:`QueryResult` objects on the driver
side, so neither side ever handles half-typed payloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParallelError
from repro.geometry.box import Box
from repro.queries.query import PREDICATES, RESULT_MODES, Query, QueryResult

__all__ = [
    "QueryBatchWire",
    "ResultBatchWire",
    "decode_queries",
    "decode_results",
    "encode_queries",
    "encode_results",
]

_PREDICATE_CODE = {name: i for i, name in enumerate(PREDICATES)}
_MODE_CODE = {name: i for i, name in enumerate(RESULT_MODES)}


@dataclass(frozen=True)
class QueryBatchWire:
    """One shard sub-batch of queries, flattened to arrays.

    ``ks`` uses ``-1`` for "no top-k limit" (``k=None``); ``predicates``
    and ``modes`` index the canonical tuples, so an unknown code fails
    loudly at decode instead of silently misrouting a predicate.
    """

    lo: np.ndarray  # (q, d) float64 window lower corners
    hi: np.ndarray  # (q, d) float64 window upper corners
    predicates: np.ndarray  # (q,) uint8 codes into PREDICATES
    modes: np.ndarray  # (q,) uint8 codes into RESULT_MODES
    ks: np.ndarray  # (q,) int64 top-k limits, -1 = None
    seqs: np.ndarray  # (q,) int64 workload sequence numbers

    @property
    def n_queries(self) -> int:
        return int(self.lo.shape[0])


@dataclass(frozen=True)
class ResultBatchWire:
    """One shard sub-batch of results: counts + ragged id/box arrays.

    ``id_offsets``/``box_offsets`` are length ``q+1`` prefix vectors;
    query ``i``'s ids are ``ids[id_offsets[i]:id_offsets[i+1]]``.
    Count-mode queries contribute zero ids, id-mode queries zero box
    rows — the decoder knows each query's mode and restores ``None``
    payloads exactly as a local execution would have produced them.
    ``seconds`` carries the per-query equal-share timings the shard
    index stamped, so driver-side latency accounting matches the
    inline backend sample for sample.
    """

    counts: np.ndarray  # (q,) int64 match counts
    ids: np.ndarray  # (sum,) int64 concatenated id payloads
    id_offsets: np.ndarray  # (q+1,) int64
    box_lo: np.ndarray  # (m, d) float64 concatenated box corners
    box_hi: np.ndarray  # (m, d) float64
    box_offsets: np.ndarray  # (q+1,) int64
    seconds: np.ndarray  # (q,) float64 per-query seconds


def encode_queries(queries: list[Query]) -> QueryBatchWire:
    """Flatten a sub-batch of queries for the pipe (driver-side)."""
    q = len(queries)
    if q == 0:
        raise ParallelError("cannot encode an empty query sub-batch")
    d = queries[0].ndim
    lo = np.empty((q, d), dtype=np.float64)
    hi = np.empty((q, d), dtype=np.float64)
    predicates = np.empty(q, dtype=np.uint8)
    modes = np.empty(q, dtype=np.uint8)
    ks = np.empty(q, dtype=np.int64)
    seqs = np.empty(q, dtype=np.int64)
    for i, query in enumerate(queries):
        lo[i] = query.lo
        hi[i] = query.hi
        predicates[i] = _PREDICATE_CODE[query.predicate]
        modes[i] = _MODE_CODE[query.mode]
        ks[i] = -1 if query.k is None else query.k
        seqs[i] = query.seq
    return QueryBatchWire(
        lo=lo, hi=hi, predicates=predicates, modes=modes, ks=ks, seqs=seqs
    )


def decode_queries(wire: QueryBatchWire) -> list[Query]:
    """Rebuild validated :class:`Query` objects (worker-side)."""
    out: list[Query] = []
    for i in range(wire.n_queries):
        predicate_code = int(wire.predicates[i])
        mode_code = int(wire.modes[i])
        if predicate_code >= len(PREDICATES) or mode_code >= len(RESULT_MODES):
            raise ParallelError(
                f"corrupt query wire: predicate code {predicate_code}, "
                f"mode code {mode_code}"
            )
        k = int(wire.ks[i])
        out.append(
            Query(
                window=Box(tuple(wire.lo[i]), tuple(wire.hi[i])),
                predicate=PREDICATES[predicate_code],
                mode=RESULT_MODES[mode_code],
                k=None if k < 0 else k,
                seq=int(wire.seqs[i]),
            )
        )
    return out


def encode_results(results: list[QueryResult], ndim: int) -> ResultBatchWire:
    """Flatten a sub-batch of results for the pipe (worker-side)."""
    q = len(results)
    counts = np.empty(q, dtype=np.int64)
    seconds = np.empty(q, dtype=np.float64)
    id_offsets = np.zeros(q + 1, dtype=np.int64)
    box_offsets = np.zeros(q + 1, dtype=np.int64)
    id_parts: list[np.ndarray] = []
    lo_parts: list[np.ndarray] = []
    hi_parts: list[np.ndarray] = []
    for i, result in enumerate(results):
        counts[i] = result.count
        seconds[i] = result.seconds
        n_ids = 0
        if result.ids is not None:
            n_ids = int(result.ids.size)
            if n_ids:
                id_parts.append(result.ids)
        id_offsets[i + 1] = id_offsets[i] + n_ids
        n_boxes = 0
        if result.boxes is not None:
            n_boxes = int(result.boxes[0].shape[0])
            if n_boxes:
                lo_parts.append(result.boxes[0])
                hi_parts.append(result.boxes[1])
        box_offsets[i + 1] = box_offsets[i] + n_boxes
    empty_boxes = np.empty((0, ndim), dtype=np.float64)
    return ResultBatchWire(
        counts=counts,
        ids=(
            np.concatenate(id_parts)
            if id_parts
            else np.empty(0, dtype=np.int64)
        ),
        id_offsets=id_offsets,
        box_lo=np.concatenate(lo_parts) if lo_parts else empty_boxes,
        box_hi=np.concatenate(hi_parts) if hi_parts else empty_boxes.copy(),
        box_offsets=box_offsets,
        seconds=seconds,
    )


def decode_results(
    wire: ResultBatchWire, queries: list[Query]
) -> list[QueryResult]:
    """Rebuild per-query :class:`QueryResult` payloads (driver-side).

    ``queries`` must be the sub-batch the wire answers, in dispatch
    order — each query's mode decides whether its id/box slices decode
    to arrays or to ``None``, mirroring a local shard execution.
    """
    if wire.counts.shape[0] != len(queries):
        raise ParallelError(
            f"result wire answers {wire.counts.shape[0]} queries, "
            f"expected {len(queries)}"
        )
    out: list[QueryResult] = []
    for i, query in enumerate(queries):
        ids: np.ndarray | None = None
        boxes: tuple[np.ndarray, np.ndarray] | None = None
        if query.mode != "count":
            ids = wire.ids[int(wire.id_offsets[i]): int(wire.id_offsets[i + 1])]
            if query.mode in ("boxes", "top_k"):
                b0 = int(wire.box_offsets[i])
                b1 = int(wire.box_offsets[i + 1])
                boxes = (wire.box_lo[b0:b1], wire.box_hi[b0:b1])
        out.append(
            QueryResult(
                query=query,
                count=int(wire.counts[i]),
                ids=ids,
                boxes=boxes,
                stats=None,
                seconds=float(wire.seconds[i]),
            )
        )
    return out

"""Process-parallel shard serving over shared-memory stores.

Under the GIL, threads could only interleave shard work, not run it
in parallel — refinement kernels release it only inside numpy calls,
and the adaptive cracking that makes QUASII fast is pure Python.  This
package moves shard serving into real OS processes without paying data
movement:

* :mod:`~repro.parallel.shm` — shard snapshots as shared-memory
  *segments*, with :class:`~repro.parallel.shm.SharedStoreView` giving
  workers a zero-copy :class:`~repro.datasets.store.BoxStore` over the
  mapping.
* :mod:`~repro.parallel.wire` — compact numpy wire structures for the
  query/result round trip (per-shard sub-batches are the dispatch
  unit, exactly as in the inline backend).
* :mod:`~repro.parallel.worker` — the worker loop: attach, rebuild a
  warm local index, serve, report telemetry.
* :mod:`~repro.parallel.pool` — the driver:
  :class:`~repro.parallel.pool.ProcessPool` owns segment lifecycle
  (publish on epoch bump, destroy on retire), worker lifecycle
  (spawn, crash-respawn, shutdown), and the telemetry fold-back.

The user-facing switch is the executor seam:
``QueryExecutor(engine, backend="processes")`` (or
``QUASII_EXECUTOR_BACKEND=processes``); everything here is machinery
behind it.
"""

from repro.parallel.pool import ProcessPool, resolve_start_method
from repro.parallel.shm import (
    SegmentSpec,
    ShardSegment,
    SharedStoreView,
    attach_segment,
    publish_segment,
    segment_nbytes,
)
from repro.parallel.wire import (
    QueryBatchWire,
    ResultBatchWire,
    decode_queries,
    decode_results,
    encode_queries,
    encode_results,
)
from repro.parallel.worker import (
    WORK_COUNTERS,
    PipeEndpoint,
    ProcessShardWorker,
    worker_main,
)

__all__ = [
    "PipeEndpoint",
    "ProcessPool",
    "ProcessShardWorker",
    "QueryBatchWire",
    "ResultBatchWire",
    "SegmentSpec",
    "ShardSegment",
    "SharedStoreView",
    "WORK_COUNTERS",
    "attach_segment",
    "decode_queries",
    "decode_results",
    "encode_queries",
    "encode_results",
    "publish_segment",
    "resolve_start_method",
    "segment_nbytes",
    "worker_main",
]

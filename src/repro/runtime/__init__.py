"""Dataset-scale execution runtime: a streaming, sharded dataflow.

GenPIP's reads are independent, so dataset throughput is an execution
and *data-movement* problem, not an algorithmic one. This package
supplies the execution layer as a streaming dataflow:

* :mod:`repro.runtime.source` -- :class:`ReadSource` implementations
  (in-memory sequence, lazy simulator generator, incremental on-disk
  read store, and the signal-native :class:`SignalStoreSource` that
  streams stored raw current straight into a signal-space basecaller),
  pulled inline by the engine -- the worker processes are what
  overlaps input with execution;
* :mod:`repro.runtime.sharding` -- streaming work-unit planning, a
  fixed number of reads per unit;
* :mod:`repro.runtime.columnar` -- the single columnar batch layout
  (:class:`ColumnarLayout` / :class:`ColumnarBatch`) shared by the
  transport, the kernel plane, and the sinks: planned once, packed
  once, viewed everywhere else;
* :mod:`repro.runtime.transport` -- shared-memory publication of read
  and signal payloads plus the minimizer index (workers receive
  handles, not pickles, and attach read-only views held by a
  :class:`~repro.runtime.transport.SegmentLease`);
* :mod:`repro.runtime.pool` -- :class:`WorkerPool`, the one worker
  plane under batch and serving and the one place a unit is executed:
  the :class:`~repro.core.pipeline.GenPIPPipeline` itself handed to each
  worker as it starts, index published once, one pipe per worker read
  by the scheduler's own thread, ``submit(unit)`` over shared memory
  with an automatic pickle fallback, segment release, Ctrl-C-safe stop,
  and ``execute(unit)``, which runs the unit in this process whenever
  there are no worker processes;
* :mod:`repro.runtime.merge` -- :class:`ShardCollector`, the
  order-preserving streaming merge that releases the completed prefix;
* :mod:`repro.runtime.sink` -- :class:`ReportSink` consumers of that
  prefix (in-memory report, incremental JSONL with lossless replay);
* :mod:`repro.runtime.engine` -- :class:`DatasetEngine`, an ordered
  bounded in-flight window of ``execute`` futures over a source, the
  same loop with or without processes;
* :mod:`repro.runtime.cli` -- the ``python -m repro.runtime`` entry
  point for scriptable (CI) runs, and the one place the dataset and
  pipeline flags are declared, checked and turned into a pipeline
  (``python -m repro.serving`` calls it).

The load-bearing invariant, asserted by ``tests/test_runtime.py`` and
``tests/test_runtime_streaming.py``: for any worker count and any
source x sink combination -- shared memory or the pickle fallback
underneath -- the merged result is identical to the sequential run's:
same outcomes, same order, same counters.
"""

from repro.runtime.columnar import ColumnarBatch, ColumnarLayout
from repro.runtime.engine import DatasetEngine, RuntimeStats
from repro.runtime.merge import ShardCollector, ShardResult
from repro.runtime.pool import WorkerPool
from repro.runtime.sharding import (
    WorkUnit,
    iter_work,
    plan_work,
    resolve_batch_size,
    resolve_workers,
)
from repro.runtime.sink import (
    JSONLSink,
    MemorySink,
    NullSink,
    ReportSink,
    iter_outcomes_jsonl,
    outcome_from_record,
    outcome_to_record,
    replay_report,
)
from repro.runtime.source import (
    IterableSource,
    ReadSource,
    SequenceSource,
    SignalStoreSource,
    SimulatorSource,
    StoreSource,
    as_read_source,
)
from repro.runtime.transport import (
    SegmentLease,
    SharedIndexHandle,
    active_segments,
    attach_index,
    publish_index,
    release_all,
    worker_leases,
)

__all__ = [
    "ColumnarBatch",
    "ColumnarLayout",
    "DatasetEngine",
    "IterableSource",
    "JSONLSink",
    "MemorySink",
    "NullSink",
    "ReadSource",
    "ReportSink",
    "RuntimeStats",
    "SegmentLease",
    "SequenceSource",
    "ShardCollector",
    "ShardResult",
    "SharedIndexHandle",
    "SignalStoreSource",
    "SimulatorSource",
    "StoreSource",
    "WorkUnit",
    "WorkerPool",
    "active_segments",
    "as_read_source",
    "attach_index",
    "iter_outcomes_jsonl",
    "iter_work",
    "outcome_from_record",
    "outcome_to_record",
    "plan_work",
    "publish_index",
    "release_all",
    "replay_report",
    "resolve_batch_size",
    "resolve_workers",
    "worker_leases",
]

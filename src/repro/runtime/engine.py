"""The dataset execution engine: a streaming dataflow over one worker pool.

:class:`DatasetEngine` wires the runtime's four streaming layers into
one run:

1. a :class:`~repro.runtime.source.ReadSource` supplies reads (in
   memory, lazily simulated, or decoded incrementally from an on-disk
   container -- base-space reads or signal-native raw current via
   :class:`~repro.runtime.source.SignalStoreSource`), pulled inline by
   the window loop -- the parent of a run is one thread, and the worker
   processes are what overlaps the source;
2. :func:`~repro.runtime.sharding.iter_work` plans ordered
   :class:`~repro.runtime.sharding.WorkUnit`\\ s from the stream, a
   fixed number of reads each;
3. units execute through a bounded in-flight window of
   :meth:`WorkerPool.execute <repro.runtime.pool.WorkerPool.execute>`
   futures -- the pool owns the processes, the index's shared-memory
   publication and its pickle fallback, the units' trip down the worker
   pipes and the in-process execution of units when there are no
   processes (see :mod:`repro.runtime.pool`), and this thread reads the
   worker pipes itself
   (:func:`multiprocessing.connection.wait`);
4. the ordered completed prefix streams out of the
   :class:`~repro.runtime.merge.ShardCollector` into a
   :class:`~repro.runtime.sink.ReportSink` as it grows, so parent-side
   outcome retention is O(batch) with a streaming sink.

The engine's contract mirrors the paper's "no accuracy loss from
pipeline restructuring" claim at the software level: for **every**
source x sink combination, a run with any worker count
yields the same outcomes in the same order with the same counters as
the sequential run. ``tests/test_runtime_streaming.py`` asserts the
full matrix.

Failure handling preserves both the contract and resources. There is
one path: a run with ``workers <= 1``, a pool that could not start and
a pool retired mid-run differ only in where ``execute`` runs the next
unit. Units a broken pool lost are executed again, nothing already
emitted is re-emitted, and the index segment is released on success,
worker failure, broken pool and engine crash alike
(:func:`repro.runtime.transport.active_segments` is the leak probe
tests use). A source that raises mid-stream fails the run with its own
exception after every unit planned before it has reached the sink, so
what a failed run leaves behind does not depend on the worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import CancelledError, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.connection import wait

from repro.core.genpip import GenPIPReport
from repro.core.pipeline import GenPIPPipeline
from repro.obs.metrics import (
    COPIED_BYTES,
    MAPPING_OPS,
    process_registry,
    snapshot_delta,
)
from repro.obs.trace import ReadTrace, decode_traces
from repro.runtime.merge import ShardCollector
from repro.runtime.pool import WorkerPool
from repro.runtime.sharding import WorkUnit, iter_work, resolve_batch_size, resolve_workers
from repro.runtime.sink import MemorySink, ReportSink
from repro.runtime.source import ReadSource, as_read_source

#: In-flight work units per worker (bounds parent memory and keeps the
#: pool saturated while the source streams).
_INFLIGHT_PER_WORKER = 2


@dataclass(frozen=True)
class RuntimeStats:
    """Bookkeeping of one engine run (never part of the report itself,
    so serialized reports stay bit-identical across worker counts).

    ``inflight_window`` is the "a pooled phase existed" marker: zero
    for a run that never had processes, while a run whose pool was
    retired midway reports ``mode="serial"`` but keeps the window it
    started with.
    """

    mode: str  # "serial" | "process-pool"
    workers: int  # the pool's size: the request, capped to the unit count
    batch_size: int
    n_shards: int
    n_reads: int
    elapsed_s: float
    #: How the index reached the workers (observed, not requested):
    #: a shared segment, pickled, or "none" without processes.
    transport: str = "none"  # "none" | "shm" | "pickle"
    inflight_window: int = 0  # max work units submitted concurrently
    #: Worker-side payload bytes copied to obtain reads -- the merged
    #: per-unit registry deltas. Zero for a pooled run: workers view
    #: the image they received.
    bytes_copied: int = 0
    #: Parent-side payload bytes packed into unit images ("publish"
    #: boundary). Paid by every pooled run -- the image *is* the
    #: batch -- so it is reported separately from the gated copy
    #: figure above.
    bytes_published: int = 0

    @property
    def reads_per_sec(self) -> float:
        return self.n_reads / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def bytes_copied_per_read(self) -> float:
        """Worker-side copied bytes per read -- the bench's gated metric."""
        return self.bytes_copied / self.n_reads if self.n_reads > 0 else 0.0

    @classmethod
    def from_registry(
        cls,
        worker_metrics: dict,
        parent_delta: dict,
        **fields,
    ) -> "RuntimeStats":
        """Build stats with the byte accounting read from registry deltas.

        ``worker_metrics`` is the merged worker-side snapshot delta
        (:attr:`~repro.runtime.merge.ShardCollector.metrics`) --
        its ``genpip_copied_bytes`` movement *is* the worker-side copy
        traffic. ``parent_delta`` is the parent process's own registry
        movement over the run -- its ``"publish"`` movement *is* the
        published-bytes figure. The remaining fields pass through to the
        constructor.
        """
        worker_copies = worker_metrics.get(COPIED_BYTES, {}).get("values", {})
        parent_copies = parent_delta.get(COPIED_BYTES, {}).get("values", {})
        return cls(
            bytes_copied=int(sum(worker_copies.values())),
            bytes_published=int(parent_copies.get("publish", 0)),
            **fields,
        )


class DatasetEngine:
    """Streaming dataset executor around one pipeline configuration.

    Parameters
    ----------
    pipeline:
        The :class:`GenPIPPipeline` every unit runs on (see
        :class:`~repro.runtime.pool.WorkerPool`).
    workers:
        Pool size; ``0``/``1`` run serially in-process.
    batch_size:
        Reads per work unit; ``None`` auto-sizes from the source's size
        hint.
    sink:
        Outcome consumer; ``None`` accumulates in memory into a full
        report (the classic behaviour). A
        :class:`~repro.runtime.sink.JSONLSink` keeps parent retention
        at O(batch) and its finished report carries counters only.
    trace:
        Record span traces in every process of the run
        (:attr:`last_trace`).
    """

    def __init__(
        self,
        pipeline: GenPIPPipeline,
        *,
        workers: int = 1,
        batch_size: int | None = None,
        sink: ReportSink | None = None,
        trace: bool = False,
    ):
        self._pipeline = pipeline
        self._trace = trace
        self._workers = resolve_workers(workers)
        self._batch_size = batch_size
        self._sink = sink
        self._last_stats: RuntimeStats | None = None
        self._last_trace: list[ReadTrace] | None = None

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def last_stats(self) -> RuntimeStats | None:
        """Stats of the most recent :meth:`run` (None before any run)."""
        return self._last_stats

    @property
    def last_trace(self) -> list[ReadTrace] | None:
        """Dataset-ordered span traces of the most recent traced run
        (None before any run or when the engine was built without
        ``trace=True``)."""
        return self._last_trace

    def run(self, dataset) -> GenPIPReport:
        """Process a dataset / read source / sequence of reads.

        Returns the sink's finished report: the full per-read report
        with the default in-memory sink, or a counters-only summary
        with a streaming sink (the per-read records then live wherever
        the sink put them).
        """
        source = as_read_source(dataset)
        sink = self._sink if self._sink is not None else MemorySink()
        hint = source.size_hint()
        batch_size = resolve_batch_size(hint, self._workers, self._batch_size)
        # A sized source bounds the useful pool: never start more
        # workers than the ceil(hint / batch) units there will be.
        pool_workers = self._workers
        if hint is not None:
            pool_workers = min(pool_workers, max(-(-hint // batch_size), 1))
        pipeline = self._pipeline
        pool = WorkerPool(pipeline, pool_workers, trace=self._trace)
        collector = ShardCollector()
        started = time.perf_counter()
        registry = process_registry()
        parent_before = registry.snapshot()
        sink.begin(pipeline.config)
        try:
            with pool:
                inflight_window = self._run_window(pool, source, collector, sink, batch_size)
                mode = "process-pool" if pool.alive else "serial"
            report = sink.finish(collector.counters)
        except BaseException:
            sink.abort()
            raise
        parent_delta = snapshot_delta(parent_before, registry.snapshot())
        # Repatriate pooled mapping-kernel op deltas into the parent's
        # process ledger: callers that snapshot the ledger around a run
        # (repro.experiments charging the perf models) see real chain/
        # align counts for pooled runs instead of a ~zero fallback.
        if MAPPING_OPS in collector.metrics:
            registry.absorb(collector.metrics, names=(MAPPING_OPS,))
        self._last_trace = decode_traces(collector.traces) if self._trace else None
        self._last_stats = RuntimeStats.from_registry(
            collector.metrics,
            parent_delta,
            mode=mode,
            workers=pool.workers,
            batch_size=batch_size,
            n_shards=collector.expected_shards or 0,
            n_reads=collector.counters.n_reads,
            elapsed_s=time.perf_counter() - started,
            transport=pool.transport,
            inflight_window=inflight_window,
        )
        return report

    def _emit(self, collector: ShardCollector, sink: ReportSink) -> None:
        """Stream the newly completed ordered prefix into the sink."""
        fresh = collector.drain()
        if fresh:
            sink.emit(fresh)

    def _run_window(
        self,
        pool: WorkerPool,
        source: ReadSource,
        collector: ShardCollector,
        sink: ReportSink,
        batch_size: int,
    ) -> int:
        """Keep a bounded window of units in flight on ``pool``; returns
        the pooled window (0 when there never were processes).

        With processes the window is a few units per worker. Without
        (never any, or none any more) it is 1: ``execute`` returns each
        unit already resolved and it reaches the sink before the next
        one is planned. Either way the next unit is pulled from the
        source inline, here.
        """
        pooled_window = max(pool.workers * _INFLIGHT_PER_WORKER, 2) if pool.alive else 0
        units = iter_work(iter(source), batch_size)
        inflight: dict[Future, WorkUnit] = {}
        n_units = 0
        while True:
            try:
                unit = next(units, None)
            except Exception:
                # The units already submitted are a complete prefix of
                # the dataset: they reach the sink, then the run fails
                # the way the source did.
                while inflight:
                    self._collect_completed(pool, inflight, collector, sink)
                raise
            if unit is None:
                break
            inflight[pool.execute(unit)] = unit
            n_units += 1
            while len(inflight) >= (pooled_window if pool.alive else 1):
                self._collect_completed(pool, inflight, collector, sink)
        while inflight:
            self._collect_completed(pool, inflight, collector, sink)
        collector.set_expected(n_units)
        return pooled_window

    def _collect_completed(
        self,
        pool: WorkerPool,
        inflight: dict[Future, WorkUnit],
        collector: ShardCollector,
        sink: ReportSink,
    ) -> None:
        """Wait for at least one in-flight unit and fold it in.

        The wait reads the worker pipes on this thread. Without
        processes every in-flight future is settled already; with them,
        a pending one is running on, or queued for, a live worker.
        Worker processes can die mid-run (resource exhaustion, a kill):
        a unit the broken pool lost -- failed, or cancelled when the
        pool was retired -- is executed again, in shard order, only
        after every *successful* result of the same wait has been
        collected, so work the pool finished before dying is never
        recomputed and nothing reaches the sink twice.
        """
        done = [future for future in inflight if future.done()]
        while not done:
            for conn in wait(pool.connections):
                pool.receive(conn)
            done = [future for future in inflight if future.done()]
        lost: list[WorkUnit] = []
        for future in done:
            unit = inflight.pop(future)
            try:
                collector.add(future.result())
            except (BrokenProcessPool, CancelledError) as exc:
                pool.retire(exc)
                lost.append(unit)
        self._emit(collector, sink)
        for unit in sorted(lost, key=lambda unit: unit.shard_id):
            collector.add(pool.run_local(unit))
            self._emit(collector, sink)

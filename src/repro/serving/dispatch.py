"""Dispatcher: asyncio sessions -> the warm worker pool, one read at a time.

The batch runtime (:mod:`repro.runtime.engine`) builds a pool per run
and tears it down with the dataset; a *serving* process cannot afford
either end of that -- pool start-up (worker start + the pipeline's trip
to each + index attachment) is orders of magnitude above a single read's
latency budget. :class:`PoolDispatcher` therefore keeps one
:class:`~repro.runtime.pool.WorkerPool` -- the same worker plane the
batch engine runs on -- alive across sessions:

* the pool publishes the minimizer index into shared memory **exactly
  once**, at :meth:`PoolDispatcher.start`, and every worker of every
  session attaches the same segment (``index_publications`` exposes the
  count);
* each read is submitted as a single-read work unit and travels down a
  worker's pipe as its columnar image -- no segment is made per read --
  so verdicts stream back as soon as *that read* resolves, with no
  batch barrier anywhere on the path;
* the event loop reads the worker pipes itself: each worker's pipe is a
  loop reader (registered again whenever a different loop runs the
  dispatcher), so a verdict takes two hand-offs -- loop to worker,
  worker to loop -- with no thread in between;
* with no processes (``workers <= 1``, a pool that could not start, one
  retired after breaking mid-serve) reads run on a single in-process
  worker thread through the same :meth:`WorkerPool.run_local
  <repro.runtime.pool.WorkerPool.run_local>` the batch engine's units
  take -- the service stays up.

Determinism note:
:meth:`~repro.core.pipeline.GenPIPPipeline.process_batch` *is*
``process_read`` per element, so per-read units produce outcome
records byte-identical to any batch run over the same reads -- the
serving layer's standing equivalence invariant.
"""

from __future__ import annotations

import asyncio
import functools
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.core.pipeline import GenPIPPipeline, ReadOutcome
from repro.obs.metrics import MAPPING_OPS, Histogram, MetricsRegistry, process_registry
from repro.obs.trace import ReadTrace, decode_traces
from repro.runtime.pool import WorkerPool
from repro.runtime.sharding import WorkUnit, resolve_workers


@dataclass(frozen=True)
class ServingStats:
    """Bookkeeping of a serving run (the :class:`~repro.runtime.engine
    .RuntimeStats` idiom, extended with session and tail-latency axes).

    ``latency`` is the merged enqueue->verdict histogram over every
    verdict resolved so far, in open and closed sessions alike (the mux
    charges it live at resolve time); the ``p50_ms``/``p95_ms``/``p99_ms``
    properties read the standard percentiles off it. All rate properties
    use the server's own elapsed clock, so a mostly-idle server honestly
    reports low sessions/sec rather than the burst rate of its busiest
    window.
    """

    mode: str  # "process-pool" | "inline"
    workers: int
    transport: str  # how the index reached the workers: "none" | "shm" | "pickle"
    sessions: int
    live_sessions: int
    peak_sessions: int
    reads: int
    verdicts: int
    rejected: int
    elapsed_s: float
    index_publications: int
    latency: Histogram = field(default_factory=Histogram, compare=False)

    @property
    def sessions_per_sec(self) -> float:
        return self.sessions / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def verdicts_per_sec(self) -> float:
        return self.verdicts / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def p50_ms(self) -> float:
        return self.latency.percentile(0.50) * 1e3

    @property
    def p95_ms(self) -> float:
        return self.latency.percentile(0.95) * 1e3

    @property
    def p99_ms(self) -> float:
        return self.latency.percentile(0.99) * 1e3

    @classmethod
    def from_registry(
        cls,
        registry: MetricsRegistry,
        *,
        mode: str,
        workers: int,
        transport: str,
        live_sessions: int,
        elapsed_s: float,
        index_publications: int,
    ) -> "ServingStats":
        """Build the server-wide stats from a mux-owned registry.

        The session/verdict axes are read off the
        ``genpip_serving_*`` instruments the
        :class:`~repro.serving.session.SessionMux` maintains. The
        substrate axes (mode, workers, transport, elapsed clock, index
        publications) are not registry concerns and stay explicit.
        """
        return cls(
            mode=mode,
            workers=workers,
            transport=transport,
            sessions=int(registry.get("genpip_serving_sessions").value()),
            live_sessions=live_sessions,
            peak_sessions=int(registry.get("genpip_serving_peak_sessions").value),
            reads=int(registry.get("genpip_serving_reads").value()),
            verdicts=int(registry.get("genpip_serving_verdicts").value()),
            rejected=int(registry.get("genpip_serving_rejected").value()),
            elapsed_s=elapsed_s,
            index_publications=index_publications,
            latency=registry.get("genpip_serving_latency_seconds"),
        )

    def summary_record(self) -> dict:
        """JSON-safe server block for ``summary`` frames and CLIs."""
        return {
            "mode": self.mode,
            "workers": self.workers,
            "transport": self.transport,
            "sessions": self.sessions,
            "live_sessions": self.live_sessions,
            "peak_sessions": self.peak_sessions,
            "reads": self.reads,
            "verdicts": self.verdicts,
            "rejected": self.rejected,
            "elapsed_s": round(self.elapsed_s, 4),
            "index_publications": self.index_publications,
            "sessions_per_sec": round(self.sessions_per_sec, 3),
            "verdicts_per_sec": round(self.verdicts_per_sec, 3),
            **self.latency.percentiles_ms(),
        }


class PoolDispatcher:
    """The long-lived execution substrate behind the serving front-end.

    ``workers`` means what it means to :class:`~repro.runtime.engine
    .DatasetEngine`; unlike the engine, the pool and the published index
    survive across :meth:`process` calls -- that persistence *is* the
    subsystem.

    :meth:`start` must run before the asyncio loop exists (workers are
    forked while the process is single-threaded, see
    :mod:`repro.runtime.pool`), and :meth:`stop` releases the pool and
    the index segment.
    """

    def __init__(
        self,
        pipeline: GenPIPPipeline,
        *,
        workers: int = 1,
        trace: bool = False,
    ):
        #: The pipeline every read runs on; whether span traces are recorded.
        self.pipeline = pipeline
        self.trace = trace
        self._workers = resolve_workers(workers)
        self._pool = WorkerPool(pipeline, self._workers, trace=trace)
        self._traces: list[tuple] = []
        # One worker thread: without processes reads execute one at a
        # time in-process, off the event loop.
        self._inline: ThreadPoolExecutor | None = None
        # The loop whose readers watch the worker pipes, and their fds.
        self._loop: asyncio.AbstractEventLoop | None = None
        self._watched: list[int] = []
        self._ticket = 0
        self._started = False

    # --- lifecycle ---------------------------------------------------

    def start(self) -> "PoolDispatcher":
        """Warm the pool and publish the index (call before the loop)."""
        if self._started:
            raise RuntimeError("dispatcher already started")
        self._started = True
        self._pool.start()
        return self

    def stop(self) -> None:
        """Stop the pool (index segment included) and the inline worker.
        A Ctrl-C landing while the inline worker is joined stops it
        without waiting instead of propagating."""
        self._unwatch()
        self._pool.stop()
        inline, self._inline = self._inline, None
        if inline is not None:
            try:
                inline.shutdown(wait=True, cancel_futures=True)
            except KeyboardInterrupt:
                inline.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "PoolDispatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --- introspection -----------------------------------------------

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def mode(self) -> str:
        return "process-pool" if self._pool.alive else "inline"

    @property
    def transport(self) -> str:
        """How the index reached the workers ("none" without processes;
        see :attr:`WorkerPool.transport`)."""
        return self._pool.transport

    @property
    def index_publications(self) -> int:
        """How many times the index was published (must stay <= 1)."""
        return self._pool.index_publications

    def drain_traces(self) -> list[ReadTrace]:
        """Completed traces (worker spans plus parent ``dispatch`` spans)
        since the last drain; always empty unless ``trace=True``."""
        traces, self._traces = self._traces, []
        return decode_traces(traces)

    # --- execution ---------------------------------------------------

    async def process(self, read) -> tuple[ReadOutcome, float]:
        """Run one read on the warm substrate; returns (outcome, latency_s).

        Latency is the full enqueue->verdict interval as the client
        experiences it: queueing behind other sessions' reads, payload
        transport, pipeline execution, and the result's trip back. A
        pool that breaks mid-read is retired and the read runs again on
        the inline worker (the service never drops a read).
        """
        enqueued = time.perf_counter()
        self._ticket += 1
        unit = WorkUnit(shard_id=self._ticket, start=0, reads=(read,))
        result = None
        if self._pool.alive:
            try:
                result = await self._on_worker(unit)
            except BrokenProcessPool as exc:
                self._unwatch()
                self._pool.retire(exc)
        if result is None:
            if self._inline is None:
                self._inline = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix="genpip-serve-inline"
                )
            # Traces are drained inside the inline thread (reads run one
            # at a time there), so the loop never races the tracer.
            result = await asyncio.wrap_future(self._inline.submit(self._pool.run_local, unit))
        resolved = time.perf_counter()
        if MAPPING_OPS in result.metrics:
            # Repatriate the worker's mapping-kernel op counts into the
            # parent's process ledger (the batch engine does the same),
            # so perf models built in the serving process see pooled
            # work too.
            process_registry().absorb(result.metrics, names=(MAPPING_OPS,))
        if self.trace:
            self._record_dispatch(read, result.traces, enqueued, resolved)
        return result.outcomes[0], resolved - enqueued

    def _on_worker(self, unit: WorkUnit) -> asyncio.Future:
        """Submit ``unit`` to the pool; returns a loop future for its
        :class:`~repro.runtime.merge.ShardResult`. Cancelling that
        future cancels the unit if it is still queued."""
        loop = asyncio.get_running_loop()
        if self._loop is not loop:
            self._watch(loop)
        future = self._pool.submit(unit)
        waiter = loop.create_future()
        future.add_done_callback(functools.partial(_settle, waiter))
        waiter.add_done_callback(lambda _w: waiter.cancelled() and future.cancel())
        return waiter

    def _watch(self, loop: asyncio.AbstractEventLoop) -> None:
        """Make ``loop`` read the worker pipes (``asyncio.run`` makes a
        new loop each time, and the readers die with the old one)."""
        self._unwatch()
        self._loop = loop
        for conn in self._pool.connections:
            loop.add_reader(conn.fileno(), self._on_readable, conn)
            self._watched.append(conn.fileno())

    def _unwatch(self) -> None:
        """Remove the pipe readers; runs before the pool closes a pipe,
        so a reused descriptor is never watched."""
        loop, self._loop = self._loop, None
        if loop is not None and not loop.is_closed():
            for fd in self._watched:
                loop.remove_reader(fd)
        self._watched = []

    def _on_readable(self, conn) -> None:
        if not self._pool.receive(conn):
            self._loop.remove_reader(conn.fileno())

    def _record_dispatch(self, read, worker_traces, t0: float, t1: float) -> None:
        """Collect one read's traces: the worker's span trees plus a
        parent-side ``dispatch`` trace covering enqueue->verdict.

        The dispatch trace is built directly (a single root span) rather
        than through the tracer's nesting stack: concurrent sessions'
        reads overlap freely on the event loop, which strictly nested
        trace contexts cannot express.
        """
        self._traces.extend(worker_traces)
        label = str(getattr(read, "read_id", ""))
        self._traces.append(("dispatch", label, os.getpid(), (("dispatch", -1, t0, t1),)))


def _settle(waiter: asyncio.Future, future: Future) -> None:
    """Copy a pool future's outcome onto the loop future awaiting it.

    Not ``asyncio.wrap_future``: a pool future is resolved on the loop's
    own thread, and the thread-safe hand-over would cost a self-pipe
    write and one more loop pass per verdict."""
    if waiter.done():
        return
    if future.cancelled():
        waiter.cancel()
    elif (exc := future.exception()) is not None:
        waiter.set_exception(exc)
    else:
        waiter.set_result(future.result())

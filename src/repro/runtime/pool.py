"""The one worker plane under batch and serving.

:class:`WorkerPool` is the only place in the package that owns worker
processes, and the only place a work unit is executed -- in those
processes or, when there are none, in this one. Batch mode
(:class:`~repro.runtime.engine.DatasetEngine`, an ordered in-flight
window over a source) and serving (:class:`~repro.serving.dispatch
.PoolDispatcher`, per-read futures) are two schedulers over it and see
only :meth:`WorkerPool.execute` / :meth:`~WorkerPool.submit` /
:meth:`~WorkerPool.run_local`, :meth:`~WorkerPool.retire` and
``BrokenProcessPool``. Everything else lives here, once:

* :func:`run_unit`, the one ``process_batch`` call: a unit's reads run
  under a ``unit`` span and come back as a
  :class:`~repro.runtime.merge.ShardResult`, whichever process that is;
* *no processes, carry on in-process*: ``workers <= 1`` means none by
  design, a pool that cannot start or is :meth:`~WorkerPool.retire`-d
  after breaking means none any more, and either way
  :meth:`~WorkerPool.execute` runs the unit on the caller's pipeline
  and hands back an already-resolved future;
* the trace flag and the parent tracer's on/off scope
  (:meth:`~WorkerPool.start` to :meth:`~WorkerPool.stop`);
* the worker initialiser -- SIGINT ignored so the parent always owns
  shutdown, tracer enabled when the pool traces, the pipeline kept as
  it arrived (inherited under ``fork``, unpickled under ``spawn``);
* the minimizer index, published to shared memory **once** per pool so
  the pipeline travels with a ~100-byte handle in place of its index
  and each worker attaches the segment zero-copy;
* the warm-up submit that, under ``fork``, starts every worker while
  the parent is still single-threaded;
* the single worker entry point: a :class:`~repro.runtime.transport
  .SharedUnit` is attached zero-copy (read-only views under a
  :class:`~repro.runtime.transport.SegmentLease`), a pickled
  :class:`~repro.runtime.sharding.WorkUnit` is processed directly;
* segment release in a done-callback -- result, worker exception,
  broken pool and cancellation all go through it.

Shared memory is the path. Pickle is only the automatic fallback when a
segment cannot be created (``OSError`` / ``ValueError`` / ``ImportError``
from ``publish_*``); the first such failure is warned once and the pool
stays on pickle. :attr:`WorkerPool.transport` reports what actually
travelled.
"""

from __future__ import annotations

import signal
import warnings
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from repro.core.pipeline import GenPIPPipeline
from repro.obs.metrics import record_copy, worker_metrics_delta, worker_metrics_snapshot
from repro.obs.trace import (
    active_tracer,
    disable_tracing,
    drain_read_traces,
    enable_tracing,
    tracing_enabled,
)
from repro.runtime.columnar import payload_nbytes
from repro.runtime.merge import ShardResult
from repro.runtime.sharding import WorkUnit
from repro.runtime.transport import (
    SharedIndexHandle,
    SharedUnit,
    attach_index,
    attach_unit,
    publish_index,
    publish_unit,
    release_unit,
    unit_lease,
)

#: Per-process pipeline, set once by :func:`_init_worker`.
_WORKER_PIPELINE: GenPIPPipeline | None = None


def _init_worker(pipeline: GenPIPPipeline, trace: bool) -> None:
    """Pool initialiser: keep the pipeline, attaching its index if that
    travelled as a shared-memory handle.

    A Ctrl-C reaches the whole process group; workers ignore it so the
    parent drains them through :meth:`WorkerPool.stop` instead of them
    dying mid-unit with tracebacks.
    """
    global _WORKER_PIPELINE
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if trace:
        enable_tracing()
    if isinstance(pipeline.index, SharedIndexHandle):
        pipeline = replace(pipeline, index=attach_index(pipeline.index))
    _WORKER_PIPELINE = pipeline


def _warmup() -> None:
    """No-op task submitted before any caller thread starts.

    With the ``fork`` start method the executor launches *all* worker
    processes on the first submit (gh-90622), so routing that first
    submit through here -- before the serving event loop and its
    executor threads exist; a batch parent never starts a thread at
    all -- guarantees every fork happens while the parent is still
    single-threaded (no 3.12+ fork-after-thread DeprecationWarning, no
    inherited-lock deadlock hazard). Under ``spawn`` / ``forkserver``
    only the first worker starts here and the rest start as units
    queue up, which is safe at any time: they inherit nothing. Either
    way this surfaces sandboxes that allow pool *creation* but not
    process *spawning*, and worker initialisers that raise, before any
    work is planned.
    """
    return None


def run_unit(
    pipeline: GenPIPPipeline, shard_id: int, reads: list, metrics_before: dict | None = None
) -> ShardResult:
    """Run one work unit's reads on ``pipeline`` -- the one place a unit
    is executed, in a worker or in the parent.

    ``metrics_before`` is the worker's registry snapshot from before the
    unit was attached: the movement since then ships home on the
    result. In-process callers pass none -- their charges already land
    in the parent's own ledgers. Spans ride along either way.
    """
    with active_tracer().unit(shard_id):
        outcomes = pipeline.process_batch(reads)
    return ShardResult.from_outcomes(
        shard_id,
        outcomes,
        metrics=None if metrics_before is None else worker_metrics_delta(metrics_before),
        traces=drain_read_traces(),
    )


def _run_on_worker(unit: WorkUnit | SharedUnit) -> ShardResult:
    """Worker entry point: attach the unit, run it, let go of it.

    A shared unit's arrays are read-only views into the mapped segment;
    the lease keeps the mapping open until the outcomes exist, and the
    views are dropped *before* the release so the close is not deferred.
    A pickled unit's payload was materialised here by deserialisation
    and is charged to the ``"pickle"`` copy boundary.
    """
    if _WORKER_PIPELINE is None:  # pragma: no cover - initialiser contract violation
        raise RuntimeError("worker used before _init_worker primed the pipeline")
    metrics_before = worker_metrics_snapshot()
    lease = None
    if isinstance(unit, SharedUnit):
        reads = attach_unit(unit, copy=False)
        lease = unit_lease(unit.segment)
    else:
        reads = list(unit.reads)
        record_copy("pickle", payload_nbytes(reads))
    try:
        return run_unit(_WORKER_PIPELINE, unit.shard_id, reads, metrics_before)
    finally:
        del reads
        if lease is not None:
            lease.release()


def shutdown_executor(executor: Executor) -> None:
    """Shut an executor down; a Ctrl-C landing mid-join downgrades the
    shutdown to non-waiting instead of propagating."""
    try:
        executor.shutdown(wait=True, cancel_futures=True)
    except KeyboardInterrupt:
        executor.shutdown(wait=False, cancel_futures=True)


class WorkerPool:
    """One pipeline and the processes (if any) that run its work units.

    ``pipeline`` runs the in-process units as it is and reaches each
    worker once, through the initialiser, with its index swapped for
    the published handle. ``trace=True`` enables the tracer in every
    worker and, from :meth:`start` to :meth:`stop`, in the parent.
    ``workers <= 1`` means no processes by design: :meth:`start`
    publishes, forks and warns nothing.

    :meth:`start` must run while the caller is still single-threaded
    (see :func:`_warmup`). A pool that cannot be created, or whose
    workers cannot start, warns and reports ``alive == False``. A pool
    that breaks later surfaces as ``BrokenProcessPool`` from
    :meth:`submit` or from the futures it returned, for the caller to
    :meth:`retire`.
    """

    def __init__(self, pipeline: GenPIPPipeline, workers: int, *, trace: bool = False):
        self._pipeline = pipeline
        self._trace = trace
        self._workers = workers
        self._restore_tracing = False
        self._executor: ProcessPoolExecutor | None = None
        self._index_handle: SharedIndexHandle | None = None
        self._index_publications = 0
        self._segments: set[str] = set()
        self._shm = True
        self._transport = "none"

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def alive(self) -> bool:
        """Whether worker processes exist right now."""
        return self._executor is not None

    @property
    def transport(self) -> str:
        """How unit payloads have travelled: ``"none"`` before the first
        submit, then ``"shm"``, or ``"pickle"`` once any unit fell back."""
        return self._transport

    @property
    def index_publications(self) -> int:
        """How many times the index was published (must stay <= 1)."""
        return self._index_publications

    def start(self) -> bool:
        """Open the tracer scope and, for ``workers > 1``, publish the
        index, create the pool and warm it; returns ``alive``."""
        if self._trace and not tracing_enabled():
            # Covers in-process units; workers enable their own tracer.
            enable_tracing()
            self._restore_tracing = True
        if self._workers <= 1:
            return False
        travelling = self._pipeline
        try:
            self._index_handle = publish_index(travelling.index)
        except (OSError, ValueError, ImportError) as exc:
            self._fall_back_to_pickle(exc)
        else:
            self._index_publications += 1
            travelling = replace(travelling, index=self._index_handle)
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_init_worker,
                initargs=(travelling, self._trace),
            )
            self._executor.submit(_warmup).result()
        except (ImportError, NotImplementedError, OSError, BrokenProcessPool) as exc:
            self._drop_processes()
            warnings.warn(
                f"process pool unavailable ({exc!r}); running in-process",
                RuntimeWarning,
                stacklevel=3,
            )
        except BaseException:
            self.stop()
            raise
        return self.alive

    def execute(self, unit: WorkUnit) -> Future:
        """Run ``unit`` wherever it can run: :meth:`submit` while the
        pool is alive (one that breaks under the submit is retired),
        otherwise :meth:`run_local`, handed back as an already-resolved
        future -- exceptions included."""
        if self.alive:
            try:
                return self.submit(unit)
            except BrokenProcessPool as exc:
                self.retire(exc)
        future: Future = Future()
        try:
            future.set_result(self.run_local(unit))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def run_local(self, unit: WorkUnit) -> ShardResult:
        """Run ``unit`` on the caller's thread. No metrics delta rides
        the result: the charges land in this process's ledgers directly."""
        return run_unit(self._pipeline, unit.shard_id, list(unit.reads))

    def retire(self, exc: BaseException) -> None:
        """Give up on processes that broke: warn once, drop them and
        every segment. Units in flight end broken or cancelled; the
        caller re-executes those."""
        if not self.alive:
            return
        warnings.warn(
            f"process pool broke ({exc!r}); continuing in-process", RuntimeWarning, stacklevel=3
        )
        self._drop_processes()

    def submit(self, unit: WorkUnit) -> Future:
        """Publish ``unit`` and run it on a worker; the future resolves
        to its :class:`ShardResult`. The unit's segment is released when
        the future is done, however it got there."""
        if self._executor is None:
            raise BrokenProcessPool("worker pool is not running")
        if self._shm:
            try:
                shared = publish_unit(unit)
            except (OSError, ValueError, ImportError) as exc:
                self._fall_back_to_pickle(exc)
            else:
                name = shared.segment
                self._segments.add(name)
                try:
                    future = self._executor.submit(_run_on_worker, shared)
                except BaseException:
                    self._release(name)
                    raise
                future.add_done_callback(lambda _f: self._release(name))
                if self._transport == "none":
                    self._transport = "shm"
                return future
        # Parent-side serialisation cost of the pickled payload (the
        # worker charges its deserialised copy separately).
        record_copy("pickle", payload_nbytes(unit.reads))
        self._transport = "pickle"
        return self._executor.submit(_run_on_worker, unit)

    def stop(self) -> None:
        """Drop the processes and segments and close the tracer scope."""
        self._drop_processes()
        if self._restore_tracing:
            self._restore_tracing = False
            disable_tracing()

    def _drop_processes(self) -> None:
        """Shut the workers down, then release the index and every segment.

        The index outlives the workers: a non-``fork`` executor starts
        them lazily, and one still booting when the pool stops attaches
        the segment by name. The release sits in a ``finally`` so a
        Ctrl-C landing mid-join still cannot leak it. Segments of units
        still running after such a downgraded shutdown are released here
        rather than by their done-callbacks.
        """
        executor, self._executor = self._executor, None
        try:
            if executor is not None:
                shutdown_executor(executor)
        finally:
            if self._index_handle is not None:
                release_unit(self._index_handle.segment)
                self._index_handle = None
            for name in tuple(self._segments):
                self._release(name)

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _release(self, name: str) -> None:
        self._segments.discard(name)
        release_unit(name)

    def _fall_back_to_pickle(self, exc: BaseException) -> None:
        self._shm = False
        warnings.warn(
            f"shared memory unavailable ({exc!r}); payloads travel pickled",
            RuntimeWarning,
            stacklevel=3,
        )

"""The one worker plane under batch and serving.

:class:`WorkerPool` is the only place in the package that owns worker
processes, and the only place a work unit is executed -- in those
processes or, when there are none, in this one. Batch mode
(:class:`~repro.runtime.engine.DatasetEngine`, an ordered in-flight
window over a source) and serving (:class:`~repro.serving.dispatch
.PoolDispatcher`, per-read futures) are two schedulers over it and see
only :meth:`WorkerPool.execute` / :meth:`~WorkerPool.submit` /
:meth:`~WorkerPool.run_local`, :meth:`~WorkerPool.retire`, the worker
pipes (:attr:`~WorkerPool.connections`, :meth:`~WorkerPool.receive`)
and ``BrokenProcessPool``. Everything else lives here, once:

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
* the workers: :meth:`~WorkerPool.start` starts all of them, each with
  one duplex pipe, and waits until each says it is ready. A worker
  ignores SIGINT so the parent always owns shutdown, enables its tracer
  when the pool traces and keeps the pipeline as it arrived (inherited
  under ``fork``, unpickled under ``spawn``). Under ``fork`` every
  worker is forked inside ``start``, while the caller is still
  single-threaded;
* the minimizer index, published to shared memory **once** per pool so
  the pipeline travels with a ~100-byte handle in place of its index
  and each worker attaches the segment zero-copy;
* dispatch: a worker runs one unit at a time and further units wait in
  a FIFO here. No thread stands between a scheduler and a worker: the
  scheduler watches the pipes itself -- the batch engine with
  :func:`multiprocessing.connection.wait`, the serving dispatcher as
  event-loop readers -- and hands each readable one to
  :meth:`~WorkerPool.receive`, which gives that worker the next queued
  unit and resolves the finished unit's future. Waiting on a future
  directly (``result()``) reads the pipes the same way;
* a dead worker, busy or idle, shows up as end-of-file on its pipe and
  breaks the pool, as does a reply that cannot be unpickled here: the
  unit and every queued one fail with ``BrokenProcessPool``, and so
  does every later :meth:`~WorkerPool.submit`, for the caller to
  :meth:`~WorkerPool.retire` and run them in-process;
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

import contextlib
import multiprocessing
import signal
import time
import traceback
import warnings
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess

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

#: What a worker sends once its pipeline is built.
_READY = "ready"


def _init_worker(pipeline: GenPIPPipeline, trace: bool) -> GenPIPPipeline:
    """Set a worker up and return the pipeline it runs units on,
    attaching its index if that travelled as a shared-memory handle.

    A Ctrl-C reaches the whole process group; workers ignore it so the
    parent drains them through :meth:`WorkerPool.stop` instead of them
    dying mid-unit with tracebacks.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if trace:
        enable_tracing()
    if isinstance(pipeline.index, SharedIndexHandle):
        pipeline = replace(pipeline, index=attach_index(pipeline.index))
    return pipeline


def _worker_main(conn: Connection, pipeline: GenPIPPipeline, trace: bool) -> None:
    """A worker's life: build, say ready, then run one unit per message
    until ``None`` (or the parent's end closing) says stop.

    A build that fails sends its text in place of the ready word. A
    unit's exception goes back in place of its result, with the
    worker's traceback as a note.
    """
    try:
        pipeline = _init_worker(pipeline, trace)
    except Exception as exc:
        conn.send(f"worker failed to start: {exc!r}")
        return
    conn.send(_READY)
    while True:
        try:
            unit = conn.recv()
        except EOFError:
            return
        if unit is None:
            return
        try:
            reply = (True, _run_on_worker(pipeline, unit))
        except Exception as exc:
            exc.add_note(f"in the worker:\n{traceback.format_exc()}")
            reply = (False, exc)
        conn.send(reply)


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


def _run_on_worker(pipeline: GenPIPPipeline, unit: WorkUnit | SharedUnit) -> ShardResult:
    """Worker entry point: attach the unit, run it, let go of it.

    A shared unit's arrays are read-only views into the mapped segment;
    the lease keeps the mapping open until the outcomes exist, and the
    views are dropped *before* the release so the close is not deferred.
    A pickled unit's payload was materialised here by deserialisation
    and is charged to the ``"pickle"`` copy boundary.
    """
    metrics_before = worker_metrics_snapshot()
    lease = None
    if isinstance(unit, SharedUnit):
        reads = attach_unit(unit, copy=False)
        lease = unit_lease(unit.segment)
    else:
        reads = list(unit.reads)
        record_copy("pickle", payload_nbytes(reads))
    try:
        return run_unit(pipeline, unit.shard_id, reads, metrics_before)
    finally:
        del reads
        if lease is not None:
            lease.release()


@dataclass(eq=False)
class _Worker:
    """One worker process, the parent's end of its pipe and the future
    of the unit it is running (``None`` while idle)."""

    process: BaseProcess
    conn: Connection
    running: Future | None = None
    dead: bool = False


class _UnitFuture(Future):
    """A pooled unit's future. Nothing resolves it in the background, so
    waiting on it reads the pool's pipes until it is done."""

    def __init__(self, pool: WorkerPool):
        super().__init__()
        self._pool = pool

    def result(self, timeout=None):
        self._pool._wait_for(self, timeout)
        return super().result(0)

    def exception(self, timeout=None):
        self._pool._wait_for(self, timeout)
        return super().exception(0)


class WorkerPool:
    """One pipeline and the processes (if any) that run its work units.

    ``pipeline`` runs the in-process units as it is and reaches each
    worker once, as a start argument, with its index swapped for the
    published handle. ``trace=True`` enables the tracer in every worker
    and, from :meth:`start` to :meth:`stop`, in the parent.
    ``workers <= 1`` means no processes by design: :meth:`start`
    publishes, forks and warns nothing.

    :meth:`start` runs once, while the caller is still single-threaded.
    A pool whose workers cannot start warns and reports
    ``alive == False``. A pool that breaks later surfaces as
    ``BrokenProcessPool`` from :meth:`submit` or from the futures it
    returned, for the caller to :meth:`retire`.
    """

    def __init__(self, pipeline: GenPIPPipeline, workers: int, *, trace: bool = False):
        self._pipeline = pipeline
        self._trace = trace
        self._workers = workers
        self._started = False
        self._restore_tracing = False
        self._processes: list[_Worker] = []
        self._queue: deque[tuple[Future, WorkUnit | SharedUnit]] = deque()
        self._broken: str | None = None
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
        return bool(self._processes)

    @property
    def connections(self) -> list[Connection]:
        """The pipes of the live workers: wait on them and pass each
        readable one to :meth:`receive`."""
        return [worker.conn for worker in self._processes if not worker.dead]

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
        index and start the workers; returns ``alive``. Runs once."""
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
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
            self._start_workers(travelling)
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

    def _start_workers(self, pipeline: GenPIPPipeline) -> None:
        """Start every worker, then wait until each says it is ready."""
        context = multiprocessing.get_context()
        for _ in range(self._workers):
            conn, child = context.Pipe()
            process = context.Process(
                target=_worker_main, args=(child, pipeline, self._trace), daemon=True
            )
            try:
                process.start()
            except BaseException:
                conn.close()
                raise
            finally:
                # Closed here, the worker's end is held by the worker
                # alone, so its death is end-of-file on ``conn``.
                child.close()
            self._processes.append(_Worker(process, conn))
        for worker in self._processes:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                message = f"worker {worker.process.pid} exited before it was ready"
            if message != _READY:
                raise BrokenProcessPool(message)

    def execute(self, unit: WorkUnit) -> Future:
        """Run ``unit`` wherever it can run: :meth:`submit` while the
        pool is alive (one that is broken when submitted to is retired),
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
        every segment. Units in flight end with a result, broken or
        cancelled; the caller re-executes the last two."""
        if not self.alive:
            return
        warnings.warn(
            f"process pool broke ({exc!r}); continuing in-process", RuntimeWarning, stacklevel=3
        )
        self._drop_processes()

    def submit(self, unit: WorkUnit) -> Future:
        """Publish ``unit`` and queue it for the next free worker; the
        future resolves to its :class:`ShardResult`. The unit's segment
        is released when the future is done, however it got there."""
        if not self._processes:
            raise BrokenProcessPool("worker pool is not running")
        if self._broken is not None:
            raise BrokenProcessPool(self._broken)
        future = _UnitFuture(self)
        payload: WorkUnit | SharedUnit = unit
        if self._shm:
            try:
                payload = publish_unit(unit)
            except (OSError, ValueError, ImportError) as exc:
                self._fall_back_to_pickle(exc)
            else:
                name = payload.segment
                self._segments.add(name)
                future.add_done_callback(lambda _f: self._release(name))
                if self._transport == "none":
                    self._transport = "shm"
        if payload is unit:
            # Parent-side serialisation cost of the pickled payload (the
            # worker charges its deserialised copy separately).
            record_copy("pickle", payload_nbytes(unit.reads))
            self._transport = "pickle"
        self._queue.append((future, payload))
        self._dispatch()
        return future

    def receive(self, conn: Connection) -> bool:
        """Handle the message waiting on a worker's pipe; returns
        whether that worker is still in service (see :meth:`_lose`)."""
        return self._receive(next(w for w in self._processes if w.conn is conn))

    def _receive(self, worker: _Worker) -> bool:
        """Take the worker's reply: it gets the next queued unit, then
        the finished unit's future resolves."""
        try:
            ok, value = worker.conn.recv()
        except (EOFError, OSError):
            self._lose(worker, "died")
            return False
        except Exception as exc:  # the reply was read but does not unpickle here
            self._lose(worker, f"sent a reply that cannot be unpickled ({exc!r})")
            return False
        future, worker.running = worker.running, None
        self._dispatch()
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)
        return True

    def _dispatch(self) -> None:
        """Hand queued units, oldest first, to idle workers."""
        for worker in self._processes:
            while self._queue and worker.running is None and not worker.dead:
                future, payload = self._queue.popleft()
                if not future.set_running_or_notify_cancel():
                    continue
                worker.running = future
                try:
                    worker.conn.send(payload)
                except OSError:
                    self._lose(worker, "died")

    def _lose(self, worker: _Worker, what: str) -> None:
        """A worker died, or its reply is unreadable: the pool is broken.
        Its unit and every queued one fail, and so does every later
        :meth:`submit`; the worker is not sent another message."""
        worker.dead = True
        if self._broken is None:
            self._broken = f"worker {worker.process.pid} {what}"
        lost = [worker.running] if worker.running is not None else []
        worker.running = None
        lost.extend(future for future, _ in self._queue if not future.done())
        self._queue.clear()
        for future in lost:
            future.set_exception(BrokenProcessPool(self._broken))

    def _wait_for(self, future: Future, timeout: float | None) -> None:
        """Read the pipes until ``future`` is done or ``timeout`` passes."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not future.done() and (connections := self.connections):
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                return
            for conn in wait(connections, remaining):
                self.receive(conn)

    def stop(self) -> None:
        """Drop the processes and segments and close the tracer scope."""
        self._drop_processes()
        if self._restore_tracing:
            self._restore_tracing = False
            disable_tracing()

    def _drop_processes(self) -> None:
        """Stop the workers, then release the index and every segment.

        Queued units are cancelled, a unit a worker is running finishes
        and its future resolves, then each worker is told to stop and
        joined. A Ctrl-C landing meanwhile cuts that short instead of
        propagating: the workers are terminated and the units they ran
        fail broken. The release sits in a ``finally`` so neither path
        can leak a segment.
        """
        workers, self._processes = self._processes, []
        try:
            while self._queue:
                self._queue.popleft()[0].cancel()
            try:
                for worker in workers:
                    while worker.running is not None:
                        self._receive(worker)
                live = [worker for worker in workers if not worker.dead]
                for worker in live:
                    with contextlib.suppress(OSError):
                        worker.conn.send(None)
                for worker in live:
                    worker.process.join()
            except KeyboardInterrupt:
                pass
            finally:
                for worker in workers:
                    if worker.process.is_alive():
                        worker.process.terminate()
                        worker.process.join()
                    if worker.running is not None:
                        worker.running.set_exception(BrokenProcessPool("pool stopped mid-unit"))
                        worker.running = None
                    worker.conn.close()
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

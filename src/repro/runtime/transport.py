"""Shared-memory transport: the minimizer index, published once per pool.

The pickled size of a pipeline is dominated by its reference index, so
a pool publishes the index **once** through
``multiprocessing.shared_memory`` and each worker attaches it:

* :func:`publish_index` / :func:`attach_index` lay the index's
  key/bound/position/strand arrays and the reference codes out in
  **one** segment, so pool start-up ships a ~100-byte
  :class:`SharedIndexHandle` to each worker instead of pickling the
  index once per worker. The rebuilt index's arrays are zero-copy
  views (see :func:`attach_index` for the lifetime contract).
* :func:`release_unit` / :func:`release_all` (parent side) close and
  unlink segments. :class:`~repro.runtime.pool.WorkerPool` releases
  the index on every exit path, and :func:`active_segments` exposes
  the outstanding names so tests can assert nothing leaked.

Work units do not travel here: a pool sends each unit down its
worker's pipe as one columnar image (see :mod:`repro.runtime.pool`).
:func:`publish_unit`, :func:`attach_unit`, :func:`unit_lease`,
:class:`SharedUnit` and :class:`SegmentLease` -- a unit in its own
segment, attached as views under a ref-counted worker-side lease --
have no caller in the package; they remain only for the perf
benchmark's ``runtime.transport_us_per_read`` probe, which times that
segment round trip.

Worker attachment unregisters from the per-process ``resource_tracker``
(or passes ``track=False`` on Python >= 3.13): the parent owns the
segment lifecycle, and a worker's tracker must not unlink segments at
worker exit (bpo-38119).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import secrets
from dataclasses import dataclass, replace

try:
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - platforms without POSIX shm
    # The pool treats an ImportError from publish_index as "the index
    # travels pickled"; importing *this module* must stay safe so the
    # runtime's zero-dependency serial path keeps working everywhere.
    resource_tracker = None  # type: ignore[assignment]
    shared_memory = None  # type: ignore[assignment]

import numpy as np

from repro.genomics.reference import ReferenceGenome
from repro.mapping.index import MinimizerIndex
from repro.mapping.minimizers import MinimizerConfig
from repro.nanopore.read_simulator import SimulatedRead
from repro.nanopore.signal_read import SignalRead
from repro.runtime.columnar import (
    ColumnarBatch,
    ColumnarLayout,
    ReadHandle,
    SignalHandle,
)
from repro.runtime.sharding import WorkUnit

__all__ = [
    "SEGMENT_PREFIX",
    "ReadHandle",
    "SignalHandle",
    "SharedUnit",
    "SharedIndexHandle",
    "SegmentLease",
    "publish_unit",
    "attach_unit",
    "publish_index",
    "attach_index",
    "release_unit",
    "release_all",
    "active_segments",
    "unit_lease",
    "worker_leases",
    "reap_leases",
]

#: Prefix of every segment name this transport creates (leak checks key on it).
SEGMENT_PREFIX = "genpip-"

#: Parent-side registry of live segments: name -> SharedMemory.
_ACTIVE: dict[str, shared_memory.SharedMemory] = {}

_COUNTER = itertools.count()


@dataclass(frozen=True)
class SharedUnit:
    """A work unit whose read payloads travel via shared memory."""

    shard_id: int
    segment: str
    handles: tuple[ReadHandle | SignalHandle, ...]

    def __len__(self) -> int:
        return len(self.handles)


def _new_segment_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid()}-{next(_COUNTER)}-{secrets.token_hex(3)}"


def _create_segment(size: int) -> "shared_memory.SharedMemory":
    """A fresh named segment of at least one byte."""
    if shared_memory is None:  # pragma: no cover - platforms without POSIX shm
        raise ImportError("multiprocessing.shared_memory is unavailable on this platform")
    while True:
        try:
            return shared_memory.SharedMemory(
                create=True, size=max(size, 1), name=_new_segment_name()
            )
        except FileExistsError:  # pragma: no cover - astronomically unlikely
            continue


def _discard_segment(segment: "shared_memory.SharedMemory") -> None:
    """Close and unlink a segment that was never registered (error path)."""
    segment.close()
    with contextlib.suppress(FileNotFoundError):  # defensive
        segment.unlink()


def publish_unit(unit: WorkUnit) -> SharedUnit:
    """Publish one work unit's payloads into a fresh shared segment.

    The segment holds exactly one :class:`~repro.runtime.columnar
    .ColumnarLayout` batch (every array naturally aligned; see the
    layout diagram in :mod:`repro.runtime.columnar`) and stays
    registered in the parent until :func:`release_unit`.
    """
    layout = ColumnarLayout.plan(unit.reads)
    segment = _create_segment(layout.total_bytes)
    try:
        layout.pack_into(segment.buf, unit.reads)
    except BaseException:
        _discard_segment(segment)
        raise
    _ACTIVE[segment.name] = segment
    return SharedUnit(
        shard_id=unit.shard_id, segment=segment.name, handles=layout.handles
    )


# --- worker-side segment leases (zero-copy attach) ---------------------------


class SegmentLease:
    """A ref-counted worker-side hold on an attached unit segment.

    The zero-copy attach hands out numpy views into the mapping; the
    mapping must therefore stay open until every consumer of the batch
    is done -- *after* the outcomes are produced, which is later than
    the parent's :func:`release_unit` (safe: POSIX keeps the unlinked
    segment's pages alive while the mapping exists). Consumers call
    :meth:`acquire` to extend the hold and :meth:`release` when done;
    the final release closes the mapping.

    A close attempted while views are still alive (e.g. an exception
    traceback pinning the batch) raises ``BufferError`` inside
    CPython's mmap teardown; the lease *defers* such a close instead of
    propagating, and :func:`reap_leases` retries once the views are
    garbage (every subsequent attach reaps opportunistically). Process
    exit reclaims any mapping that never got its retry -- the parent
    already unlinked the name, so nothing persists in ``/dev/shm``.
    """

    __slots__ = ("_segment", "_name", "_refs", "_closed", "_deferred")

    def __init__(self, segment: "shared_memory.SharedMemory"):
        self._segment = segment
        self._name = segment.name
        self._refs = 1
        self._closed = False
        self._deferred = False

    @property
    def name(self) -> str:
        return self._name

    @property
    def refs(self) -> int:
        return self._refs

    @property
    def closed(self) -> bool:
        """Whether the mapping has actually been closed."""
        return self._closed

    @property
    def deferred(self) -> bool:
        """Whether the final release is waiting on live views (GC)."""
        return self._deferred

    def acquire(self) -> "SegmentLease":
        if self._closed or self._refs <= 0:
            raise RuntimeError(f"lease on {self._name} already fully released")
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one hold; the last drop closes (or defers) the mapping."""
        if self._closed or self._refs <= 0:
            return
        self._refs -= 1
        if self._refs == 0:
            self._try_close()

    def _try_close(self) -> None:
        try:
            self._segment.close()
        except BufferError:
            # numpy views into the mapping are still exported; closing
            # now would pull the pages out from under them. Retry via
            # reap_leases() once they are garbage.
            self._deferred = True
            return
        self._deferred = False
        self._closed = True
        _LEASES.pop(self._name, None)


#: Worker-side registry of leases not yet closed: segment name -> lease.
_LEASES: dict[str, SegmentLease] = {}


def unit_lease(name: str) -> SegmentLease | None:
    """The live lease of an attached segment (None once closed)."""
    return _LEASES.get(name)


def worker_leases() -> tuple[str, ...]:
    """Names of leases still *held* (refs > 0) in this process.

    The worker-side leak probe: after a batch's outcomes are produced
    and its lease released, this must be empty (a deferred close waiting
    only on garbage collection no longer counts as held).
    """
    return tuple(sorted(name for name, lease in _LEASES.items() if lease.refs > 0))


def reap_leases() -> None:
    """Retry deferred closes whose views have since been collected."""
    for lease in list(_LEASES.values()):
        if lease.deferred and lease.refs == 0:
            lease._try_close()


def attach_unit(
    shared: SharedUnit, copy: bool = True
) -> list[SimulatedRead | SignalRead]:
    """Rebuild a unit's reads from its shared segment (worker side).

    ``copy=True`` (default): arrays are copied out of the mapping --
    charged to the ``"attach"`` copy boundary -- and the mapping is
    closed before returning, so the reads have no lifetime ties to the
    segment.

    ``copy=False`` (the benchmark probe's path): arrays are **read-only views**
    into the mapping. The mapping is held open by a
    :class:`SegmentLease` registered under the segment name
    (:func:`unit_lease`); the caller must ``release()`` it after the
    batch's outcomes are produced. Until then the views remain valid
    even after the parent unlinks the segment.
    """
    reap_leases()
    segment = _attach(shared.segment)
    batch = ColumnarBatch(segment.buf, shared.handles)
    if copy:
        try:
            reads = batch.reads(copy=True)
        finally:
            # Drop the batch's buffer reference before closing: a live
            # view would turn close() into a BufferError.
            del batch
            segment.close()
        return reads
    _LEASES[shared.segment] = SegmentLease(segment)
    return batch.reads(copy=False)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker ownership.

    The parent owns the segment lifecycle; an attaching worker must not
    involve its resource tracker at all. Python >= 3.13 has
    ``track=False`` for exactly this; on older versions attach
    unconditionally registers (bpo-38119), which either double-books the
    fork-shared tracker or lets a spawn-private tracker unlink the
    segment at worker exit -- so registration is suppressed for the
    duration of the attach.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # Python >= 3.13
    except TypeError:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


# --- shared minimizer index -------------------------------------------------


@dataclass(frozen=True)
class SharedIndexHandle:
    """A reference minimizer index published once via shared memory.

    Array offsets are implied by the counts (see :func:`attach_index`):
    ``uint64`` keys, then ``int64`` entry bounds (``n_keys + 1``), then
    ``int64`` positions, then ``int8`` strands, then ``uint8`` reference
    codes. Only this handle -- name, counts, and the tiny minimizer
    config -- crosses the process boundary.
    """

    segment: str
    config: MinimizerConfig
    reference_name: str
    n_keys: int
    n_locations: int
    reference_length: int


def _index_offsets(handle: SharedIndexHandle) -> tuple[int, int, int, int]:
    """Byte offsets of (bounds, positions, strands, codes)."""
    bounds = 8 * handle.n_keys
    positions = bounds + 8 * (handle.n_keys + 1)
    strands = positions + 8 * handle.n_locations
    codes = strands + handle.n_locations
    return bounds, positions, strands, codes


def publish_index(index: MinimizerIndex) -> SharedIndexHandle:
    """Publish an index's arrays into one shared segment (parent side).

    The pickled size of a :class:`~repro.core.pipeline.GenPIPPipeline`
    is dominated by the index; publishing it once and shipping a handle
    removes that per-worker serialisation from pool start-up. The index
    already stores the segment's exact columnar layout
    (:attr:`~repro.mapping.index.MinimizerIndex.key_array` et al.), so
    publishing is five straight array copies -- no per-key Python. The
    segment stays registered until :func:`release_unit` on its name.
    """
    keys = index.key_array
    bounds = index.bounds_array
    codes = index.reference.codes
    n_locations = index.n_locations()
    handle = SharedIndexHandle(
        segment="",
        config=index.config,
        reference_name=index.reference.name,
        n_keys=int(keys.size),
        n_locations=n_locations,
        reference_length=int(codes.size),
    )
    bounds_off, positions_off, strands_off, codes_off = _index_offsets(handle)
    segment = _create_segment(codes_off + codes.size)
    try:
        np.frombuffer(segment.buf, dtype=np.uint64, count=keys.size, offset=0)[:] = keys
        np.frombuffer(segment.buf, dtype=np.int64, count=bounds.size, offset=bounds_off)[
            :
        ] = bounds
        np.frombuffer(
            segment.buf, dtype=np.int64, count=n_locations, offset=positions_off
        )[:] = index.position_array
        np.frombuffer(
            segment.buf, dtype=np.int8, count=n_locations, offset=strands_off
        )[:] = index.strand_array
        np.frombuffer(segment.buf, dtype=np.uint8, count=codes.size, offset=codes_off)[
            :
        ] = codes
    except BaseException:
        _discard_segment(segment)
        raise
    _ACTIVE[segment.name] = segment
    return replace(handle, segment=segment.name)


#: Process-lifetime index mappings: segment name -> SharedMemory.
#: attach_index views point into these; dropping the SharedMemory object
#: would let its __del__ close the mapping under the views, so each
#: attached index mapping is pinned here for the life of the process.
_INDEX_ATTACHMENTS: dict[str, shared_memory.SharedMemory] = {}


def attach_index(handle: SharedIndexHandle) -> MinimizerIndex:
    """Rebuild the index from its shared segment (worker side, zero-copy).

    The rebuilt index's arrays -- per-key position/strand slices and the
    reference codes -- are **read-only views** into the shared mapping:
    one attach costs one page-table mapping, not a copy of the index
    (previously every worker duplicated all five arrays).

    Lifetime contract: the mapping is pinned for the remaining life of
    the attaching process (an index outlives every work unit by
    design -- the pool publishes it before its workers start and
    releases it after they are stopped). The parent may unlink the
    segment at any time; POSIX keeps the pages alive until the attached
    mappings disappear with the worker processes. Each distinct segment
    name is attached at most once per process, so re-entrant pipeline
    builds share one mapping.
    """
    bounds_off, positions_off, strands_off, codes_off = _index_offsets(handle)
    segment = _INDEX_ATTACHMENTS.get(handle.segment)
    if segment is None:
        segment = _attach(handle.segment)
        _INDEX_ATTACHMENTS[handle.segment] = segment

    def view(dtype, count: int, offset: int) -> np.ndarray:
        arr = np.frombuffer(segment.buf, dtype=dtype, count=count, offset=offset)
        arr.flags.writeable = False
        return arr

    keys = view(np.uint64, handle.n_keys, 0)
    bounds = view(np.int64, handle.n_keys + 1, bounds_off)
    positions = view(np.int64, handle.n_locations, positions_off)
    strands = view(np.int8, handle.n_locations, strands_off)
    codes = view(np.uint8, handle.reference_length, codes_off)
    reference = ReferenceGenome(name=handle.reference_name, codes=codes)
    # The segment layout IS the index's columnar layout: the rebuilt
    # index wraps the four views directly, with zero per-key Python.
    return MinimizerIndex(handle.config, keys, bounds, positions, strands, reference)


def release_unit(name: str) -> None:
    """Close and unlink one published segment (idempotent)."""
    segment = _ACTIVE.pop(name, None)
    if segment is None:
        return
    segment.close()
    with contextlib.suppress(FileNotFoundError):  # already unlinked
        segment.unlink()


def release_all() -> None:
    """Release every outstanding segment (crash-path cleanup)."""
    for name in list(_ACTIVE):
        release_unit(name)


def active_segments() -> tuple[str, ...]:
    """Names of segments published but not yet released (leak probe)."""
    return tuple(sorted(_ACTIVE))

"""Explicit byte-copy accounting across data-plane boundaries.

GenPIP's thesis is minimizing data movement between analysis steps; the
software analogue needs that movement to be *measurable* before it can
be minimized. A :class:`CopyCounter` is a process-local ledger of bytes
copied per named boundary, charged **explicitly at each copy site** --
no monkeypatching, no numpy instrumentation: the transport and sink
layers call :func:`record_copy` exactly where they materialise a copy,
so the count is a first-class output of the code path itself.

Boundaries in use:

* ``"publish"`` -- parent packs a work unit's arrays into a shared
  segment (:func:`repro.runtime.transport.publish_unit`). Always paid
  by a pooled run: the segment *is* the batch.
* ``"attach"`` -- arrays copied out of a segment
  (``attach_unit(copy=True)``). Pool workers attach views instead
  (:mod:`repro.runtime.pool`), so a pooled run charges nothing here;
  the bench grid gates its ``bytes_copied_per_read`` at zero.
* ``"pickle"`` -- read payload bytes that travelled pickled because a
  segment could not be created (the pool's automatic fallback), charged
  once in the parent and once in the worker.

The process counter is what pooled runs consult: workers snapshot it
around each work unit and ship the delta home inside
:class:`~repro.runtime.merge.ShardResult`, the parent snapshots it
around the run for publish-side traffic, and
:class:`~repro.runtime.engine.RuntimeStats` surfaces both (never in the
report, so serialized reports stay byte-identical however payloads
travelled).
"""

from __future__ import annotations

from collections import Counter

#: Boundary names with a defined meaning (free-form names still count;
#: this tuple is documentation plus a spelling anchor for tests).
COPY_BOUNDARIES = ("publish", "attach", "pickle")


class CopyCounter:
    """A per-boundary ledger of copied bytes (monotonic, resettable)."""

    def __init__(self) -> None:
        self._bytes: Counter[str] = Counter()

    def record(self, boundary: str, nbytes: int) -> None:
        """Charge ``nbytes`` of copy traffic to ``boundary``."""
        if nbytes < 0:
            raise ValueError(f"copied byte count must be non-negative, got {nbytes}")
        self._bytes[boundary] += int(nbytes)

    def bytes_copied(self, boundary: str | None = None) -> int:
        """Bytes copied at one boundary, or the total across all."""
        if boundary is not None:
            return self._bytes.get(boundary, 0)
        return sum(self._bytes.values())

    def by_boundary(self) -> dict[str, int]:
        """A snapshot dict of every boundary's byte count."""
        return dict(self._bytes)

    def reset(self) -> None:
        self._bytes.clear()


#: The process-local counter every boundary charges by default.
_PROCESS = CopyCounter()


def process_copies() -> CopyCounter:
    """The process-local counter (one per process, workers included)."""
    return _PROCESS


def record_copy(boundary: str, nbytes: int) -> None:
    """Charge a copy to the process-local counter (the boundary hook)."""
    _PROCESS.record(boundary, nbytes)


def copied_bytes(boundary: str | None = None) -> int:
    """Process-local copied bytes (one boundary, or the total)."""
    return _PROCESS.bytes_copied(boundary)

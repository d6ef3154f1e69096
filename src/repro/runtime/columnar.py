"""One columnar batch layout from the worker pipe to kernels to sinks.

A work unit travels *columnar*: per-batch contiguous buffers grouped
by element width, with per-read offset tables. This module makes that
layout a first-class representation -- planned once
(:class:`ColumnarLayout`), packed once, and then **viewed** everywhere
else (:class:`ColumnarBatch`): the worker's reads, the kernel plane's
sample windows, and the SER screen's prefix slices are read-only numpy
views into the one image the parent packed and the worker received, so
a batch crosses the process boundary with zero worker-side copies. A
serving read frame carries the same image for one read.

Layout diagram -- byte offsets of one packed batch (``total8`` /
``total_samples`` / ``total_codes`` are the section byte sizes)::

    byte 0                     total8            total8+total_samples
    |-------- 8-byte section --|- sample section -|- code section ----|
    | f64 quality tracks and   | f32 raw current  | u8 2-bit base     |
    | i64 base-start tracks,   | of signal reads, | codes of base-    |
    | interleaved in read      | in read order    | space reads, in   |
    | order (8-byte aligned)   | (4-byte aligned) | read order        |
    +--------------------------+------------------+-------------------+
                                                          total_bytes ^

    column           dtype    offset table (per read handle)
    ---------------  -------  --------------------------------------
    quality          float64  ReadHandle.quality_offset, n_bases
    codes            uint8    ReadHandle.codes_offset,   n_bases
    samples          float32  SignalHandle.samples_offset, n_samples
    base_starts      int64    SignalHandle.starts_offset,  n_starts

Sections are ordered by descending alignment so every array is
naturally aligned without padding. A batch may mix base-space reads
(quality + codes columns) and signal-native reads (samples +
base_starts columns); each read's handle records exactly where its
slices live, so per-read access is an O(1) view, never a gather.

Zero-copy safety rests on two properties of the read dataclasses:
``np.ascontiguousarray`` returns an already-contiguous correctly-typed
array *unchanged* (so ``RawSignal``/``SimulatedRead`` construction
preserves view-ness), and every view is marked read-only before it
escapes (a batch's bytes are never written through a view, whoever
else reads them).

Lifetime: a numpy view holds a reference to the buffer it was taken
from, so views over a ``bytes`` or ``bytearray`` image -- a pool
worker's received unit, a decoded serving frame -- keep that image
alive by themselves; nothing has to be released. A buffer that can be
closed under its views (a shared-memory mapping) needs an owner that
outlives them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.nanopore.read_simulator import ReadClass, SimulatedRead
from repro.nanopore.signal import RawSignal
from repro.nanopore.signal_read import SignalRead
from repro.obs.metrics import record_copy


@dataclass(frozen=True)
class ReadHandle:
    """Where one base-space read's payloads live inside a packed batch."""

    read_id: str
    read_class: str  # ReadClass value
    strand: int
    ref_start: int | None
    ref_end: int | None
    seed: int
    n_bases: int
    quality_offset: int  # byte offset of the float64 quality track
    codes_offset: int  # byte offset of the uint8 base codes


@dataclass(frozen=True)
class SignalHandle:
    """Where one signal-native read's payloads live inside a packed batch."""

    read_id: str
    declared_bases: int
    n_samples: int
    n_starts: int
    samples_offset: int  # byte offset of the float32 sample array
    starts_offset: int  # byte offset of the int64 base-start array


@dataclass(frozen=True)
class ColumnarLayout:
    """The offset plan of one batch: handles plus section byte sizes.

    :meth:`plan` computes it from the reads alone (no buffer needed), so
    the same plan serves size queries (:attr:`total_bytes`), buffer
    sizing, and :meth:`pack_into`.
    """

    handles: tuple[ReadHandle | SignalHandle, ...]
    total8: int  # bytes of the f64-quality / i64-base-start section
    total_samples: int  # bytes of the f32 sample section
    total_codes: int  # bytes of the u8 code section

    @property
    def total_bytes(self) -> int:
        return self.total8 + self.total_samples + self.total_codes

    @classmethod
    def plan(cls, reads: Sequence[SimulatedRead | SignalRead]) -> "ColumnarLayout":
        """Lay the reads out: one pass to size sections, one to place."""
        total8 = 0
        total_samples = 0
        total_codes = 0
        for read in reads:
            if isinstance(read, SignalRead):
                total8 += 8 * read.signal.n_bases
                total_samples += 4 * read.signal.samples.size
            else:
                total8 += 8 * len(read)
                total_codes += len(read)
        handles: list[ReadHandle | SignalHandle] = []
        offset8 = 0
        samples_offset = total8
        codes_offset = total8 + total_samples
        for read in reads:
            if isinstance(read, SignalRead):
                n_starts = read.signal.n_bases
                n_samples = read.signal.samples.size
                handles.append(
                    SignalHandle(
                        read_id=read.read_id,
                        declared_bases=len(read),
                        n_samples=n_samples,
                        n_starts=n_starts,
                        samples_offset=samples_offset,
                        starts_offset=offset8,
                    )
                )
                offset8 += 8 * n_starts
                samples_offset += 4 * n_samples
            else:
                n = len(read)
                handles.append(
                    ReadHandle(
                        read_id=read.read_id,
                        read_class=read.read_class.value,
                        strand=read.strand,
                        ref_start=read.ref_start,
                        ref_end=read.ref_end,
                        seed=read.seed,
                        n_bases=n,
                        quality_offset=offset8,
                        codes_offset=codes_offset,
                    )
                )
                offset8 += 8 * n
                codes_offset += n
        return cls(
            handles=tuple(handles),
            total8=total8,
            total_samples=total_samples,
            total_codes=total_codes,
        )

    @classmethod
    def single(cls, **fields) -> "ColumnarLayout":
        """The layout :meth:`plan` gives a lone read, from its handle's
        fields minus the offsets (``n_bases`` present = base-space).

        For a receiver that knows a one-read image's counts and nothing
        else (the serving wire): where the sections start follows from
        the counts, so offsets never need to travel.
        """
        if "n_bases" in fields:
            n = fields["n_bases"]
            handle = ReadHandle(**fields, quality_offset=0, codes_offset=8 * n)
            return cls((handle,), total8=8 * n, total_samples=0, total_codes=n)
        total8 = 8 * fields["n_starts"]
        handle = SignalHandle(**fields, starts_offset=0, samples_offset=total8)
        return cls(
            (handle,), total8=total8, total_samples=4 * fields["n_samples"], total_codes=0
        )

    def pack_into(self, buf, reads: Sequence[SimulatedRead | SignalRead]) -> int:
        """Write the reads' arrays into ``buf`` at their planned offsets.

        This is the data plane's *one* copy (the "publish" boundary: the
        image is the batch) and is charged through
        :func:`~repro.obs.metrics.record_copy`. Returns the bytes written.
        """
        for handle, read in zip(self.handles, reads, strict=True):
            if isinstance(handle, SignalHandle):
                np.frombuffer(
                    buf, dtype=np.int64, count=handle.n_starts, offset=handle.starts_offset
                )[:] = read.signal.base_starts
                np.frombuffer(
                    buf,
                    dtype=np.float32,
                    count=handle.n_samples,
                    offset=handle.samples_offset,
                )[:] = read.signal.samples
            else:
                np.frombuffer(
                    buf, dtype=np.float64, count=handle.n_bases, offset=handle.quality_offset
                )[:] = read.qualities
                np.frombuffer(
                    buf, dtype=np.uint8, count=handle.n_bases, offset=handle.codes_offset
                )[:] = read.true_codes
        record_copy("publish", self.total_bytes)
        return self.total_bytes


def _view(buf, dtype, count: int, offset: int) -> np.ndarray:
    """A read-only numpy view into ``buf`` (a batch's bytes stay immutable)."""
    view = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    view.flags.writeable = False
    return view


class ColumnarBatch:
    """Read-only columnar access over one packed batch buffer.

    Wraps a buffer (typically a unit's image as a pool worker received
    it) plus the handles that index it. Every accessor returns a
    read-only view -- nothing is copied unless :meth:`reads` is asked to
    (``copy=True``, charged to the ``"attach"`` boundary).

    Views keep a ``bytes``/``bytearray`` buffer alive by themselves; a
    buffer that can be closed (a shared-memory mapping) must stay open
    while any view taken from here is in use.
    """

    def __init__(self, buf, handles: Sequence[ReadHandle | SignalHandle]):
        self._buf = buf
        self._handles = tuple(handles)

    @classmethod
    def from_reads(
        cls, reads: Sequence[SimulatedRead | SignalRead]
    ) -> "tuple[ColumnarBatch, ColumnarLayout]":
        """Pack reads into a fresh private buffer (tests, local kernels)."""
        layout = ColumnarLayout.plan(reads)
        buf = bytearray(max(layout.total_bytes, 1))
        layout.pack_into(buf, reads)
        return cls(buf, layout.handles), layout

    def __len__(self) -> int:
        return len(self._handles)

    @property
    def handles(self) -> tuple[ReadHandle | SignalHandle, ...]:
        return self._handles

    # --- column views -------------------------------------------------

    def quality(self, i: int) -> np.ndarray:
        """Read ``i``'s float64 quality track (base-space reads)."""
        handle = self._handles[i]
        if not isinstance(handle, ReadHandle):
            raise TypeError(f"read {i} is signal-native; it has no quality track")
        return _view(self._buf, np.float64, handle.n_bases, handle.quality_offset)

    def codes(self, i: int) -> np.ndarray:
        """Read ``i``'s uint8 base codes (base-space reads)."""
        handle = self._handles[i]
        if not isinstance(handle, ReadHandle):
            raise TypeError(f"read {i} is signal-native; it has no base codes")
        return _view(self._buf, np.uint8, handle.n_bases, handle.codes_offset)

    def samples(self, i: int) -> np.ndarray:
        """Read ``i``'s float32 raw current (signal-native reads)."""
        handle = self._handles[i]
        if not isinstance(handle, SignalHandle):
            raise TypeError(f"read {i} is base-space; it has no sample column")
        return _view(self._buf, np.float32, handle.n_samples, handle.samples_offset)

    def base_starts(self, i: int) -> np.ndarray:
        """Read ``i``'s int64 base-start track (signal-native reads)."""
        handle = self._handles[i]
        if not isinstance(handle, SignalHandle):
            raise TypeError(f"read {i} is base-space; it has no base-start track")
        return _view(self._buf, np.int64, handle.n_starts, handle.starts_offset)

    # --- read reconstruction -----------------------------------------

    def reads(self, copy: bool = False) -> list[SimulatedRead | SignalRead]:
        """Rebuild the batch's reads from the columnar buffers.

        ``copy=False`` (the zero-copy plane): every array is a read-only
        view into the batch buffer, valid for as long as the buffer is
        (see the module's lifetime note). ``copy=True``: arrays are
        copied out, and the copied bytes are charged to the ``"attach"``
        boundary.
        """
        reads: list[SimulatedRead | SignalRead] = []
        copied = 0
        for i, handle in enumerate(self._handles):
            if isinstance(handle, SignalHandle):
                samples = self.samples(i)
                starts = self.base_starts(i)
                if copy:
                    copied += samples.nbytes + starts.nbytes
                    samples = samples.copy()
                    starts = starts.copy()
                reads.append(
                    SignalRead(
                        read_id=handle.read_id,
                        signal=RawSignal(samples=samples, base_starts=starts),
                        declared_bases=handle.declared_bases,
                    )
                )
                continue
            qualities = self.quality(i)
            codes = self.codes(i)
            if copy:
                copied += qualities.nbytes + codes.nbytes
                qualities = qualities.copy()
                codes = codes.copy()
            reads.append(
                SimulatedRead(
                    read_id=handle.read_id,
                    read_class=ReadClass(handle.read_class),
                    strand=handle.strand,
                    ref_start=handle.ref_start,
                    ref_end=handle.ref_end,
                    true_codes=codes,
                    qualities=qualities,
                    seed=handle.seed,
                )
            )
        if copy:
            record_copy("attach", copied)
        return reads

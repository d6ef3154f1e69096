"""Binary on-disk containers for raw signals and simulated reads.

ONT devices persist raw signals in FAST5/SLOW5 containers; the 3913 GB
"raw signal data" of the paper's Fig. 1 is this artefact at rest, and
the conventional pipeline's first data movement is shipping it to the
basecalling machine. This module provides compact binary stores so the
examples can materialise that payload and the movement volumes modelled
in :mod:`repro.perf` correspond to real bytes.

Two record kinds share the same framing conventions (little-endian,
length-prefixed records behind a counted header):

* **signal store** (magic ``RSIG``): quantised raw current per read;
* **read store** (magic ``GPRD``): full :class:`SimulatedRead` ground
  truth -- codes, exact float64 quality track, class/locus/seed -- so a
  dataset round-trips *bit-identically* through disk and the streaming
  runtime source (:class:`repro.runtime.source.StoreSource`) produces
  outcomes equal to an in-memory run.

Both kinds have a streaming reader (:func:`iter_signals`,
:func:`iter_read_store`) that parses record-by-record from a file
handle, never holding more than one record in memory -- the container
analogue of slow5's sequential access path. Every read is
bounds-checked: a truncated or corrupt container raises ``ValueError``
instead of returning garbage. A read record is corrupt when its class
code is unknown, its has-ref flag not 0 or 1, its strand not +-1, a
reference coordinate it has negative
(:func:`~repro.nanopore.read_simulator.check_read_metadata`), a base
code above 3 or a quality non-finite or below 0
(:func:`~repro.nanopore.read_simulator.check_read_payload`): the checks
the serving protocol makes on a served read.

Signal-record layout:

.. code-block:: text

    header:  magic "RSIG" | u16 version | u32 record count
    record:  u16 read-id length | read-id (utf-8)
             f32 offset | f32 scale          # sample dequantisation
             u32 n_samples | i16[n_samples]  # quantised current
             u32 n_bases   | u32[n_bases]    # base start indices

Samples are stored as 16-bit integers with a per-read affine
(offset, scale) — the same quantisation real sequencers apply — so a
round-trip is lossy only below the quantisation step, which tests bound.

Read-record layout:

.. code-block:: text

    header:  magic "GPRD" | u16 version | u32 record count
    record:  u16 read-id length | read-id (utf-8)
             u8 class | i8 strand | u8 has-ref | i64 ref_start | i64 ref_end
             u64 seed
             u32 n_bases | u8[n_bases] codes | f64[n_bases] qualities
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.nanopore.read_simulator import ReadClass, SimulatedRead, check_read_metadata, check_read_payload
from repro.nanopore.signal import RawSignal

_MAGIC = b"RSIG"
_READ_MAGIC = b"GPRD"
_VERSION = 1
_HEADER_SIZE = 10  # magic + u16 version + u32 count

#: Stable wire codes for :class:`ReadClass` (never reorder).
_CLASS_TO_CODE = {ReadClass.NORMAL: 0, ReadClass.LOW_QUALITY: 1, ReadClass.JUNK: 2}
_CODE_TO_CLASS = {code: cls for cls, code in _CLASS_TO_CODE.items()}


@dataclass(frozen=True)
class SignalRecord:
    """One read's raw signal with its identifier."""

    read_id: str
    signal: RawSignal


def strip_base_starts(records: Iterable[SignalRecord]) -> Iterator[SignalRecord]:
    """Records with the base-start track removed (samples only).

    Real FAST5/SLOW5 containers carry no base-start track -- that grid
    is this repo's synthesis artefact. Writing a container through this
    filter produces the genuinely raw artefact, which downstream layers
    must re-grid by event segmentation
    (:mod:`repro.signal.segmentation`) before chunking.
    """
    for record in records:
        yield SignalRecord(
            read_id=record.read_id,
            signal=RawSignal(
                samples=record.signal.samples,
                base_starts=np.empty(0, dtype=np.int64),
            ),
        )


def _quantise(samples: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Affine-quantise float samples to int16; returns (q, offset, scale)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return np.empty(0, dtype=np.int16), 0.0, 1.0
    lo = float(samples.min())
    hi = float(samples.max())
    scale = (hi - lo) / 65_000.0 if hi > lo else 1.0
    q = np.rint((samples - lo) / scale) - 32_500
    return q.astype(np.int16), lo, scale


# --- shared low-level framing ---------------------------------------------


def _read_exact(handle: BinaryIO, n: int, what: str, file_size: int | None = None) -> bytes:
    """Read exactly ``n`` bytes or fail loudly (truncation guard).

    ``file_size`` bounds the request *before* allocating: a corrupt
    count field can declare gigabytes, and ``handle.read`` would
    allocate the full buffer upfront (MemoryError, not the promised
    ValueError) without this check.
    """
    if file_size is not None and n > file_size - handle.tell():
        raise ValueError(
            f"truncated store: {what} declares {n} byte(s) but only "
            f"{file_size - handle.tell()} remain"
        )
    data = handle.read(n)
    if len(data) != n:
        raise ValueError(
            f"truncated store: expected {n} byte(s) for {what}, got {len(data)}"
        )
    return data


def _read_header(handle: BinaryIO, magic: bytes, kind: str) -> int:
    """Parse a container header; returns the declared record count."""
    head = handle.read(_HEADER_SIZE)
    if len(head) < 4 or head[:4] != magic:
        raise ValueError(f"not a {kind} (bad magic)")
    if len(head) < _HEADER_SIZE:
        raise ValueError(f"truncated {kind} header")
    version, count = struct.unpack_from("<HI", head, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported {kind} version {version}")
    return count

def _check_no_trailing(handle: BinaryIO, kind: str) -> None:
    if handle.read(1):
        raise ValueError(f"trailing bytes in {kind}")


def _write_header(handle: BinaryIO, magic: bytes, count: int) -> None:
    handle.write(magic)
    handle.write(struct.pack("<HI", _VERSION, count))


def _patch_count(handle: BinaryIO, magic: bytes, count: int) -> None:
    """Seek back and fill in the header's record count.

    Writers stream records straight to the handle (O(one record) of
    memory even for dataset-scale containers) and only learn the count
    at the end; the count field sits at a fixed offset behind the
    container's magic and version, so it is patched in place.
    """
    handle.seek(len(magic) + 2)
    handle.write(struct.pack("<I", count))


@contextlib.contextmanager
def _atomic_writer(path: Path):
    """Stream into a same-directory temp file, then rename into place.

    An interrupted write (Ctrl-C, crash) must never leave a poisoned
    half-container at the target path -- callers like the CLI's
    ``--source store`` treat existence as validity. The temp name is
    unique per writer (``mkstemp``), so concurrent writers to the same
    path cannot corrupt each other's stream; ``os.replace`` is atomic
    on POSIX and Windows and the temp file is removed on failure.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    tmp = Path(tmp_name)
    try:
        if hasattr(os, "fchmod"):
            # mkstemp creates 0600; published containers should be
            # readable like any written artifact. A fixed 0644 avoids
            # probing the process-global umask (not thread-safe).
            os.fchmod(fd, 0o644)
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --- signal store ----------------------------------------------------------


def write_signals(path, records: Iterable[SignalRecord]) -> int:
    """Write signal records (streamed); returns the payload size in bytes.

    Records are serialized one at a time straight to the file, so
    writing from a generator needs O(one record) of memory.
    """
    path = Path(path)
    with _atomic_writer(path) as handle:
        _write_header(handle, _MAGIC, 0)
        count = 0
        for record in records:
            read_id = record.read_id.encode("utf-8")
            q, offset, scale = _quantise(record.signal.samples)
            starts = np.asarray(record.signal.base_starts, dtype=np.uint32)
            body = bytearray()
            body += struct.pack("<H", len(read_id))
            body += read_id
            body += struct.pack("<ff", offset, scale)
            body += struct.pack("<I", q.size)
            body += q.tobytes()
            body += struct.pack("<I", starts.size)
            body += starts.tobytes()
            handle.write(bytes(body))
            count += 1
        _patch_count(handle, _MAGIC, count)
    return path.stat().st_size


def signal_count(path) -> int:
    """The record count declared by a signal store's header."""
    with open(path, "rb") as handle:
        return _read_header(handle, _MAGIC, "raw-signal store")


def iter_signals(path) -> Iterator[SignalRecord]:
    """Stream signal records one at a time (never the whole container).

    This is the generator the streaming runtime builds on: memory is
    bounded by the largest single record, so a Bowden-scale container
    can be consumed without materialising 3913 GB of signal. Truncated
    or corrupt containers raise ``ValueError`` at the offending record.
    """
    with open(path, "rb") as handle:
        file_size = os.fstat(handle.fileno()).st_size
        count = _read_header(handle, _MAGIC, "raw-signal store")
        for index in range(count):
            what = f"signal record {index}"
            (id_len,) = struct.unpack("<H", _read_exact(handle, 2, what, file_size))
            read_id = _read_exact(handle, id_len, what, file_size).decode("utf-8")
            offset, scale = struct.unpack("<ff", _read_exact(handle, 8, what, file_size))
            (n_samples,) = struct.unpack("<I", _read_exact(handle, 4, what, file_size))
            q = np.frombuffer(
                _read_exact(handle, 2 * n_samples, what, file_size), dtype=np.int16
            )
            (n_bases,) = struct.unpack("<I", _read_exact(handle, 4, what, file_size))
            starts = np.frombuffer(
                _read_exact(handle, 4 * n_bases, what, file_size), dtype=np.uint32
            )
            samples = ((q.astype(np.float64) + 32_500) * scale + offset).astype(np.float32)
            try:
                signal = RawSignal(samples=samples, base_starts=starts.astype(np.int64))
            except ValueError as exc:
                raise ValueError(f"{what} ({read_id!r}): {exc}") from exc
            yield SignalRecord(read_id=read_id, signal=signal)
        _check_no_trailing(handle, "signal store")


def read_signals(path) -> list[SignalRecord]:
    """Read all signal records from a store."""
    return list(iter_signals(path))


def quantisation_step(samples: np.ndarray) -> float:
    """The store's quantisation step for a sample array (error bound)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        return 0.0
    span = float(samples.max() - samples.min())
    return span / 65_000.0 if span > 0 else 0.0


# --- read store ------------------------------------------------------------


def write_read_store(path, reads: Iterable[SimulatedRead]) -> int:
    """Persist simulated reads with full ground truth; returns file size.

    Records are serialized one at a time straight to the file (writing
    from a generator needs O(one record) of memory), and qualities are
    stored as exact float64, so a stored dataset streams back
    *bit-identically*: pipeline outcomes over a
    :class:`~repro.runtime.source.StoreSource` equal the in-memory run's.
    """
    path = Path(path)
    with _atomic_writer(path) as handle:
        _write_header(handle, _READ_MAGIC, 0)
        count = 0
        for read in reads:
            read_id = read.read_id.encode("utf-8")
            has_ref = read.ref_start is not None and read.ref_end is not None
            body = bytearray()
            body += struct.pack("<H", len(read_id))
            body += read_id
            body += struct.pack(
                "<BbBqq",
                _CLASS_TO_CODE[read.read_class],
                read.strand,
                int(has_ref),
                read.ref_start if has_ref else 0,
                read.ref_end if has_ref else 0,
            )
            body += struct.pack("<Q", read.seed)
            codes = np.ascontiguousarray(read.true_codes, dtype=np.uint8)
            quals = np.ascontiguousarray(read.qualities, dtype=np.float64)
            body += struct.pack("<I", codes.size)
            body += codes.tobytes()
            body += quals.tobytes()
            handle.write(bytes(body))
            count += 1
        _patch_count(handle, _READ_MAGIC, count)
    return path.stat().st_size


def read_store_count(path) -> int:
    """The record count declared by a read store's header."""
    with open(path, "rb") as handle:
        return _read_header(handle, _READ_MAGIC, "read store")


def iter_read_store(path) -> Iterator[SimulatedRead]:
    """Stream simulated reads from a read store one at a time.

    Memory is bounded by the largest single read; truncated or corrupt
    containers raise ``ValueError`` at the offending record.
    """
    with open(path, "rb") as handle:
        file_size = os.fstat(handle.fileno()).st_size
        count = _read_header(handle, _READ_MAGIC, "read store")
        for index in range(count):
            what = f"read record {index}"
            (id_len,) = struct.unpack("<H", _read_exact(handle, 2, what, file_size))
            read_id = _read_exact(handle, id_len, what, file_size).decode("utf-8")
            class_code, strand, has_ref, ref_start, ref_end = struct.unpack(
                "<BbBqq", _read_exact(handle, 19, what, file_size)
            )
            (seed,) = struct.unpack("<Q", _read_exact(handle, 8, what, file_size))
            (n_bases,) = struct.unpack("<I", _read_exact(handle, 4, what, file_size))
            codes = np.frombuffer(_read_exact(handle, n_bases, what, file_size), dtype=np.uint8)
            quals = np.frombuffer(
                _read_exact(handle, 8 * n_bases, what, file_size), dtype=np.float64
            )
            try:
                if class_code not in _CODE_TO_CLASS:
                    raise ValueError(f"unknown read class {class_code}")
                if has_ref not in (0, 1):
                    raise ValueError(f"has-ref flag must be 0 or 1, got {has_ref}")
                if not has_ref:
                    ref_start = ref_end = None
                check_read_metadata(strand, ref_start, ref_end, seed)
                check_read_payload(codes, quals)
            except ValueError as exc:
                raise ValueError(f"corrupt read store: {what} ({read_id!r}): {exc}") from exc
            yield SimulatedRead(
                read_id=read_id,
                read_class=_CODE_TO_CLASS[class_code],
                strand=strand,
                ref_start=ref_start,
                ref_end=ref_end,
                true_codes=codes.copy(),
                qualities=quals.copy(),
                seed=seed,
            )
        _check_no_trailing(handle, "read store")

"""Read sources: where a dataset-scale run pulls its reads from.

The GenPIP evaluation is movement-dominated (Fig. 1: the Bowden-anchor
dataset is 3913 GB of raw signal at rest), so the runtime must be able
to *stream* reads from wherever they live instead of materialising the
dataset in the parent process. A :class:`ReadSource` is anything the
engine can iterate reads from, with an optional size hint for batch
planning:

* :class:`SequenceSource` -- an in-memory sequence (a ``Dataset`` or a
  plain list of reads); re-iterable.
* :class:`SimulatorSource` -- lazy generation straight from a dataset
  profile; each iteration rebuilds the deterministic simulator, so the
  source is re-iterable and two iterations yield identical reads.
* :class:`StoreSource` -- incremental streaming from an on-disk read
  container (:func:`repro.nanopore.signal_store.iter_read_store`);
  memory is bounded by one record, re-iterable.
* :class:`SignalStoreSource` -- incremental streaming of *signal-native*
  reads (:class:`~repro.nanopore.signal_read.SignalRead`) from an
  on-disk raw-signal container (:func:`~repro.nanopore.signal_store
  .iter_signals`): the run starts from stored raw current, the paper's
  actual input artefact, and never synthesizes a signal.
* :class:`IterableSource` -- adapter for a bare iterable/generator
  (single-use unless the iterable itself is re-iterable).

The engine pulls reads from the source's iterator inline, one work unit
at a time, in the thread that called it: a source that raises fails the
run with its own exception, and is never read further ahead than the
engine's in-flight window.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.nanopore.datasets import DatasetProfile, iter_dataset_reads
from repro.nanopore.read_simulator import SimulatedRead
from repro.nanopore.signal_read import SignalRead
from repro.nanopore.signal_store import (
    iter_read_store,
    iter_signals,
    read_store_count,
    signal_count,
)


@runtime_checkable
class ReadSource(Protocol):
    """Structural protocol for read providers.

    ``__iter__`` yields reads in dataset order; ``size_hint`` returns
    the total read count when cheaply known (``None`` otherwise -- the
    engine then falls back to a default batch size).
    """

    def __iter__(self) -> Iterator[SimulatedRead]: ...  # pragma: no cover - protocol

    def size_hint(self) -> int | None: ...  # pragma: no cover - protocol


class SequenceSource:
    """An in-memory sequence of reads (or a ``Dataset``); re-iterable."""

    def __init__(self, reads: Sequence[SimulatedRead]):
        self._reads = reads

    def __iter__(self) -> Iterator[SimulatedRead]:
        return iter(self._reads)

    def size_hint(self) -> int | None:
        return len(self._reads)


class SimulatorSource:
    """Lazy generator source: reads are simulated on demand.

    Parameters mirror :func:`repro.nanopore.datasets.generate_dataset`;
    iterating yields exactly the reads that call would materialise, one
    at a time. Each iteration builds a fresh deterministic simulator,
    so the source is re-iterable with identical results. (One engine run
    iterates it once: a pool broken mid-run is resumed from the units in
    flight, never by rerunning the stream.)
    """

    def __init__(
        self,
        profile: DatasetProfile,
        *,
        scale: float = 0.005,
        seed: int = 0,
        reference=None,
    ):
        self._profile = profile
        self._scale = scale
        self._seed = seed
        self._reference = reference

    def __iter__(self) -> Iterator[SimulatedRead]:
        return iter_dataset_reads(
            self._profile, scale=self._scale, seed=self._seed, reference=self._reference
        )

    def size_hint(self) -> int | None:
        return self._profile.scaled_read_count(self._scale)


class StoreSource:
    """Streams reads incrementally from an on-disk read container.

    Built on :func:`~repro.nanopore.signal_store.iter_read_store`:
    parent memory is bounded by one record, and the header count serves
    as the size hint. Re-iterable (each iteration reopens the file).
    """

    def __init__(self, path):
        self._path = Path(path)

    @property
    def path(self) -> Path:
        return self._path

    def __iter__(self) -> Iterator[SimulatedRead]:
        return iter_read_store(self._path)

    def size_hint(self) -> int | None:
        return read_store_count(self._path)


class SignalStoreSource:
    """Streams signal-native reads from an on-disk raw-signal container.

    Built on :func:`~repro.nanopore.signal_store.iter_signals`: each
    record becomes a :class:`~repro.nanopore.signal_read.SignalRead`
    whose samples flow to a signal-space basecaller as-is -- no
    synthesis anywhere on the path. Parent memory is bounded by one
    record, the header count is the size hint, and the source is
    re-iterable (each iteration reopens the file).

    ``segmentation`` activates the event-segmentation front-end
    (:mod:`repro.signal.segmentation`) for records that carry *no*
    base-start track -- the shape of real FAST5/SLOW5 data: such a read
    has no chunk grid, so its grid is recovered from the samples by
    jump detection before the read enters the dataflow. Segmentation
    runs here, in the parent, exactly once per read per iteration --
    the derived grid then travels to workers with the read (both
    transports ship ``base_starts``), which keeps pooled runs
    byte-identical to serial ones. Records that already carry a grid
    pass through untouched.
    """

    def __init__(self, path, segmentation=None):
        self._path = Path(path)
        self._segmentation = segmentation

    @property
    def path(self) -> Path:
        return self._path

    def __iter__(self) -> Iterator[SignalRead]:
        from repro.signal.segmentation import segment_read

        for record in iter_signals(self._path):
            read = SignalRead.from_record(record)
            if (
                self._segmentation is not None
                and read.signal.n_bases == 0
                and read.n_samples > 0
            ):
                read = segment_read(read, self._segmentation)
            yield read

    def size_hint(self) -> int | None:
        return signal_count(self._path)


class IterableSource:
    """Adapter giving a bare iterable the :class:`ReadSource` shape."""

    def __init__(self, reads: Iterable[SimulatedRead], size_hint: int | None = None):
        self._reads = reads
        self._size_hint = size_hint

    def __iter__(self) -> Iterator[SimulatedRead]:
        return iter(self._reads)

    def size_hint(self) -> int | None:
        return self._size_hint


def as_read_source(data) -> ReadSource:
    """Coerce engine input to a :class:`ReadSource`.

    Accepts an existing source (anything with ``size_hint``), a
    ``Dataset`` (its ``reads``), a sequence of reads, or a bare
    iterable (wrapped single-use, unsized).
    """
    if hasattr(data, "size_hint") and hasattr(data, "__iter__"):
        return data
    reads = getattr(data, "reads", data)
    if isinstance(reads, Sequence):
        return SequenceSource(reads)
    return IterableSource(reads)


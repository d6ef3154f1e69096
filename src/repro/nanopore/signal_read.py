"""Signal-native reads: stored raw current as a first-class pipeline input.

GenPIP's pipeline starts from *raw nanopore current*, not from bases
(PAPER.md, Fig. 2): the conventional flow's first artefact is the signal
container at rest, and everything downstream -- chunking, basecalling,
CP/ER, mapping -- consumes windows of that current. A
:class:`SignalRead` is that artefact as a pipeline input: one read's
raw samples (plus the base-start track the chunk grid needs), flowing
from a signal container (:func:`repro.nanopore.signal_store.iter_signals`)
through the runtime's source/transport layers into a signal-space
basecaller, without ever synthesizing current from known bases.

The contract mirrors :class:`~repro.nanopore.read_simulator.SimulatedRead`
where the pipeline is generic -- ``read_id`` and ``len(read)`` (the
base-grid length every layer chunks and shards on) -- and adds the
signal-specific surface: the samples themselves, in picoampere as the
decoders read them, and container round-tripping
(:meth:`from_record` / :meth:`to_record`). The basecaller cuts the
chunk grid, as for any read: :func:`~repro.basecalling.chunked.chunk_span`
over ``len(read)``, then :meth:`~repro.nanopore.signal.RawSignal.clamped_slice`.

Base-grid length vs modelled positions: a synthesized signal models
``n_true_bases - k + 1`` k-mer positions, so a read reconstructed from
a container knows only the modelled count. ``declared_bases`` lets a
producer that *does* know the true base count (e.g. the synthesis path
in tests) pin the chunk grid to it, making signal-native decodes
byte-identical to the synthesis path's; stored reads default to the
modelled count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nanopore.signal import RawSignal
from repro.nanopore.signal_store import SignalRecord


@dataclass(frozen=True)
class SignalRead:
    """One read's raw current, as a pipeline input.

    Attributes
    ----------
    read_id:
        Unique identifier within the dataset/container.
    signal:
        The raw current: ``float32`` samples plus the sample index at
        which each modelled base starts.
    declared_bases:
        Base-grid length used for chunking and sharding (``len(read)``).
        ``None`` defaults to the signal's modelled position count; a
        producer that knows the true base count may declare it so the
        grid matches a base-space view of the same read exactly.
    """

    read_id: str
    signal: RawSignal
    declared_bases: int | None = None

    def __post_init__(self) -> None:
        if self.declared_bases is None:
            object.__setattr__(self, "declared_bases", self.signal.n_bases)
        elif self.declared_bases < self.signal.n_bases:
            raise ValueError(
                f"declared_bases {self.declared_bases} below the signal's "
                f"{self.signal.n_bases} modelled positions"
            )

    def __len__(self) -> int:
        """Base-grid length (what chunking and sharding consume)."""
        return int(self.declared_bases)

    @property
    def n_samples(self) -> int:
        return len(self.signal)

    @classmethod
    def from_record(
        cls, record: SignalRecord, declared_bases: int | None = None
    ) -> "SignalRead":
        """Wrap a container record (the signal-store decode path)."""
        return cls(
            read_id=record.read_id, signal=record.signal, declared_bases=declared_bases
        )

    def to_record(self) -> SignalRecord:
        """The container record for this read (the signal-store encode path)."""
        return SignalRecord(read_id=self.read_id, signal=self.signal)

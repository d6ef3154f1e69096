"""The structural basecaller protocol the pipeline is typed against.

GenPIP's central claim is that the chunk pipeline (CP) and early
rejection (ER) are independent of the basecaller implementation: the
paper pairs the same control flow with a Bonito-class DNN running on PIM
hardware. This module states that independence as code: the pipeline is
typed against the chunk-basecaller *protocol*, not against any concrete
engine. The rejection policies are not pluggable: QSR and CMR are
derived from :class:`~repro.core.config.GenPIPConfig`, and SER is
:class:`~repro.signal.rejection.SignalRejectionPolicy`.

Any object satisfying :class:`Basecaller` can drive
:class:`~repro.core.pipeline.GenPIPPipeline`; the repo ships two:

* ``"surrogate"`` -- ground-truth replay with a calibrated error model
  (:class:`~repro.basecalling.surrogate.SurrogateBasecaller`), the
  dataset-scale engine;
* ``"viterbi"`` -- real signal-space k-mer HMM decoding
  (:class:`~repro.basecalling.engines.ViterbiChunkBasecaller`).

The protocol is ``runtime_checkable`` so registries and tests can
verify conformance with ``isinstance``; being structural, third-party
engines need no imports from this repo beyond the data types.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.basecalling.types import BasecalledChunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.nanopore.read_simulator import SimulatedRead


@runtime_checkable
class Basecaller(Protocol):
    """The chunk-level basecaller contract the CP pipeline consumes.

    Implementations must be *chunk-deterministic*: a chunk's bytes may
    depend only on ``(read, index, chunk_size)`` -- never on which other
    chunks were requested before it, nor on which chunks (of its read or
    of others) share its call, nor on their order. The chunk-based
    pipeline, the conventional pipeline, and every early-rejection
    policy must see byte-identical basecalls for the chunks they do
    process -- the software analogue of the paper's "no accuracy loss"
    claim, and the invariant behind the parallel runtime's report
    equivalence.

    The protocol is what the pipeline calls: ``n_chunks`` and the batch
    decode ``basecall_many``, which takes ``(read, indices)`` requests,
    possibly of many reads, and returns each request's chunks. A work
    unit makes one call for the QSR sample of every read SER kept, one
    for the CMR merge sets of the reads QSR kept and one for the
    remainders of the reads still going, mirroring how the paper's
    chunks of many reads move between basecalling, QSR, CMR and mapping
    together (Fig. 6).
    An engine may share work across the call however it likes, as long
    as every chunk comes out as it would decoded alone. Per-chunk and
    per-read entry points (the shipped engines' ``basecall_chunk``,
    ``basecall_chunks`` and ``basecall_read``) are each engine's own API.

    For the runtime to ship an engine to worker processes it must also
    be picklable: an engine travels as itself.

    Engines that can decode *signal-native* inputs -- reads that carry
    stored raw current (:class:`~repro.nanopore.signal_read.SignalRead`)
    instead of base-space ground truth -- declare it with a truthy
    ``accepts_signal_reads`` attribute (a plain class attribute; absent
    means base-space only). The pipeline and runtime check it before
    feeding a signal source to an engine.
    """

    def n_chunks(self, read: "SimulatedRead", chunk_size: int) -> int:
        """Number of chunks the read splits into at this chunk size."""
        ...

    def basecall_many(
        self, requests: Sequence[tuple["SimulatedRead", Sequence[int]]], chunk_size: int
    ) -> list[list[BasecalledChunk]]:
        """Basecall each request's chunks ``indices`` of its read: one
        list per request, its chunks in the order given."""
        ...

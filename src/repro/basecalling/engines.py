"""The signal-space chunk-basecaller backend for the CP pipeline.

The core pipeline consumes the structural
:class:`~repro.core.backends.Basecaller` protocol; this module adapts
the repo's *signal-space* decoder -- the k-mer HMM Viterbi decoder -- to
that chunk-level contract (:class:`ViterbiChunkBasecaller`), so it runs
the identical CP/ER control flow as the dataset-scale surrogate.

The decoder consumes raw current, and a read's current comes from one
of two places (:meth:`ViterbiChunkBasecaller.read_signal`):

* the read **is** signal: a
  :class:`~repro.nanopore.signal_read.SignalRead` decoded from a stored
  container (the paper's actual input artefact) carries picoampere
  samples, and the backend decodes them as stored;
* the read is a :class:`SimulatedRead` (ground truth + quality track,
  no samples): the engine synthesizes its signal on demand,
  deterministically in ``read.seed`` (one rng stream per read, so the
  signal -- and therefore every chunk decode -- is independent of
  processing order, the invariant the chunk pipeline relies on). The
  synthesis is *quality-conditioned*: measurement noise grows where the
  read's quality track is low, so low-quality reads genuinely decode
  worse and quality-based early rejection remains meaningful in signal
  space. A work unit synthesizes a read's signal once: see
  :meth:`~ViterbiChunkBasecaller.basecall_many`.

Chunks are cut on the shared :func:`~repro.basecalling.chunked.chunk_span`
grid (base coordinates) and decoded independently, losing k-mer
context at boundaries -- the same trade-off real chunked basecallers
make. ``n_true_bases`` keeps the surrogate's accounting so SQS/AQS and
the performance model treat both engines uniformly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.basecalling.chunked import chunk_count, chunk_span, reassemble_chunks
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.basecalling.viterbi import ViterbiBasecaller, ViterbiConfig
from repro.checks import require_finite, require_integer
from repro.genomics.quality import phred_to_error_prob
from repro.kernels.viterbi import viterbi_state_ops
from repro.kernels.workload import KernelWorkload
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.read_simulator import SimulatedRead
from repro.nanopore.signal import RawSignal, SignalConfig, synthesize_signal
from repro.nanopore.signal_read import SignalRead
from repro.nanopore.signal_store import SignalRecord

#: Second word of the per-read rng seed sequence, so the signal stream
#: never collides with the surrogate's (read.seed, chunk_size, index)
#: error-injection streams.
_SIGNAL_STREAM = 0x516E41


def synthesize_read_signal(
    read: SimulatedRead,
    pore_model: PoreModel,
    signal_config: SignalConfig,
    quality_noise: float = 0.0,
) -> RawSignal:
    """Deterministic raw signal for a simulated read.

    Seeded purely by ``read.seed``, so the result is independent of
    processing order. ``quality_noise`` scales extra per-base
    measurement noise by the quality-implied error probability
    (``sigma_i = quality_noise * sqrt(10^(-q_i/10))``): a q=5 stretch
    gains ~0.56x that sigma, a q=30 stretch ~0.03x.
    """
    rng = np.random.default_rng([read.seed & 0x7FFFFFFF, _SIGNAL_STREAM])
    signal = synthesize_signal(read.true_codes, pore_model, signal_config, rng)
    if quality_noise <= 0.0 or signal.n_bases == 0:
        return signal
    dwells = np.diff(np.append(signal.base_starts, signal.samples.size))
    sigma = quality_noise * np.sqrt(phred_to_error_prob(read.qualities[: signal.n_bases]))
    extra = rng.normal(0.0, 1.0, size=signal.samples.size) * np.repeat(sigma, dwells)
    return RawSignal(
        samples=(signal.samples + extra).astype(np.float32),
        base_starts=signal.base_starts,
    )


@dataclass(frozen=True)
class ViterbiBackendConfig:
    """Construction recipe for :class:`ViterbiChunkBasecaller`.

    A plain picklable dataclass the engine is deterministic in; it
    travels to worker processes inside the engine that was built from it.

    Attributes
    ----------
    pore_k, pore_seed:
        Shape of the deterministic synthetic pore model. ``k`` sets the
        Viterbi state space (``4**k``, ``k`` from 3 to 8); tests drop to
        ``k=3`` for speed.
    decoder:
        Viterbi decoding parameters.
    signal:
        Signal synthesis parameters.
    quality_noise:
        Scale of the quality-conditioned extra measurement noise (pA);
        0 disables conditioning.
    """

    pore_k: int = 5
    pore_seed: int = 7
    decoder: ViterbiConfig = field(default_factory=ViterbiConfig)
    signal: SignalConfig = field(default_factory=SignalConfig)
    quality_noise: float = 6.0

    def __post_init__(self) -> None:
        # Each would otherwise surface only when the engine is built or
        # at the first synthesized chunk, inside a worker.
        require_integer("pore_k", self.pore_k, ge=3, le=8)
        require_integer("pore_seed", self.pore_seed, ge=0)
        require_finite("quality_noise", self.quality_noise, ge=0)


class ViterbiChunkBasecaller:
    """The k-mer HMM Viterbi decoder behind the chunk-basecaller contract.

    Supplies the :class:`~repro.core.backends.Basecaller` surface: the
    shared chunk grid, chunk reassembly, and :meth:`read_signal` --
    carried samples for a signal-native read, synthesis for a base-space
    simulated one. The engine is deterministic in its
    :class:`ViterbiBackendConfig`, which is all it is built from.
    """

    #: Decodes :class:`SignalRead` inputs natively.
    accepts_signal_reads = True

    def __init__(self, config: ViterbiBackendConfig | None = None):
        if config is not None and not isinstance(config, ViterbiBackendConfig):
            raise TypeError(
                "ViterbiChunkBasecaller expects a ViterbiBackendConfig, "
                f"got {type(config).__name__}"
            )
        self._config = config or ViterbiBackendConfig()
        self._pore_model = PoreModel.synthetic(
            k=self._config.pore_k, seed=self._config.pore_seed
        )
        self._decoder = ViterbiBasecaller(self._pore_model, self._config.decoder)
        # The last two basecall_many calls' synthesized signals, older
        # first, by (read_id, seed, length): the length keeps a reused
        # id + seed from aliasing (hashing content would cost O(read)).
        self._held: tuple[dict, dict] = ({}, {})

    def __getstate__(self) -> dict:
        # The engine is what travels to a worker; the held signals stay home.
        state = dict(self.__dict__)
        state["_held"] = ({}, {})
        return state

    @property
    def config(self) -> ViterbiBackendConfig:
        return self._config

    @property
    def decoder(self) -> ViterbiBasecaller:
        return self._decoder

    @property
    def pore_model(self) -> PoreModel:
        return self._pore_model

    def read_signal(self, read) -> RawSignal:
        """The read's raw current: carried samples, the signal
        :meth:`basecall_many` holds for it, or a synthesis that is not
        stored."""
        if isinstance(read, SignalRead):
            return read.signal
        if isinstance(read, SimulatedRead):
            key = (read.read_id, read.seed, len(read))
            for held in self._held:
                if key in held:
                    return held[key]
            return self.synthesize_signal(read)
        raise TypeError(
            f"{type(read).__name__} carries no signal; signal-space engines "
            "decode SignalRead (carried samples) or SimulatedRead (synthesis)"
        )

    def synthesize_signal(self, read: SimulatedRead) -> RawSignal:
        """A base-space read's synthesized signal, synthesized anew.

        This is also what writes signal containers: the synthesized
        current of a simulated dataset, persisted once, replaces
        synthesis for every subsequent signal-native run.
        """
        return synthesize_read_signal(
            read, self._pore_model, self._config.signal, self._config.quality_noise
        )

    def signal_records(self, reads: Iterable[SimulatedRead]) -> Iterator[SignalRecord]:
        """Container records of the reads' synthesized signals (streamed)."""
        for read in reads:
            yield SignalRecord(read_id=read.read_id, signal=self.synthesize_signal(read))

    def n_chunks(self, read, chunk_size: int) -> int:
        """Number of chunks the read splits into (shared grid)."""
        return chunk_count(len(read), chunk_size)

    def basecall_chunk(self, read, index: int, chunk_size: int) -> BasecalledChunk:
        """Decode one chunk's signal slice.

        The signal models ``len(read) - k + 1`` k-mer positions, so the
        final chunk's bound is clamped to the modelled range (its last
        ``k - 1`` true bases have no dedicated samples; the decoder's
        trailing k-mer emission covers them approximately).
        """
        start, end = chunk_span(len(read), chunk_size, index)
        samples = self.read_signal(read).clamped_slice(start, end)
        called = self._decoder.basecall(samples, read_id=read.read_id)
        return BasecalledChunk(
            chunk_index=index,
            codes=called.codes,
            qualities=called.qualities,
            n_true_bases=end - start,
        )

    def basecall_chunks(self, read, indices: Sequence[int], chunk_size: int) -> list[BasecalledChunk]:
        """Decode the chunks ``indices`` one by one, in the order given.

        A chunk is milliseconds of compiled trellis, so a shared call
        would save nothing measurable.
        """
        return [self.basecall_chunk(read, index, chunk_size) for index in indices]

    def basecall_many(
        self, requests: Sequence[tuple[object, Sequence[int]]], chunk_size: int
    ) -> list[list[BasecalledChunk]]:
        """Decode each request's chunks ``indices`` of its ``read``, read
        by read (see :meth:`basecall_chunks`). The call holds its
        base-space reads' signals, taken from the two calls before or
        synthesized, for the next two: a unit's reads skip at most its
        middle call (CMR), so each read is synthesized once per unit."""
        held = {}
        for read, _ in requests:
            if isinstance(read, SimulatedRead):
                held[read.read_id, read.seed, len(read)] = self.read_signal(read)
        self._held = (self._held[1], held)
        return [self.basecall_chunks(read, indices, chunk_size) for read, indices in requests]

    def basecall_read(self, read, chunk_size: int) -> BasecalledRead:
        """Basecall every chunk of the read and reassemble."""
        (chunks,) = self.basecall_many([(read, range(self.n_chunks(read, chunk_size)))], chunk_size)
        return reassemble_chunks(read.read_id, chunks)

    def kernel_workload(self, n_bases: int) -> KernelWorkload:
        """Trellis state-space ops for decoding ``n_bases`` worth of signal.

        The trellis sees ``dwell_mean`` observations (raw samples) per
        base and pays :data:`TRANSITIONS_PER_STATE
        <repro.kernels.viterbi.TRANSITIONS_PER_STATE>` transition
        evaluations per state per observation.
        """
        observations = int(round(n_bases * self._config.signal.dwell_mean))
        return KernelWorkload(
            kind="viterbi-state",
            ops=viterbi_state_ops(observations, int(self.pore_model.levels.size)),
            unit="state-ops",
        )

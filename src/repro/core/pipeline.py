"""The chunk-based pipeline (CP) with early rejection (ER) interleaved.

Functional model of the paper's Fig. 6 control flow:

1. basecall the ``N_qs`` evenly-sampled chunks, check QSR -> maybe stop;
2. basecall the first ``N_cm`` chunks, merge, seed + chain, check CMR ->
   maybe stop;
3. basecall the remaining chunks and seed them as one run, with a
   (k + w - 2)-base context overlap so that run seeding finds *exactly*
   the anchors whole-read seeding finds; final chaining + alignment
   produce the mapping result.

Called bases stay 2-bit code arrays from the basecaller to the mapper.
Both engines are fed once per stage, not once per chunk: the basecaller
decodes the QSR sample, the CMR merge set and the remainder in one call
each, and the mapper seeds the merge set, then the remainder.

The conventional pipeline (basecall everything -> read-level QC -> map),
the software baseline of the evaluation, is :class:`GenPIPPipeline` with
:meth:`GenPIPConfig.conventional` -- every ER technique off, which is
what ``variant_config(config, "conventional")`` builds. The chunk-based
pipeline with ER off performs exactly the computation of
basecall-everything-then-map (identical basecalls by chunk determinism;
identical anchors by the seeding overlap) -- the paper's "negligible
accuracy loss" claim, which ``tests/test_core_pipeline.py`` checks
exactly. Only the performance model times the two differently.

Timing is *not* modelled here: this module decides what work happens;
:mod:`repro.perf` decides how long that work takes on each system.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.basecalling.chunked import reassemble_chunks
from repro.basecalling.surrogate import SurrogateBasecaller
from repro.basecalling.types import BasecalledChunk
from repro.core.backends import Basecaller
from repro.core.config import GenPIPConfig
from repro.core.early_rejection import CMRDecision, CMRPolicy, QSRDecision, QSRPolicy
from repro.mapping.index import MinimizerIndex
from repro.mapping.mapper import IncrementalChunkMapper, MappingResult
from repro.nanopore.read_simulator import SimulatedRead
from repro.nanopore.signal_read import SignalRead
from repro.obs.trace import active_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps repro.signal lazy)
    from repro.core.genpip import GenPIPReport
    from repro.nanopore.datasets import Dataset
    from repro.signal.rejection import SERDecision, SignalRejectionPolicy

#: Anything the chunk pipeline can process: a base-space simulated read
#: or a signal-native read carrying stored raw current. Both expose
#: ``read_id`` and ``len(read)`` (the shared chunk/shard grid); which
#: kinds a run supports is the basecaller's affair (signal-space
#: engines declare ``accepts_signal_reads = True``).
PipelineRead = SimulatedRead | SignalRead


class ReadStatus(enum.Enum):
    """Terminal state of one read in the pipeline."""

    #: Stopped by signal-domain early rejection (before any basecalling).
    REJECTED_SIGNAL = "rejected_signal"
    #: Stopped by quality-score early rejection (after N_qs chunks).
    REJECTED_QSR = "rejected_qsr"
    #: Stopped by chunk-mapping early rejection (after ~N_qs + N_cm chunks).
    REJECTED_CMR = "rejected_cmr"
    #: Fully basecalled but dropped by read-level quality control.
    FAILED_QC = "failed_qc"
    #: Fully processed but no confident mapping was found.
    UNMAPPED = "unmapped"
    #: Fully processed and mapped.
    MAPPED = "mapped"


@dataclass(frozen=True)
class ReadOutcome:
    """Everything the experiments and the performance model need per read.

    Work counters count *distinct* chunks (a chunk basecalled for QSR is
    not re-basecalled later).
    """

    read_id: str
    status: ReadStatus
    read_length: int
    n_chunks_total: int
    n_chunks_basecalled: int
    n_bases_basecalled: int
    n_chunks_seeded: int
    n_chain_invocations: int
    aligned: bool
    mean_quality: float | None = None
    ser: SERDecision | None = None
    qsr: QSRDecision | None = None
    cmr: CMRDecision | None = None
    mapping: MappingResult | None = None

    @property
    def rejected_early(self) -> bool:
        return self.status in (
            ReadStatus.REJECTED_SIGNAL,
            ReadStatus.REJECTED_QSR,
            ReadStatus.REJECTED_CMR,
        )


@dataclass(eq=False)
class GenPIPPipeline:
    """The GenPIP system: chunk-based pipeline with optional early rejection.

    :meth:`process_read` runs one read, :meth:`run` a whole dataset.
    The init fields are the constructor arguments: the reference
    ``index``; ``config`` (default: the paper's E. coli parameters), the
    only home of the early-rejection parameters -- the QSR and CMR
    policies are derived from it, never passed in, so
    ``dataclasses.replace(pipeline, config=...)`` re-derives them; any
    chunk-deterministic :class:`~repro.core.backends.Basecaller`
    (default: the surrogate), which runs the identical control flow;
    ``align``, base-level alignment of mapped reads (off for the
    sweeps); and ``ser_policy``, the signal-domain rejection stage for
    signal-native reads (no default: without a policy the stage does
    not exist).

    The instance itself is what :mod:`repro.runtime` hands to a worker
    process (inherited under ``fork``, pickled under ``spawn`` -- so
    engines and policies must be picklable; ``dataclasses.replace``
    rebinds a field, which is how a worker swaps a shared-memory index
    handle for the attached index).
    """

    index: MinimizerIndex
    config: GenPIPConfig | None = None
    basecaller: Basecaller | None = None
    align: bool = True
    #: SER has no reference-free default: None simply disables the
    #: pre-basecalling stage.
    ser_policy: SignalRejectionPolicy | None = None
    _qsr: QSRPolicy = field(init=False, repr=False)
    _cmr: CMRPolicy = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.basecaller = self.basecaller or SurrogateBasecaller()
        self.config = self.config or GenPIPConfig()
        self._qsr = QSRPolicy(self.config)
        self._cmr = CMRPolicy(self.config)

    def accepts_signal_reads(self) -> bool:
        """Whether the configured engine decodes signal-native reads."""
        return bool(getattr(self.basecaller, "accepts_signal_reads", False))

    def signal_rejection_enabled(self) -> bool:
        """Whether the SER stage exists for this pipeline's signal reads."""
        return self.ser_policy is not None and self.config.enable_ser

    def process_batch(self, reads: "list[PipelineRead]") -> "list[ReadOutcome]":
        """Process a batch of reads in order (one runtime work unit).

        Reads are independent -- the pipeline keeps no cross-read state
        -- so batching exists purely to amortise scheduling and IPC in
        :mod:`repro.runtime`: a read's outcome does not depend on its
        batch mates.
        """
        return [self.process_read(read) for read in reads]

    def run(
        self,
        dataset: Dataset,
        *,
        workers: int = 1,
        batch_size: int | None = None,
        sink=None,
    ) -> GenPIPReport:
        """Process every read of a dataset (or any read source).

        Parameters
        ----------
        dataset:
            A :class:`Dataset`, a sequence of reads, or any streaming
            :class:`~repro.runtime.source.ReadSource` (lazy simulator,
            on-disk read store, ...). Signal-native sources
            (:class:`~repro.runtime.source.SignalStoreSource`, yielding
            stored raw current instead of simulated reads) require a
            signal-space basecaller (``"viterbi"``); the
            engine rejects the combination up front otherwise.
        workers:
            Worker processes to shard the reads across; ``0``/``1``
            run serially in-process. Reads are independent, so any
            worker count produces a report identical to the serial run
            (outcomes, order, and counters).
        batch_size:
            Reads per work unit handed to a worker (amortises IPC);
            ``None`` picks a size from the dataset and worker count.
        sink:
            Where outcomes stream as the ordered prefix completes; a
            :class:`~repro.runtime.sink.ReportSink`. ``None`` keeps the
            classic behaviour (full in-memory report). With a streaming
            sink (e.g. :class:`~repro.runtime.sink.JSONLSink`), the
            returned report carries exact counters but no per-read
            outcomes -- those live wherever the sink put them -- and
            parent memory stays O(batch).
        """
        from repro.runtime.engine import DatasetEngine

        engine = DatasetEngine(self, workers=workers, batch_size=batch_size, sink=sink)
        return engine.run(dataset)

    def _ser_applies(self, read: PipelineRead, er_eligible: bool) -> bool:
        """Whether stage 0 (SER) screens this read: signal-native reads
        only -- base-space reads carry no current to screen."""
        return self.signal_rejection_enabled() and er_eligible and isinstance(read, SignalRead)

    def process_read(self, read: PipelineRead) -> ReadOutcome:
        """Run one read through CP (+ ER if enabled).

        Accepts base-space :class:`SimulatedRead`\\ s with any backend,
        and signal-native :class:`SignalRead`\\ s with backends that
        decode provided signal (``accepts_signal_reads``) -- the same
        CP/ER control flow either way.
        """
        if isinstance(read, SignalRead) and not self.accepts_signal_reads():
            raise TypeError(
                f"{type(self.basecaller).__name__} cannot decode signal-native "
                "reads; use a signal-space backend ('viterbi') for raw-current "
                "inputs"
            )
        tracer = active_tracer()
        with tracer.read(read.read_id):
            return self._process_read(read, tracer)

    def _process_read(self, read: PipelineRead, tracer) -> ReadOutcome:
        cfg = self.config
        chunk_size = cfg.chunk_size
        n_chunks = self.basecaller.n_chunks(read, chunk_size)
        er_eligible = n_chunks >= cfg.min_chunks_for_er
        called: dict[int, BasecalledChunk] = {}
        # The read's progress so far; every exit reports all of it, so
        # an outcome carries the decision of each stage that ran.
        ser = qsr = cmr = mean_quality = None
        n_seeded = n_chain_invocations = 0

        def basecall(indices) -> list[BasecalledChunk]:
            """A stage's chunks, decoded in one engine call: the ones not
            called yet, in the order asked for."""
            indices = list(indices)
            todo = [i for i in indices if i not in called]
            if todo:
                with tracer.span("basecall"):
                    chunks = self.basecaller.basecall_chunks(read, todo, chunk_size)
                called.update(zip(todo, chunks, strict=True))
            return [called[i] for i in indices]

        def outcome(status: ReadStatus, mapping: MappingResult | None = None) -> ReadOutcome:
            return ReadOutcome(
                read_id=read.read_id,
                status=status,
                read_length=len(read),
                n_chunks_total=n_chunks,
                n_chunks_basecalled=len(called),
                n_bases_basecalled=sum(c.n_true_bases for c in called.values()),
                n_chunks_seeded=n_seeded,
                n_chain_invocations=n_chain_invocations,
                aligned=mapping is not None and mapping.alignment is not None,
                mean_quality=mean_quality,
                ser=ser,
                qsr=qsr,
                cmr=cmr,
                mapping=mapping,
            )

        # --- Stage 0: SER on the raw-current prefix, before any chunk
        # is basecalled (the paper's "ideally even before they go
        # through basecalling", Sec. 2.3).
        if self._ser_applies(read, er_eligible):
            with tracer.span("ser"):
                ser = self.ser_policy.decide(read)
            if ser.reject:
                return outcome(ReadStatus.REJECTED_SIGNAL)

        # --- Stage 1: QSR on N_qs evenly sampled chunks (Fig. 6 (1)-(3));
        # when it runs it is the first basecalling stage.
        if cfg.enable_qsr and er_eligible:
            with tracer.span("qsr_probe"):
                sampled = basecall(self._qsr.sample_indices(n_chunks))
                qsr = self._qsr.decide(sampled)
            if qsr.reject:
                return outcome(ReadStatus.REJECTED_QSR)

        # --- Stage 2: CMR on the first N_cm chunks merged (Fig. 6 (4)-(6)).
        # Provisional read length (the true length) for reverse-strand
        # coordinate flipping during prefix chaining; fixed to the exact
        # basecalled length before finalize().
        chunk_mapper = IncrementalChunkMapper(self.index, read_length=len(read))
        # Seeded chunks are always a prefix of the read: ``n_seeded`` of
        # them, ``seeded_bases`` long in called bases (indel errors shift
        # chunk boundaries, so offsets are cumulative called lengths).
        seeded_bases = 0
        if cfg.enable_cmr and er_eligible:
            with tracer.span("cmr_probe"):
                merged_indices = self._cmr.merged_chunk_indices(n_chunks)
                merged = np.concatenate([c.codes for c in basecall(merged_indices)])
                self._seed_run(chunk_mapper, merged, 0)
                n_seeded, seeded_bases = len(merged_indices), merged.size
                primary, _ = chunk_mapper.chain_prefix()
                score = primary.score if primary is not None else 0.0
                n_chain_invocations += 1
                cmr = self._cmr.decide(score, merged.size)
            if cmr.reject:
                return outcome(ReadStatus.REJECTED_CMR)

        # --- Stage 3: basecall + seed the remaining chunks (Fig. 6 (6b)-(7)).
        full_read = reassemble_chunks(read.read_id, basecall(range(n_chunks)))
        if n_seeded < n_chunks:
            self._seed_run(chunk_mapper, full_read.codes, seeded_bases)
            n_seeded = n_chunks
        mean_quality = full_read.mean_quality

        # Read-level quality control applies when QSR is off (QSR *is*
        # the quality filter when enabled).
        if not cfg.enable_qsr and mean_quality < cfg.theta_qs:
            return outcome(ReadStatus.FAILED_QC)

        chunk_mapper.set_read_length(len(full_read))
        mapping = chunk_mapper.finalize(read.read_id, full_read.codes, align=self.align)
        n_chain_invocations += 1
        with tracer.span("report"):
            return outcome(ReadStatus.MAPPED if mapping.mapped else ReadStatus.UNMAPPED, mapping)

    def _seed_run(
        self, chunk_mapper: IncrementalChunkMapper, prefix_codes: np.ndarray, seeded_bases: int
    ) -> None:
        """Seed the not-yet-seeded run of a called prefix in one mapper call.

        ``prefix_codes`` are the called bases of chunks ``0..j``, the
        first ``seeded_bases`` of which an earlier run already seeded.
        The run goes in with the ``k + w - 2`` bases before it
        prepended, so every w-window of k-mers lies inside one run and
        the union of run anchors equals the whole-read anchors (the
        mapper drops the duplicates from the overlap when it gathers).
        """
        # Context overlap that makes chunked seeding anchor-identical to
        # whole-read seeding: k-1 for boundary k-mers plus w-1 for
        # boundary windows.
        overlap = self.index.config.k + self.index.config.w - 2
        start = max(seeded_bases - overlap, 0)
        chunk_mapper.add_chunk(prefix_codes[start:], read_offset=start)

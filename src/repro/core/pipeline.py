"""The chunk-based pipeline (CP) with early rejection (ER) interleaved.

Functional model of the paper's Fig. 6 control flow:

0. screen a signal read's raw-current prefix (SER) -> maybe stop;
1. basecall the ``N_qs`` evenly-sampled chunks, check QSR -> maybe stop;
2. basecall the first ``N_cm`` chunks, merge, seed + chain, check CMR ->
   maybe stop;
3. basecall the remaining chunks and seed them as one run (the mapper
   prepends the context that makes run seeding find *exactly* the
   anchors whole-read seeding finds); final chaining + alignment produce
   the mapping result.

Called bases stay 2-bit code arrays from the basecaller to the mapper.
Both engines are fed in groups, not once per chunk. A work unit walks
every step stage-major, as the paper's chunks of many reads move
through basecalling, QSR, CMR and mapping together: SER screens its
signal reads, one basecaller call decodes the QSR sample of every read
SER kept, the next the CMR merge set of every read QSR kept, which CMR
then seeds and chains, and a third the remainder of every read still
going. Each read's progress is one record the stages fill in; each read
then finishes -- remainder seeding, final chaining, its outcome -- in
turn.

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
    from collections.abc import Sequence

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
class _ReadProgress:
    """One read's progress through its work unit, filled stage by stage:
    the chunks decoded so far, each verdict (``None`` where a stage did
    not screen the read), the mapper and how many of the first chunks it
    has seeded (``n_seeded``; the mapper keeps the bases that spans),
    and the ``status``, ``None`` while the read is still going."""

    read: PipelineRead
    n_chunks: int
    called: dict[int, BasecalledChunk] = field(default_factory=dict)
    ser: SERDecision | None = None
    qsr: QSRDecision | None = None
    cmr: CMRDecision | None = None
    mapper: IncrementalChunkMapper | None = None
    n_seeded: int = 0
    n_chain_invocations: int = 0
    mean_quality: float | None = None
    status: ReadStatus | None = None
    mapping: MappingResult | None = None

    def outcome(self) -> ReadOutcome:
        """All of it: an outcome carries the decision of each stage that ran."""
        return ReadOutcome(
            read_id=self.read.read_id,
            status=self.status,
            read_length=len(self.read),
            n_chunks_total=self.n_chunks,
            n_chunks_basecalled=len(self.called),
            n_bases_basecalled=sum(c.n_true_bases for c in self.called.values()),
            n_chunks_seeded=self.n_seeded,
            n_chain_invocations=self.n_chain_invocations,
            aligned=self.mapping is not None and self.mapping.alignment is not None,
            mean_quality=self.mean_quality,
            ser=self.ser,
            qsr=self.qsr,
            cmr=self.cmr,
            mapping=self.mapping,
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
        """Process a work unit's reads, returning their outcomes in order.

        The unit is the one scheduler: it walks every stage over the
        reads it still holds, each read's progress a
        :class:`_ReadProgress`. SER screens every ER-eligible signal
        read, before any decode; one engine call decodes the QSR sample
        of every eligible read SER kept; one the CMR merge set of every
        read QSR kept, which CMR then seeds, chains and decides; one the
        remainder of every read still going. These stages' spans go in
        whatever trace is open around the call (the ``unit`` trace
        :func:`repro.runtime.pool.run_unit` opens). Each read then
        finishes -- remainder seeding, QC, finalize, ``report`` -- in a
        ``read`` trace of its own, the root alone if it stopped early.

        Reads are independent -- a chunk's bytes depend only on its read
        and index, and the pipeline keeps no cross-read state -- so a
        read's outcome does not depend on its unit mates: units exist to
        amortise engine calls, scheduling and IPC.
        """
        cfg = self.config
        tracer = active_tracer()
        unit = []
        for read in reads:
            if isinstance(read, SignalRead) and not self.accepts_signal_reads():
                raise TypeError(
                    f"{type(self.basecaller).__name__} cannot decode signal-native "
                    "reads; use a signal-space backend ('viterbi') for raw-current "
                    "inputs"
                )
            unit.append(_ReadProgress(read, self.basecaller.n_chunks(read, cfg.chunk_size)))
        # The ER-eligible reads no stage has rejected yet.
        live = [p for p in unit if p.n_chunks >= cfg.min_chunks_for_er]
        # --- Stage 0: SER on the raw-current prefix, before any chunk is
        # basecalled (the paper's "ideally even before they go through
        # basecalling", Sec. 2.3); base-space reads carry no current.
        screened = [p for p in live if isinstance(p.read, SignalRead)]
        if screened and self.signal_rejection_enabled():
            with tracer.span("ser"):
                for p in screened:
                    p.ser = self.ser_policy.decide(p.read)
                    if p.ser.reject:
                        p.status = ReadStatus.REJECTED_SIGNAL
            live = [p for p in live if p.status is None]
        # --- Stage 1: QSR on N_qs evenly sampled chunks (Fig. 6 (1)-(3)).
        if cfg.enable_qsr and live:
            with tracer.span("qsr_probe"):
                samples = [self._qsr.sample_indices(p.n_chunks) for p in live]
                self._decode(list(zip(live, samples, strict=True)), tracer)
                for p, indices in zip(live, samples, strict=True):
                    p.qsr = self._qsr.decide([p.called[i] for i in indices])
                    if p.qsr.reject:
                        p.status = ReadStatus.REJECTED_QSR
            live = [p for p in live if p.status is None]
        # --- Stage 2: CMR on the first N_cm chunks merged (Fig. 6 (4)-(6)).
        if cfg.enable_cmr and live:
            with tracer.span("cmr_probe"):
                merge_sets = [self._cmr.merged_chunk_indices(p.n_chunks) for p in live]
                self._decode(list(zip(live, merge_sets, strict=True)), tracer)
                for p, indices in zip(live, merge_sets, strict=True):
                    merged = np.concatenate([p.called[i].codes for i in indices])
                    # The true length stands in for the called one, which
                    # is known only at the finish, to orient the prefix.
                    p.mapper = IncrementalChunkMapper(self.index, read_length=len(p.read))
                    p.mapper.seed_prefix(merged)
                    p.n_seeded = len(indices)
                    primary, _ = p.mapper.chain_prefix()
                    p.n_chain_invocations += 1
                    p.cmr = self._cmr.decide(primary.score if primary is not None else 0.0, merged.size)
                    if p.cmr.reject:
                        p.status = ReadStatus.REJECTED_CMR
        # --- Stage 3: basecall the remaining chunks (Fig. 6 (6b)).
        going = [p for p in unit if p.status is None]
        self._decode([(p, range(p.n_chunks)) for p in going], tracer)
        # --- Stage 4: seed the remainder as one run, then QC, final
        # chaining + alignment (Fig. 6 (7)), each read on its own.
        outcomes = []
        for p in unit:
            with tracer.read(p.read.read_id):
                if p.status is None:
                    full_read = reassemble_chunks(p.read.read_id, [p.called[i] for i in range(p.n_chunks)])
                    if p.n_seeded < p.n_chunks:
                        if p.mapper is None:  # CMR did not screen the read
                            p.mapper = IncrementalChunkMapper(self.index, read_length=len(p.read))
                        p.mapper.seed_prefix(full_read.codes)
                        p.n_seeded = p.n_chunks
                    p.mean_quality = full_read.mean_quality
                    # Read-level quality control applies when QSR is off
                    # (QSR *is* the quality filter when enabled).
                    if not cfg.enable_qsr and p.mean_quality < cfg.theta_qs:
                        p.status = ReadStatus.FAILED_QC
                    else:
                        p.mapper.set_read_length(len(full_read))
                        p.mapping = p.mapper.finalize(p.read.read_id, full_read.codes, align=self.align)
                        p.n_chain_invocations += 1
                        p.status = ReadStatus.MAPPED if p.mapping.mapped else ReadStatus.UNMAPPED
                if p.mapping is None:
                    outcomes.append(p.outcome())
                else:
                    with tracer.span("report"):
                        outcomes.append(p.outcome())
        return outcomes

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
            signal-space basecaller (``"viterbi"``): the first
            signal read :meth:`process_batch` meets raises ``TypeError``
            otherwise.
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

    def process_read(self, read: PipelineRead) -> ReadOutcome:
        """Run one read through CP (+ ER if enabled): a unit of one.

        Accepts base-space :class:`SimulatedRead`\\ s with any backend,
        and signal-native :class:`SignalRead`\\ s with backends that
        decode provided signal (``accepts_signal_reads``) -- the same
        CP/ER control flow either way.
        """
        return self.process_batch([read])[0]

    def _decode(self, requests: "list[tuple[_ReadProgress, Sequence[int]]]", tracer) -> None:
        """Decode, in one engine call under one ``basecall`` span, the
        chunks of each ``(record, indices)`` request that the read has
        not decoded yet, and add them to its ``called`` map."""
        pending = []
        for p, indices in requests:
            todo = [i for i in indices if i not in p.called]
            if todo:
                pending.append((p, todo))
        if not pending:
            return
        with tracer.span("basecall"):
            decoded = self.basecaller.basecall_many(
                [(p.read, todo) for p, todo in pending], self.config.chunk_size
            )
        for (p, todo), chunks in zip(pending, decoded, strict=True):
            p.called.update(zip(todo, chunks, strict=True))

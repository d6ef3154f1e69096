"""Workload statistics distilled from functional pipeline runs.

A :class:`PipelineWorkload` is the interface between the functional
layer (what work the pipeline actually performed on a dataset, from
:class:`~repro.core.genpip.GenPIPReport`) and the system performance
models (how long that work takes on each machine).

Two accounting modes matter:

* **batch** systems (CPU/GPU/PIM without CP) run QC *before* mapping,
  so QC-failed reads are never seeded -- their mapping work is
  ``mapped_bases_batch``;
* **CP** systems seed chunks as they are basecalled, before the read's
  QC outcome is known, so QC-failing reads do consume seeding/chaining
  (``seeded_bases_cp``) -- an inherent cost of overlap that ER-QSR then
  eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.genpip import GenPIPReport
from repro.core.pipeline import ReadStatus


@dataclass(frozen=True)
class PipelineWorkload:
    """Work performed on one dataset under one pipeline configuration."""

    n_reads: int
    #: Sequenced bases (raw-signal volume scales with this).
    total_bases: int
    #: Bases actually basecalled (ER truncates rejected reads).
    basecalled_bases: int
    #: Bases through QC / CQS computation (== basecalled bases).
    qc_bases: int
    #: Mapping bases for batch systems: QC-passed reads only.
    mapped_bases_batch: int
    #: Mapping bases for CP systems: every seeded chunk.
    seeded_bases_cp: int
    #: Bases of reads that reached base-level alignment.
    aligned_bases: int
    #: Per-read chunk counts actually basecalled (flow-shop input).
    chunks_per_read: tuple[int, ...]
    #: Per-read chunk counts seeded (flow-shop input).
    seeded_chunks_per_read: tuple[int, ...]
    #: Whether each read reached alignment (flow-shop input).
    aligned_per_read: tuple[bool, ...]
    chunk_size: int
    #: Reads stopped by signal-domain early rejection (SER) -- before
    #: any basecalling at all.
    ser_rejected_reads: int = 0
    #: Bases of SER-rejected reads: work the basecaller (and everything
    #: after it) never saw. ``basecalled_bases`` already excludes them;
    #: this field makes the credit auditable on its own.
    ser_skipped_bases: int = 0
    #: Base-grid positions pushed through the signal-domain screen (the
    #: prefix of every screened read, rejected or not) -- what the
    #: filter hardware itself is charged for.
    ser_screened_bases: int = 0
    #: Kernel kind the basecalling backend reported ("viterbi-state", or
    #: "" when the backend has no kernel accounting -- the per-base
    #: formula is used then).
    basecall_kind: str = ""
    #: Native kernel ops the basecalled bases cost on this backend.
    basecall_ops: float = 0.0
    #: Native kernel ops one chunk costs (flow-shop stage time).
    basecall_ops_per_chunk: float = 0.0
    #: Chain-DP predecessor candidates the mapping kernels evaluated
    #: (0.0 when the run carried no mapping-ops snapshot -- the per-base
    #: mapping formula is used then).
    chain_candidate_ops: float = 0.0
    #: Affine-gap DP cells the alignment kernels filled.
    align_cell_ops: float = 0.0

    @classmethod
    def from_report(
        cls, report: GenPIPReport, basecaller=None, mapping_ops=None
    ) -> "PipelineWorkload":
        """Distil a functional report into workload statistics.

        When ``basecaller`` exposes ``kernel_workload(n_bases)`` (the
        kernel-plane backends do), the workload also carries the
        backend's *native* op counts, and the system models charge
        basecalling by ops instead of the generic per-base price.

        ``mapping_ops`` is an optional ``{kind: ops}`` snapshot delta of
        the mapping-ops ledger (:mod:`repro.kernels.mapping_ops`) taken
        around the run that produced ``report``; when present, the
        mapping side is likewise charged by real chain candidates and
        alignment cells instead of the generic per-base price.
        """
        chunk_size = report.config.chunk_size
        mapped_batch = 0
        aligned = 0
        ser_rejected = 0
        ser_skipped = 0
        ser_screened = 0
        # "Alignment executed" also holds for reads mapped without the
        # base-level alignment pass (align=False fast runs): a mapped
        # read would have been aligned on real hardware.
        aligned_flags = tuple(
            o.aligned or o.status is ReadStatus.MAPPED for o in report.outcomes
        )
        for outcome, was_aligned in zip(report.outcomes, aligned_flags, strict=True):
            if outcome.ser is not None:
                ser_screened += outcome.ser.prefix_bases
            if outcome.status is ReadStatus.REJECTED_SIGNAL:
                # Stopped in signal space: zero basecalling, QC, and
                # mapping work anywhere downstream.
                ser_rejected += 1
                ser_skipped += outcome.read_length
                continue
            if outcome.status not in (ReadStatus.REJECTED_QSR, ReadStatus.FAILED_QC):
                # Batch systems map every QC-passed read; ER-CMR-rejected
                # reads map only their merged prefix.
                if outcome.status is ReadStatus.REJECTED_CMR:
                    mapped_batch += outcome.n_chunks_seeded * chunk_size
                else:
                    mapped_batch += outcome.read_length
            if was_aligned:
                aligned += outcome.read_length
        basecall_kind = ""
        basecall_ops = 0.0
        basecall_ops_per_chunk = 0.0
        kernel_workload = getattr(basecaller, "kernel_workload", None)
        if kernel_workload is not None:
            total = kernel_workload(report.bases_basecalled)
            per_chunk = kernel_workload(chunk_size)
            basecall_kind = total.kind
            basecall_ops = float(total.ops)
            basecall_ops_per_chunk = float(per_chunk.ops)
        chain_ops = 0.0
        align_ops = 0.0
        if mapping_ops:
            chain_ops = float(mapping_ops.get("chain-candidate", 0))
            align_ops = float(mapping_ops.get("align-cell", 0))
        return cls(
            n_reads=report.n_reads,
            total_bases=report.total_bases,
            basecalled_bases=report.bases_basecalled,
            qc_bases=report.bases_basecalled,
            mapped_bases_batch=mapped_batch,
            seeded_bases_cp=sum(
                min(o.n_chunks_seeded * chunk_size, o.read_length) for o in report.outcomes
            ),
            aligned_bases=aligned,
            chunks_per_read=tuple(o.n_chunks_basecalled for o in report.outcomes),
            seeded_chunks_per_read=tuple(o.n_chunks_seeded for o in report.outcomes),
            aligned_per_read=aligned_flags,
            chunk_size=chunk_size,
            ser_rejected_reads=ser_rejected,
            ser_skipped_bases=ser_skipped,
            ser_screened_bases=ser_screened,
            basecall_kind=basecall_kind,
            basecall_ops=basecall_ops,
            basecall_ops_per_chunk=basecall_ops_per_chunk,
            chain_candidate_ops=chain_ops,
            align_cell_ops=align_ops,
        )

    def scaled(self, factor: float) -> "PipelineWorkload":
        """Scale aggregate volumes (per-read traces are left as sampled).

        Used to extrapolate a laptop-scale sample to the full dataset
        size: times/energies scale linearly in the aggregates while the
        flow-shop traces keep their measured shape.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        return PipelineWorkload(
            n_reads=int(self.n_reads * factor),
            total_bases=int(self.total_bases * factor),
            basecalled_bases=int(self.basecalled_bases * factor),
            qc_bases=int(self.qc_bases * factor),
            mapped_bases_batch=int(self.mapped_bases_batch * factor),
            seeded_bases_cp=int(self.seeded_bases_cp * factor),
            aligned_bases=int(self.aligned_bases * factor),
            chunks_per_read=self.chunks_per_read,
            seeded_chunks_per_read=self.seeded_chunks_per_read,
            aligned_per_read=self.aligned_per_read,
            chunk_size=self.chunk_size,
            ser_rejected_reads=int(self.ser_rejected_reads * factor),
            ser_skipped_bases=int(self.ser_skipped_bases * factor),
            ser_screened_bases=int(self.ser_screened_bases * factor),
            basecall_kind=self.basecall_kind,
            basecall_ops=self.basecall_ops * factor,
            basecall_ops_per_chunk=self.basecall_ops_per_chunk,
            chain_candidate_ops=self.chain_candidate_ops * factor,
            align_cell_ops=self.align_cell_ops * factor,
        )

"""A dataset run's report, and the perf benchmark's ``GenPIP.build()`` chain.

:meth:`GenPIPPipeline.run <repro.core.pipeline.GenPIPPipeline.run>`
processes whole datasets into a :class:`GenPIPReport`. It carries the
per-read outcomes plus the aggregate counters that the performance
model (:mod:`repro.perf`) and the experiments consume: how many chunks
were actually basecalled / seeded, how many reads each ER stage
rejected, and -- with ground truth from the simulator -- the rejection
and false-negative ratios of Figs. 12/13.

Aggregate counters are accumulated incrementally in
:class:`ReportCounters` (one pass at construction, exact integer sums),
so the shard-level counters produced by the parallel runtime
(:mod:`repro.runtime`) combine via :meth:`ReportCounters.combine`
without re-walking every outcome.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.core.backends import Basecaller
from repro.core.config import GenPIPConfig
from repro.core.pipeline import GenPIPPipeline, ReadOutcome, ReadStatus
from repro.mapping.index import MinimizerIndex


@dataclass
class ReportCounters:
    """Exact integer aggregates over a set of read outcomes.

    All fields are integer sums, so combining shard counters is
    associative and lossless: a merged report's counters are identical
    to the counters a sequential run would have produced.
    """

    n_reads: int = 0
    total_chunks: int = 0
    chunks_basecalled: int = 0
    bases_basecalled: int = 0
    total_bases: int = 0
    chunks_seeded: int = 0
    reads_aligned: int = 0
    status_counts: dict[ReadStatus, int] = field(default_factory=dict)

    def add(self, outcome: ReadOutcome) -> None:
        """Fold one outcome into the running totals."""
        self.n_reads += 1
        self.total_chunks += outcome.n_chunks_total
        self.chunks_basecalled += outcome.n_chunks_basecalled
        self.bases_basecalled += outcome.n_bases_basecalled
        self.total_bases += outcome.read_length
        self.chunks_seeded += outcome.n_chunks_seeded
        self.reads_aligned += int(outcome.aligned)
        self.status_counts[outcome.status] = self.status_counts.get(outcome.status, 0) + 1

    def combine(self, other: "ReportCounters") -> "ReportCounters":
        """Elementwise sum with another counter set (shard merge)."""
        status_counts = dict(self.status_counts)
        for status, count in other.status_counts.items():
            status_counts[status] = status_counts.get(status, 0) + count
        return ReportCounters(
            n_reads=self.n_reads + other.n_reads,
            total_chunks=self.total_chunks + other.total_chunks,
            chunks_basecalled=self.chunks_basecalled + other.chunks_basecalled,
            bases_basecalled=self.bases_basecalled + other.bases_basecalled,
            total_bases=self.total_bases + other.total_bases,
            chunks_seeded=self.chunks_seeded + other.chunks_seeded,
            reads_aligned=self.reads_aligned + other.reads_aligned,
            status_counts=status_counts,
        )

    @classmethod
    def from_outcomes(cls, outcomes: Iterable[ReadOutcome]) -> "ReportCounters":
        counters = cls()
        for outcome in outcomes:
            counters.add(outcome)
        return counters


@dataclass(frozen=True)
class GenPIPReport:
    """Aggregate results of processing one dataset.

    Attributes
    ----------
    outcomes:
        Per-read terminal records, in dataset order.
    config:
        The pipeline configuration that produced them.
    counters:
        Incremental integer aggregates; computed from ``outcomes`` when
        not supplied (shard merges supply pre-summed counters).
    """

    outcomes: list[ReadOutcome]
    config: GenPIPConfig
    counters: ReportCounters | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.counters is None:
            object.__setattr__(self, "counters", ReportCounters.from_outcomes(self.outcomes))

    def count(self, status: ReadStatus) -> int:
        return self.counters.status_counts.get(status, 0)

    @property
    def n_reads(self) -> int:
        return self.counters.n_reads

    @property
    def qsr_rejection_ratio(self) -> float:
        """Reads rejected by QSR over all reads (Fig. 12a metric)."""
        return self.count(ReadStatus.REJECTED_QSR) / max(self.n_reads, 1)

    @property
    def cmr_rejection_ratio(self) -> float:
        """Reads rejected by CMR over all reads (Fig. 13a metric)."""
        return self.count(ReadStatus.REJECTED_CMR) / max(self.n_reads, 1)

    @property
    def ser_rejection_ratio(self) -> float:
        """Reads rejected in signal space, before any basecalling."""
        return self.count(ReadStatus.REJECTED_SIGNAL) / max(self.n_reads, 1)

    @property
    def mapped_ratio(self) -> float:
        return self.count(ReadStatus.MAPPED) / max(self.n_reads, 1)

    @property
    def total_chunks(self) -> int:
        return self.counters.total_chunks

    @property
    def chunks_basecalled(self) -> int:
        return self.counters.chunks_basecalled

    @property
    def bases_basecalled(self) -> int:
        return self.counters.bases_basecalled

    @property
    def total_bases(self) -> int:
        return self.counters.total_bases

    @property
    def chunks_seeded(self) -> int:
        return self.counters.chunks_seeded

    @property
    def reads_aligned(self) -> int:
        return self.counters.reads_aligned

    @property
    def basecall_savings(self) -> float:
        """Fraction of chunk-basecalling work ER eliminated."""
        total = self.total_chunks
        return 1.0 - self.chunks_basecalled / total if total else 0.0

    def mean_identity(self) -> float:
        """Mean alignment identity over mapped reads; a streaming sink's
        report (counters only) raises ``ValueError`` rather than read 0.0."""
        if self.n_reads and not self.outcomes:
            raise ValueError(
                "this report carries counters only (its outcomes went to a "
                "streaming sink); rebuild it with replay_report() first"
            )
        identities = [
            o.mapping.identity
            for o in self.outcomes
            if o.mapping is not None and o.mapping.mapped
        ]
        return float(np.mean(identities)) if identities else 0.0


class GenPIP:
    """Not the system (that is :class:`GenPIPPipeline`): only the call
    chain the perf benchmark's workloads make, ``GenPIP.build().index(ix)
    .config(cfg).basecaller(engine).align(a).build().pipeline``, which is
    ``GenPIPPipeline(ix, cfg, engine, align=a)``. It goes once they
    construct the pipeline directly."""

    @staticmethod
    def build() -> "_Chain":
        return _Chain()


class _Chain:
    """What ``GenPIP.build()`` returns: the recorded constructor arguments."""

    def __init__(self) -> None:
        self._args: dict = {}

    def index(self, index: MinimizerIndex) -> "_Chain":
        self._args["index"] = index
        return self

    def config(self, config: GenPIPConfig) -> "_Chain":
        self._args["config"] = config
        return self

    def basecaller(self, basecaller: Basecaller) -> "_Chain":
        self._args["basecaller"] = basecaller
        return self

    def align(self, align: bool) -> "_Chain":
        self._args["align"] = align
        return self

    def build(self) -> SimpleNamespace:
        return SimpleNamespace(pipeline=GenPIPPipeline(**self._args))

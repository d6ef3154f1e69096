"""Report sinks: where a dataset-scale run's outcomes go.

The pre-streaming runtime held every :class:`ReadOutcome` in the parent
until the end of the run -- at dataset scale that is exactly the
useless-data retention GenPIP's movement analysis warns about. A
:class:`ReportSink` consumes the *ordered prefix* of outcomes as the
merge layer (:meth:`~repro.runtime.merge.ShardCollector.drain`) releases
it, so the parent's peak outcome retention is O(batch):

* :class:`MemorySink` -- accumulates outcomes and finishes into a full
  :class:`~repro.core.genpip.GenPIPReport` (the classic behaviour);
* :class:`JSONLSink` -- appends one deterministic JSON line per outcome
  to a file as the prefix grows, keeping nothing in memory; the
  finished report carries counters only, and :func:`replay_report`
  reconstructs the *exact* in-memory report from the file
  (``tests/test_runtime_streaming.py`` asserts equality);
* :class:`NullSink` -- counts and discards outcomes, so throughput
  lanes can measure the data plane itself with zero serialisation cost.

Outcome serialisation is lossless: every field of
:class:`~repro.core.pipeline.ReadOutcome` -- including the nested
QSR/CMR decisions, mapping result, and alignment CIGAR -- round-trips
through :func:`outcome_to_record` / :func:`outcome_from_record`
(finite floats round-trip exactly through JSON's repr-based encoding).
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from dataclasses import asdict
from pathlib import Path
from typing import IO, Protocol, runtime_checkable

from repro.core.config import GenPIPConfig
from repro.core.early_rejection import CMRDecision, QSRDecision
from repro.core.genpip import GenPIPReport, ReportCounters
from repro.core.pipeline import ReadOutcome, ReadStatus
from repro.mapping.alignment import AlignmentResult
from repro.mapping.mapper import MappingResult
from repro.signal.rejection import SERDecision


@runtime_checkable
class ReportSink(Protocol):
    """Structural protocol for outcome consumers.

    The engine calls ``begin`` once per run, ``emit`` with each newly
    completed ordered prefix (possibly empty between calls), then
    exactly one of ``finish`` (success; the collector's exact merged
    counters) or ``abort`` (failure; release resources, keep partial
    output for post-mortems).
    """

    def begin(self, config: GenPIPConfig) -> None: ...  # pragma: no cover - protocol

    def emit(self, outcomes: Sequence[ReadOutcome]) -> None: ...  # pragma: no cover - protocol

    def finish(self, counters: ReportCounters) -> GenPIPReport: ...  # pragma: no cover - protocol

    def abort(self) -> None: ...  # pragma: no cover - protocol


class MemorySink:
    """Accumulates outcomes in memory into a full report (the default)."""

    def __init__(self) -> None:
        self._config: GenPIPConfig | None = None
        self._outcomes: list[ReadOutcome] = []

    def begin(self, config: GenPIPConfig) -> None:
        self._config = config
        self._outcomes = []

    def emit(self, outcomes: Sequence[ReadOutcome]) -> None:
        self._outcomes.extend(outcomes)

    def finish(self, counters: ReportCounters) -> GenPIPReport:
        if self._config is None:
            raise RuntimeError("sink finished before begin()")
        return GenPIPReport(outcomes=self._outcomes, config=self._config, counters=counters)

    def abort(self) -> None:
        self._outcomes = []


class NullSink:
    """Counts and discards outcomes: the data plane without serialisation.

    The throughput-measurement sink (``--sink null``): a lane that pairs
    it with any source and transport measures read ingest, payload
    movement, kernel execution, and the ordered merge with zero
    serialisation or I/O noise. ``n_emitted`` / ``n_batches`` expose
    what flowed through; the finished report carries the collector's
    exact counters and no outcomes.
    """

    def __init__(self) -> None:
        self._config: GenPIPConfig | None = None
        self.n_emitted = 0
        self.n_batches = 0

    def begin(self, config: GenPIPConfig) -> None:
        self._config = config
        self.n_emitted = 0
        self.n_batches = 0

    def emit(self, outcomes: Sequence[ReadOutcome]) -> None:
        if outcomes:
            self.n_batches += 1
            self.n_emitted += len(outcomes)

    def finish(self, counters: ReportCounters) -> GenPIPReport:
        if self._config is None:
            raise RuntimeError("sink finished before begin()")
        return GenPIPReport(outcomes=[], config=self._config, counters=counters)

    def abort(self) -> None:
        return None


class JSONLSink:
    """Streams outcomes to a JSONL file; parent retention is O(batch).

    One deterministic JSON line per outcome (sorted keys, compact
    separators) in dataset order. The finished report has an empty
    ``outcomes`` list but exact counters; :func:`replay_report` rebuilds
    the full report from the file when the per-read records are needed.
    On ``abort`` the partially written file is closed and left on disk.
    """

    def __init__(self, path):
        self._path = Path(path)
        self._handle: IO[str] | None = None
        self._config: GenPIPConfig | None = None

    @property
    def path(self) -> Path:
        return self._path

    def begin(self, config: GenPIPConfig) -> None:
        self._close()
        self._config = config
        # The handle outlives this call by design (incremental sink,
        # closed in finalize/_close), so no `with` block applies.
        self._handle = open(self._path, "w", encoding="utf-8")  # noqa: SIM115

    def emit(self, outcomes: Sequence[ReadOutcome]) -> None:
        if self._handle is None:
            raise RuntimeError("sink emitted to before begin()")
        for outcome in outcomes:
            self._handle.write(record_to_json(outcome_to_record(outcome)))
            self._handle.write("\n")

    def finish(self, counters: ReportCounters) -> GenPIPReport:
        if self._config is None:
            raise RuntimeError("sink finished before begin()")
        self._close()
        return GenPIPReport(outcomes=[], config=self._config, counters=counters)

    def abort(self) -> None:
        self._close()

    def _close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# --- lossless outcome (de)serialisation ------------------------------------


def outcome_to_record(outcome: ReadOutcome) -> dict:
    """A JSON-safe dict capturing *every* field of an outcome.

    The ``ser`` key is emitted only when a signal-domain rejection
    decision exists: SER-less runs (every run before the stage existed,
    and every run with it disabled) therefore serialize byte-identically
    to earlier releases, and old outcome files replay unchanged.
    """
    qsr = outcome.qsr
    cmr = outcome.cmr
    mapping = outcome.mapping
    record = {
        "read_id": outcome.read_id,
        "status": outcome.status.value,
        "read_length": outcome.read_length,
        "n_chunks_total": outcome.n_chunks_total,
        "n_chunks_basecalled": outcome.n_chunks_basecalled,
        "n_bases_basecalled": outcome.n_bases_basecalled,
        "n_chunks_seeded": outcome.n_chunks_seeded,
        "n_chain_invocations": outcome.n_chain_invocations,
        "aligned": outcome.aligned,
        "mean_quality": outcome.mean_quality,
        "qsr": None
        if qsr is None
        else {
            "reject": qsr.reject,
            "average_quality": qsr.average_quality,
            "sampled_indices": list(qsr.sampled_indices),
        },
        "cmr": None
        if cmr is None
        else {
            "reject": cmr.reject,
            "chain_score": cmr.chain_score,
            "merged_bases": cmr.merged_bases,
            "threshold": cmr.threshold,
        },
        "mapping": None
        if mapping is None
        else {
            "read_id": mapping.read_id,
            "mapped": mapping.mapped,
            "ref_start": mapping.ref_start,
            "ref_end": mapping.ref_end,
            "strand": mapping.strand,
            "chain_score": mapping.chain_score,
            "mapq": mapping.mapq,
            "alignment": None
            if mapping.alignment is None
            else {
                "score": mapping.alignment.score,
                "cigar": [[op, n] for op, n in mapping.alignment.cigar],
            },
        },
    }
    if outcome.ser is not None:
        # SERDecision is a flat dataclass of JSON-safe scalars, so its
        # wire shape derives from the type -- one source of truth with
        # the SERDecision(**ser) reconstruction below.
        record["ser"] = asdict(outcome.ser)
    return record


def outcome_from_record(record: dict) -> ReadOutcome:
    """Inverse of :func:`outcome_to_record` (exact reconstruction)."""
    ser = record.get("ser")
    qsr = record["qsr"]
    cmr = record["cmr"]
    mapping = record["mapping"]
    alignment = None
    if mapping is not None and mapping["alignment"] is not None:
        alignment = AlignmentResult(
            score=mapping["alignment"]["score"],
            cigar=tuple((op, n) for op, n in mapping["alignment"]["cigar"]),
        )
    return ReadOutcome(
        read_id=record["read_id"],
        status=ReadStatus(record["status"]),
        read_length=record["read_length"],
        n_chunks_total=record["n_chunks_total"],
        n_chunks_basecalled=record["n_chunks_basecalled"],
        n_bases_basecalled=record["n_bases_basecalled"],
        n_chunks_seeded=record["n_chunks_seeded"],
        n_chain_invocations=record["n_chain_invocations"],
        aligned=record["aligned"],
        mean_quality=record["mean_quality"],
        ser=None if ser is None else SERDecision(**ser),
        qsr=None
        if qsr is None
        else QSRDecision(
            reject=qsr["reject"],
            average_quality=qsr["average_quality"],
            sampled_indices=tuple(qsr["sampled_indices"]),
        ),
        cmr=None
        if cmr is None
        else CMRDecision(
            reject=cmr["reject"],
            chain_score=cmr["chain_score"],
            merged_bases=cmr["merged_bases"],
            threshold=cmr["threshold"],
        ),
        mapping=None
        if mapping is None
        else MappingResult(
            read_id=mapping["read_id"],
            mapped=mapping["mapped"],
            ref_start=mapping["ref_start"],
            ref_end=mapping["ref_end"],
            strand=mapping["strand"],
            chain_score=mapping["chain_score"],
            alignment=alignment,
            mapq=mapping["mapq"],
        ),
    )


def record_to_json(record: dict) -> str:
    """One deterministic JSON line for an outcome record (no trailing
    newline): the JSONL sink's line format, and the served ``drive
    --outcomes`` file's, which is diffed against it byte for byte."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def iter_outcomes_jsonl(path) -> Iterator[ReadOutcome]:
    """Stream outcomes back from a JSONL sink file, one at a time."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield outcome_from_record(json.loads(line))


def replay_report(path, config: GenPIPConfig) -> GenPIPReport:
    """Reconstruct the full in-memory report from a JSONL sink file.

    The result is *equal* (dataclass equality, outcome for outcome) to
    the :class:`GenPIPReport` a :class:`MemorySink` run would have
    returned -- serialisation is lossless and order is preserved.
    """
    return GenPIPReport(outcomes=list(iter_outcomes_jsonl(path)), config=config)

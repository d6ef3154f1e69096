"""Throughput of the streaming runtime, with a machine-readable trail.

Two consumers:

* **pytest-benchmark** (``pytest benchmarks/bench_runtime.py``): the
  classic reads/sec benches at 1/2/4 workers plus the printed
  worker-scaling summary.
* **standalone grid** (``python benchmarks/bench_runtime.py --out
  BENCH_runtime.json``): times the full worker-count x batching-mode
  grid through :class:`~repro.runtime.engine.DatasetEngine`
  and emits ``BENCH_runtime.json`` -- one record per configuration with
  ``reads_per_sec`` -- so the repo's perf trajectory is tracked as a CI
  artifact from this PR onward. The grid needs no pytest plugins, just
  the package itself. Besides the surrogate read-based grid
  (``"source": "reads"``), the document carries a small **signal-native
  lane** (``"source": "signals"``): a raw-signal container is written
  once, then decoded end-to-end by the Viterbi backend serially and
  pooled, tracking the throughput of the stored-current path; a
  **signal-ER lane** (``"signal_er": true``) that re-runs the same
  container behind a signal-domain rejection policy, emitting the
  observed reject rate next to the wall time; and three **kernel-plane
  lanes** (``"lane"`` of ``"sdtw-kernel"``, ``"viterbi-events"``,
  ``"dnn-batch"``) timing the vectorised kernel layer: wavefront vs
  scalar sDTW behind SER, the event-space Viterbi decode, and per-chunk
  vs batched DNN inference. Every signal lane asserts the serial ==
  pooled report identity; the sdtw-kernel lane additionally asserts the
  two kernels decide identically (their costs are bit-equal). A
  **sessions lane** (``"lane": "sessions"``) drives the serving layer
  (:mod:`repro.serving`): N concurrent loopback sessions stream the
  grid dataset read-by-read through the warm pool, emitting verdict
  throughput, sessions/sec, and p50/p95/p99 enqueue->verdict latency,
  with the merged verdict stream asserted byte-identical to the serial
  batch records. A **columnar lane** (``"lane": "columnar"``) runs the
  signal container pooled, recording the worker-side
  ``bytes_copied_per_read`` (the :mod:`repro.perf.copies` ledger) next
  to its throughput -- ``--gate-copies`` asserts it is zero (workers
  take views of the shared segment), which is what CI gates. A
  **null-sink lane** (``"lane": "null-sink"``) re-runs the reads grid
  dataset into the counting :class:`~repro.runtime.sink.NullSink`, so
  the data plane is timed with zero serialisation noise. A
  **trace-overhead lane** (``"lane": "trace-overhead"``) times the
  same serial workload untraced and with per-read span tracing
  (:mod:`repro.obs`) enabled, asserting identical reports --
  ``--gate-trace`` holds the traced run within 5% of the untraced wall
  time, which is what CI gates. A **mapping
  lane** (``"lane": "mapping"``) maps the grid dataset with base-level
  alignment ON through the vectorised mapping plane (batched seeding,
  blocked chain DP, wavefront Gotoh) and through the pinned scalar
  references, asserting identical outcomes and recording each run's
  mapping-ops ledger delta next to its throughput. Grid records
  also carry per-batch completion-latency percentiles
  (``batch_p50_ms``/.../``batch_p99_ms``) measured by a sink wrapper --
  measurement columns only, never lane identity.

The document's expected composition is a function of the module's lane
constants, not a hardcoded count: :func:`expected_lane_counts` is the
registry, and ``--verify BENCH_runtime.json`` checks a document against
it (that is what CI's sanity step runs, so adding a lane here is a
one-place change).

On a multi-core box the 4-worker run should clear >= 1.5x serial
throughput: reads are independent, payloads travel through shared
memory, and the only serial work left is planning and the ordered
merge.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

try:
    import pytest
except ImportError:  # pragma: no cover - standalone grid mode
    pytest = None

from repro.core import GenPIP
from repro.perf import LatencyHistogram
from repro.runtime import DatasetEngine, MemorySink, NullSink

WORKER_COUNTS = (1, 2, 4)
BATCHING_MODES = ("fixed", "length-aware")
SIGNAL_WORKER_COUNTS = (1, 2)
#: Pool size of the columnar lane (one pooled size; the figure under
#: test is the copy ledger, not scaling).
COLUMNAR_WORKERS = 2
#: The serving sessions lane: concurrent-session counts x pool workers.
SESSION_COUNTS = (1, 3)
SESSION_WORKERS = (2,)
#: Pinned work-unit size for the dnn-batch lane: the unit *is* the DNN
#: batch (prime_chunk_batch stacks one unit's chunks), and pinning it
#: keeps work-unit composition -- hence batched arithmetic -- identical
#: across worker counts, preserving serial == pooled byte-identity.
DNN_LANE_BATCH_SIZE = 4
#: GRU width for the dnn-batch lane (default 96 is needlessly slow for
#: a throughput lane that only exercises kernel grouping).
DNN_LANE_HIDDEN = 48

if pytest is not None:
    pytestmark = pytest.mark.bench


def _run(system, dataset, workers, batching="fixed"):
    engine = DatasetEngine(system.pipeline, workers=workers, batching=batching)
    report = engine.run(dataset)
    return report, engine.last_stats


class _TimingSink(MemorySink):
    """MemorySink that clocks batch completions into a latency histogram.

    Each ``emit`` is one finished work unit arriving at the parent; the
    interval since the previous arrival (or since ``begin``) is that
    batch's completion latency. The histogram feeds the grid records'
    ``batch_p50_ms``/``batch_p95_ms``/``batch_p99_ms`` columns --
    measurement only, never part of a lane's identity.
    """

    def __init__(self) -> None:
        super().__init__()
        self.latency = LatencyHistogram()
        self._last: float | None = None

    def begin(self, config) -> None:
        super().begin(config)
        self.latency = LatencyHistogram()
        self._last = time.perf_counter()

    def emit(self, outcomes) -> None:
        super().emit(outcomes)
        now = time.perf_counter()
        if self._last is not None:
            self.latency.record(now - self._last)
        self._last = now


def collect_grid(system, dataset, repeats: int = 1) -> list[dict]:
    """Time every worker x batching configuration.

    Each record carries the best (max throughput) of ``repeats`` passes,
    including that pass's per-batch completion-latency percentiles, and
    the transport the run observed (``"none"`` serial, ``"shm"`` pooled).
    """
    records = []
    for workers in WORKER_COUNTS:
        for batching in BATCHING_MODES:
            best = None
            for _ in range(repeats):
                sink = _TimingSink()
                engine = DatasetEngine(
                    system.pipeline, workers=workers, batching=batching, sink=sink
                )
                started = time.perf_counter()
                report = engine.run(dataset)
                elapsed = time.perf_counter() - started
                stats = engine.last_stats
                assert report.n_reads == len(dataset)
                rps = len(dataset) / elapsed if elapsed > 0 else 0.0
                if best is None or rps > best["reads_per_sec"]:
                    batch_latency = {
                        f"batch_{key}": value
                        for key, value in sink.latency.percentiles_ms().items()
                    }
                    best = {
                        "source": "reads",
                        "workers": workers,
                        "batching": batching,
                        "transport": stats.transport,
                        "mode": stats.mode,
                        "batch_size": stats.batch_size,
                        "n_shards": stats.n_shards,
                        "reads": stats.n_reads,
                        "elapsed_s": round(elapsed, 4),
                        "reads_per_sec": round(rps, 2),
                        **batch_latency,
                    }
            records.append(best)
    return records


def collect_sessions_lane(system, dataset, repeats: int = 1) -> list[dict]:
    """Drive the serving layer: concurrent sessions over the warm pool.

    Each configuration stands up a fresh dispatcher + loopback server,
    partitions the dataset round-robin across ``sessions`` concurrent
    clients, and streams every read individually -- the adaptive-
    sampling shape, where tail latency matters as much as throughput.
    The merged verdict stream must reproduce the serial batch records
    exactly (the serving layer's standing equivalence invariant), and
    every configuration must publish the shared index exactly once.
    """
    from repro.runtime.sink import outcome_to_record
    from repro.serving import merged_outcomes, serve_and_drive

    reads = list(dataset.reads)
    serial = [outcome_to_record(o) for o in system.pipeline.process_batch(reads)]
    records = []
    for workers in SESSION_WORKERS:
        for sessions in SESSION_COUNTS:
            best = None
            for _ in range(repeats):
                started = time.perf_counter()
                results, stats = serve_and_drive(
                    system.pipeline, reads, sessions=sessions, workers=workers
                )
                elapsed = time.perf_counter() - started
                assert merged_outcomes(results) == serial, (
                    f"sessions={sessions}: served verdicts diverged from serial batch"
                )
                assert stats.index_publications == 1, stats.index_publications
                assert stats.verdicts == len(reads)
                rps = len(reads) / elapsed if elapsed > 0 else 0.0
                if best is None or rps > best["reads_per_sec"]:
                    best = {
                        "source": "serving",
                        "lane": "sessions",
                        "sessions": sessions,
                        "workers": workers,
                        "transport": stats.transport,
                        "mode": stats.mode,
                        "reads": stats.verdicts,
                        "elapsed_s": round(elapsed, 4),
                        "reads_per_sec": round(rps, 2),
                        "sessions_per_sec": round(stats.sessions_per_sec, 3),
                        **stats.latency.percentiles_ms(),
                    }
            records.append(best)
    return records


def collect_columnar_lane(signal_system, store_path, repeats: int = 1) -> list[dict]:
    """Time the pooled signal run next to its exact copy ledger.

    Workers take read-only views of the shared segment under a segment
    lease, so the worker-side ``bytes_copied_per_read`` from the
    :mod:`repro.perf.copies` ledger must be zero. On noisy 1-CPU runners
    the wall clock is not trustworthy, but the byte ledger is exact:
    :func:`gate_copy_bytes` (CI's ``--gate-copies`` step) asserts it.
    The run must reproduce the serial report byte-for-byte.
    """
    from repro.runtime import SignalStoreSource

    serial_engine = DatasetEngine(signal_system.pipeline, workers=1)
    serial = serial_engine.run(SignalStoreSource(store_path))
    best = None
    for _ in range(repeats):
        started = time.perf_counter()
        engine = DatasetEngine(signal_system.pipeline, workers=COLUMNAR_WORKERS)
        report = engine.run(SignalStoreSource(store_path))
        elapsed = time.perf_counter() - started
        stats = engine.last_stats
        assert report.n_reads == stats.n_reads > 0
        assert (
            report.outcomes == serial.outcomes
            and report.counters == serial.counters
        ), "columnar: pooled report diverged from serial"
        rps = report.n_reads / elapsed if elapsed > 0 else 0.0
        if best is None or rps > best["reads_per_sec"]:
            best = {
                "source": "signals",
                "lane": "columnar",
                "workers": COLUMNAR_WORKERS,
                "batching": stats.batching,
                "transport": stats.transport,
                "mode": stats.mode,
                "batch_size": stats.batch_size,
                "n_shards": stats.n_shards,
                "reads": stats.n_reads,
                "elapsed_s": round(elapsed, 4),
                "reads_per_sec": round(rps, 2),
                "bytes_copied": stats.bytes_copied,
                "bytes_published": stats.bytes_published,
                "bytes_copied_per_read": round(stats.bytes_copied_per_read, 2),
            }
    return [best]


def collect_null_sink_lane(system, dataset, repeats: int = 1) -> list[dict]:
    """Time the data plane with outcomes counted and discarded.

    The reads-grid dataset re-run per worker count into
    :class:`~repro.runtime.sink.NullSink`: ingest, transport, kernels,
    and the ordered merge with zero serialisation noise. Counters must
    match the serial run exactly (the sink changes where outcomes go,
    never what they are).
    """
    serial_counters = None
    records = []
    for workers in WORKER_COUNTS:
        best = None
        for _ in range(repeats):
            sink = NullSink()
            engine = DatasetEngine(system.pipeline, workers=workers, sink=sink)
            started = time.perf_counter()
            report = engine.run(dataset)
            elapsed = time.perf_counter() - started
            stats = engine.last_stats
            assert sink.n_emitted == report.n_reads == len(dataset)
            if serial_counters is None:
                serial_counters = report.counters
            assert report.counters == serial_counters, (
                f"null-sink: workers={workers} counters diverged from serial"
            )
            rps = len(dataset) / elapsed if elapsed > 0 else 0.0
            if best is None or rps > best["reads_per_sec"]:
                best = {
                    "source": "reads",
                    "lane": "null-sink",
                    "sink": "null",
                    "workers": workers,
                    "batching": stats.batching,
                    "transport": stats.transport,
                    "mode": stats.mode,
                    "batch_size": stats.batch_size,
                    "n_shards": stats.n_shards,
                    "reads": stats.n_reads,
                    "elapsed_s": round(elapsed, 4),
                    "reads_per_sec": round(rps, 2),
                }
        records.append(best)
    return records


#: The trace-overhead lane's variants: the record's ``traced`` flag.
TRACE_OVERHEAD_VARIANTS = (False, True)


def collect_trace_overhead_lane(system, dataset, repeats: int = 1) -> list[dict]:
    """Time the same serial workload untraced and with span tracing on.

    Two records (``"lane": "trace-overhead"``, ``traced`` False/True)
    over the reads grid dataset, each the best of >= 3 passes -- the
    tracer's cost is a few context managers and clock reads per read,
    well inside one pass of scheduler noise on a shared runner. The
    traced run must reproduce the untraced report exactly (tracing is a
    side channel, never a result input); :func:`gate_trace_overhead`
    (CI's ``--gate-trace`` step) asserts the traced best is within 5%
    of the untraced best.
    """
    repeats = max(repeats, 3)
    records = []
    reports = {}
    for traced in TRACE_OVERHEAD_VARIANTS:
        best = None
        for _ in range(repeats):
            engine = DatasetEngine(system.pipeline, workers=1, trace=traced)
            started = time.perf_counter()
            report = engine.run(dataset)
            elapsed = time.perf_counter() - started
            stats = engine.last_stats
            assert report.n_reads == stats.n_reads == len(dataset)
            if traced:
                trace = engine.last_trace or []
                n_read_traces = sum(1 for t in trace if t.kind == "read")
                assert n_read_traces == len(dataset), (
                    f"traced run produced {n_read_traces} read traces "
                    f"for {len(dataset)} reads"
                )
            rps = len(dataset) / elapsed if elapsed > 0 else 0.0
            if best is None or rps > best["reads_per_sec"]:
                best = {
                    "source": "reads",
                    "lane": "trace-overhead",
                    "traced": traced,
                    "workers": 1,
                    "batching": stats.batching,
                    "transport": stats.transport,
                    "mode": stats.mode,
                    "batch_size": stats.batch_size,
                    "n_shards": stats.n_shards,
                    "reads": stats.n_reads,
                    "elapsed_s": round(elapsed, 4),
                    "reads_per_sec": round(rps, 2),
                }
            reports[traced] = report
        records.append(best)
    assert (
        reports[True].outcomes == reports[False].outcomes
        and reports[True].counters == reports[False].counters
    ), "trace-overhead: traced report diverged from untraced"
    return records


#: The mapping lane's kernel planes: record's ``kernel`` -> MapperConfig
#: factory. ``"vectorised"`` is the default plane (batched seeding +
#: blocked chain DP + wavefront Gotoh); ``"scalar"`` pins every stage to
#: its reference kernel.
MAPPING_LANE_KERNELS = ("vectorised", "scalar")


def _mapping_mapper_config(kernel: str):
    from repro.mapping.alignment import AlignmentConfig
    from repro.mapping.chaining import ChainingConfig
    from repro.mapping.mapper import MapperConfig

    if kernel == "vectorised":
        return MapperConfig()
    return MapperConfig(
        chaining=ChainingConfig(kernel="scalar"),
        alignment=AlignmentConfig(kernel="scalar"),
        seed_kernel="scalar",
    )


def collect_mapping_lane(mapping_systems: dict, dataset, repeats: int = 1) -> list[dict]:
    """Time the mapping kernel plane end to end (PR 9), per kernel set.

    ``mapping_systems`` maps a kernel label (``"vectorised"`` /
    ``"scalar"``) to systems that differ only in their
    :class:`~repro.mapping.mapper.MapperConfig` kernel selection, with
    base-level alignment ON so all three mapping kernels (seeding,
    chain DP, Gotoh) sit on the timed path. Every kernel is
    bit-identical to its reference by construction, so the lane asserts
    the two planes produce identical outcomes -- the vectorised entry
    is purely a wall-time win. Each record also carries the
    mapping-ops ledger delta (chain candidates, alignment cells) the
    run charged, the counts :mod:`repro.perf` converts to seconds.

    The kernel-plane delta is a single-digit percentage of the lane's
    wall time (the shared banded row pipeline dominates alignment), so
    the lane always takes the best of >= 3 passes per plane -- one pass
    of scheduler noise on a shared runner would otherwise swamp the
    ordering the baseline commits to.
    """
    from repro.kernels.mapping_ops import process_mapping_ops

    repeats = max(repeats, 3)
    records = []
    kernel_outcomes = {}
    for kernel, system in mapping_systems.items():
        best = None
        for _ in range(repeats):
            ledger = process_mapping_ops()
            before = ledger.by_kind()
            engine = DatasetEngine(system.pipeline, workers=1)
            started = time.perf_counter()
            report = engine.run(dataset)
            elapsed = time.perf_counter() - started
            after = ledger.by_kind()
            stats = engine.last_stats
            assert report.n_reads == stats.n_reads == len(dataset)
            rps = len(dataset) / elapsed if elapsed > 0 else 0.0
            if best is None or rps > best["reads_per_sec"]:
                best = {
                    "source": "reads",
                    "lane": "mapping",
                    "kernel": kernel,
                    "workers": 1,
                    "batching": stats.batching,
                    "transport": stats.transport,
                    "mode": stats.mode,
                    "batch_size": stats.batch_size,
                    "n_shards": stats.n_shards,
                    "reads": stats.n_reads,
                    "elapsed_s": round(elapsed, 4),
                    "reads_per_sec": round(rps, 2),
                    "chain_candidate_ops": after.get("chain-candidate", 0)
                    - before.get("chain-candidate", 0),
                    "align_cell_ops": after.get("align-cell", 0)
                    - before.get("align-cell", 0),
                }
            kernel_outcomes[kernel] = report.outcomes
        records.append(best)
    outcomes = list(kernel_outcomes.values())
    assert all(o == outcomes[0] for o in outcomes), (
        "mapping kernel planes must produce identical outcomes"
    )
    return records


def expected_lane_counts() -> dict[str, int]:
    """Lane name -> record count, derived from the module's constants.

    This is the registry CI's sanity check runs against (via
    ``--verify``); a new lane or a widened axis changes the expectation
    here automatically instead of in a hardcoded count.
    """
    from repro.kernels import SDTW_KERNELS

    return {
        "reads-grid": len(BATCHING_MODES) * len(WORKER_COUNTS),
        "signals": len(SIGNAL_WORKER_COUNTS),
        "signal-er": len(SIGNAL_WORKER_COUNTS),
        "sdtw-kernel": len(SDTW_KERNELS) * len(SIGNAL_WORKER_COUNTS),
        "viterbi-events": len(SIGNAL_WORKER_COUNTS),
        "dnn-batch": 2 * len(SIGNAL_WORKER_COUNTS),  # per-chunk and batched variants
        "sessions": len(SESSION_COUNTS) * len(SESSION_WORKERS),
        "columnar": 1,
        "null-sink": len(WORKER_COUNTS),
        "mapping": len(MAPPING_LANE_KERNELS),
        "trace-overhead": len(TRACE_OVERHEAD_VARIANTS),
    }


def _classify(record: dict) -> str:
    """Map one result record back to its registry lane name."""
    lane = record.get("lane")
    if lane is not None:
        return lane
    if record.get("signal_er"):
        return "signal-er"
    return "signals" if record["source"] == "signals" else "reads-grid"


def verify_document(path) -> list[str]:
    """Check a BENCH_runtime.json against the lane registry.

    Returns a list of problems (empty when the document is sound):
    wrong schema, lane counts diverging from :func:`expected_lane_counts`,
    unknown lanes, or non-positive throughput anywhere.
    """
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    problems = []
    if document.get("schema") != "genpip-bench-runtime/1":
        problems.append(f"unexpected schema {document.get('schema')!r}")
        return problems
    expected = expected_lane_counts()
    observed: dict[str, int] = {}
    for record in document.get("results", ()):
        observed[_classify(record)] = observed.get(_classify(record), 0) + 1
        if not record.get("reads_per_sec", 0) > 0:
            problems.append(f"non-positive reads_per_sec in {record}")
    for lane in sorted(set(expected) | set(observed)):
        if observed.get(lane, 0) != expected.get(lane, 0):
            problems.append(
                f"lane {lane!r}: expected {expected.get(lane, 0)} records, "
                f"found {observed.get(lane, 0)}"
            )
    return problems


def gate_copy_bytes(path) -> list[str]:
    """Assert the pooled columnar record copied nothing worker-side.

    Wall clock on shared runners is noise; the byte ledger is exact,
    which is why CI gates on it. A run that fell back to pickle copies
    every payload byte and fails here, as it should. Returns a list of
    problems (empty when the gate passes).
    """
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    columnar = [
        record
        for record in document.get("results", ())
        if record.get("lane") == "columnar"
    ]
    if len(columnar) != 1:
        return [f"expected one columnar record, found {len(columnar)}"]
    (record,) = columnar
    if record["mode"] != "process-pool" or record["bytes_published"] <= 0:
        return [f"columnar record did not run pooled ({record['mode']}); ledger untested"]
    if record["bytes_copied_per_read"] != 0:
        return [
            f"pooled run copied {record['bytes_copied_per_read']} B/read worker-side "
            f"(transport {record['transport']}); expected 0"
        ]
    return []


def gate_trace_overhead(path, max_ratio: float = 0.05) -> list[str]:
    """Assert span tracing costs <= ``max_ratio`` of the untraced run.

    Reads the trace-overhead lane out of a bench document and compares
    the best traced pass's wall time against the best untraced pass's
    over the identical serial workload. Returns a list of problems
    (empty when the gate passes).
    """
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    by_variant = {
        record.get("traced"): record
        for record in document.get("results", ())
        if record.get("lane") == "trace-overhead"
    }
    problems = []
    for traced in TRACE_OVERHEAD_VARIANTS:
        if traced not in by_variant:
            problems.append(f"trace-overhead lane missing traced={traced} record")
    if problems:
        return problems
    untraced_s = by_variant[False]["elapsed_s"]
    traced_s = by_variant[True]["elapsed_s"]
    if untraced_s <= 0:
        problems.append(f"untraced run reports no elapsed time ({untraced_s})")
    elif traced_s > (1 + max_ratio) * untraced_s:
        problems.append(
            f"tracing cost {traced_s / untraced_s - 1:.1%} of the untraced "
            f"run ({traced_s}s vs {untraced_s}s), over the {max_ratio:.0%} budget"
        )
    return problems


def collect_signal_er_lane(ser_system, store_path, repeats: int = 1) -> list[dict]:
    """Time the signal-ER path: raw current screened before basecalling.

    Same container as the signal lane, but the pipeline carries a
    :class:`~repro.signal.rejection.SignalRejectionPolicy`, so junk (and
    template-uncovered) reads stop in signal space with zero basecalled
    chunks. Each record carries the observed ``reject_rate`` next to
    the wall time -- the two numbers SER trades against each other.
    """
    from repro.runtime import SignalStoreSource

    records = []
    for workers in SIGNAL_WORKER_COUNTS:
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            engine = DatasetEngine(ser_system.pipeline, workers=workers)
            report = engine.run(SignalStoreSource(store_path))
            elapsed = time.perf_counter() - started
            stats = engine.last_stats
            assert stats.signal_er
            assert report.n_reads == stats.n_reads > 0
            rps = report.n_reads / elapsed if elapsed > 0 else 0.0
            if best is None or rps > best["reads_per_sec"]:
                best = {
                    "source": "signals",
                    "signal_er": True,
                    "reject_rate": round(report.ser_rejection_ratio, 4),
                    "workers": workers,
                    "batching": stats.batching,
                    "transport": stats.transport,
                    "mode": stats.mode,
                    "batch_size": stats.batch_size,
                    "n_shards": stats.n_shards,
                    "reads": stats.n_reads,
                    "elapsed_s": round(elapsed, 4),
                    "reads_per_sec": round(rps, 2),
                }
        records.append(best)
    return records


def collect_signal_grid(signal_system, store_path, repeats: int = 1) -> list[dict]:
    """Time the signal-native path: stored raw current -> mapper.

    One record per worker count; real signal-space decoding dominates,
    so the lane stays tiny (a handful of short reads) and still tracks
    the end-to-end throughput of the container -> transport -> decoder
    pipeline.
    """
    from repro.runtime import SignalStoreSource

    records = []
    for workers in SIGNAL_WORKER_COUNTS:
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            engine = DatasetEngine(signal_system.pipeline, workers=workers)
            report = engine.run(SignalStoreSource(store_path))
            elapsed = time.perf_counter() - started
            stats = engine.last_stats
            assert report.n_reads == stats.n_reads > 0
            rps = report.n_reads / elapsed if elapsed > 0 else 0.0
            if best is None or rps > best["reads_per_sec"]:
                best = {
                    "source": "signals",
                    "workers": workers,
                    "batching": stats.batching,
                    "transport": stats.transport,
                    "mode": stats.mode,
                    "batch_size": stats.batch_size,
                    "n_shards": stats.n_shards,
                    "reads": stats.n_reads,
                    "elapsed_s": round(elapsed, 4),
                    "reads_per_sec": round(rps, 2),
                }
        records.append(best)
    return records


def _assert_reports_identical(reports: dict, label: str) -> None:
    """Every worker count must produce the byte-identical report."""
    counts = sorted(reports)
    first = reports[counts[0]]
    for workers in counts[1:]:
        report = reports[workers]
        assert (
            report.outcomes == first.outcomes and report.counters == first.counters
        ), f"{label}: workers={workers} report diverged from workers={counts[0]}"


def collect_sdtw_kernel_lane(ser_systems: dict, store_path, repeats: int = 1) -> list[dict]:
    """Time the SER screen per sDTW kernel (scalar vs wavefront).

    Same container, same policy parameters, different kernels
    (:data:`repro.kernels.SDTW_KERNELS`). Kernel costs are bit-identical
    by construction, so besides serial == pooled the lane asserts the
    *kernels* agree outcome-for-outcome -- the wavefront entry is purely
    a wall-time win.
    """
    from repro.runtime import SignalStoreSource

    records = []
    kernel_outcomes = {}
    for kernel, system in ser_systems.items():
        reports = {}
        for workers in SIGNAL_WORKER_COUNTS:
            best = None
            for _ in range(repeats):
                started = time.perf_counter()
                engine = DatasetEngine(system.pipeline, workers=workers)
                report = engine.run(SignalStoreSource(store_path))
                elapsed = time.perf_counter() - started
                stats = engine.last_stats
                assert stats.signal_er
                assert report.n_reads == stats.n_reads > 0
                rps = report.n_reads / elapsed if elapsed > 0 else 0.0
                if best is None or rps > best["reads_per_sec"]:
                    best = {
                        "source": "signals",
                        "lane": "sdtw-kernel",
                        "kernel": kernel,
                        "signal_er": True,
                        "reject_rate": round(report.ser_rejection_ratio, 4),
                        "workers": workers,
                        "batching": stats.batching,
                        "transport": stats.transport,
                        "mode": stats.mode,
                        "batch_size": stats.batch_size,
                        "n_shards": stats.n_shards,
                        "reads": stats.n_reads,
                        "elapsed_s": round(elapsed, 4),
                        "reads_per_sec": round(rps, 2),
                    }
                reports[workers] = report
            records.append(best)
        _assert_reports_identical(reports, f"sdtw-kernel[{kernel}]")
        kernel_outcomes[kernel] = reports[SIGNAL_WORKER_COUNTS[0]].outcomes
    outcomes = list(kernel_outcomes.values())
    assert all(o == outcomes[0] for o in outcomes), (
        "sDTW kernels must produce identical SER decisions"
    )
    return records


def collect_viterbi_events_lane(event_system, store_path, repeats: int = 1) -> list[dict]:
    """Time the event-space Viterbi decode of the signal container.

    The plain signal lane decodes the same container sample-by-sample;
    this lane segments each chunk into events first
    (``decode="events"``), shrinking the trellis ~``dwell_mean``x. One
    record per worker count, with serial == pooled asserted.
    """
    from repro.runtime import SignalStoreSource

    records = []
    reports = {}
    for workers in SIGNAL_WORKER_COUNTS:
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            engine = DatasetEngine(event_system.pipeline, workers=workers)
            report = engine.run(SignalStoreSource(store_path))
            elapsed = time.perf_counter() - started
            stats = engine.last_stats
            assert report.n_reads == stats.n_reads > 0
            rps = report.n_reads / elapsed if elapsed > 0 else 0.0
            if best is None or rps > best["reads_per_sec"]:
                best = {
                    "source": "signals",
                    "lane": "viterbi-events",
                    "decode": "events",
                    "workers": workers,
                    "batching": stats.batching,
                    "transport": stats.transport,
                    "mode": stats.mode,
                    "batch_size": stats.batch_size,
                    "n_shards": stats.n_shards,
                    "reads": stats.n_reads,
                    "elapsed_s": round(elapsed, 4),
                    "reads_per_sec": round(rps, 2),
                }
            reports[workers] = report
        records.append(best)
    _assert_reports_identical(reports, "viterbi-events")
    return records


def collect_dnn_batch_lane(dnn_systems: dict, store_path, repeats: int = 1) -> list[dict]:
    """Time the DNN decode of the signal container, per-chunk vs batched.

    ``dnn_systems`` maps ``False``/``True`` (batched?) to systems that
    differ only in the backend's ``batched`` flag. The batch size is
    pinned so serial and pooled runs compose identical work units --
    the serial == pooled identity the lane asserts per variant. (The
    two variants are *not* compared to each other: batched matmuls
    reassociate floats, so their outcomes may differ at rounding level.)
    """
    from repro.runtime import SignalStoreSource

    records = []
    for batched, system in dnn_systems.items():
        reports = {}
        for workers in SIGNAL_WORKER_COUNTS:
            best = None
            for _ in range(repeats):
                started = time.perf_counter()
                engine = DatasetEngine(
                    system.pipeline, workers=workers, batch_size=DNN_LANE_BATCH_SIZE
                )
                report = engine.run(SignalStoreSource(store_path))
                elapsed = time.perf_counter() - started
                stats = engine.last_stats
                assert report.n_reads == stats.n_reads > 0
                rps = report.n_reads / elapsed if elapsed > 0 else 0.0
                if best is None or rps > best["reads_per_sec"]:
                    best = {
                        "source": "signals",
                        "lane": "dnn-batch",
                        "dnn_batched": batched,
                        "workers": workers,
                        "batching": stats.batching,
                        "transport": stats.transport,
                        "mode": stats.mode,
                        "batch_size": stats.batch_size,
                        "n_shards": stats.n_shards,
                        "reads": stats.n_reads,
                        "elapsed_s": round(elapsed, 4),
                        "reads_per_sec": round(rps, 2),
                    }
                reports[workers] = report
            records.append(best)
        _assert_reports_identical(reports, f"dnn-batch[batched={batched}]")
    return records


def write_bench_json(path, records: list[dict], context: dict) -> None:
    document = {
        "schema": "genpip-bench-runtime/1",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "context": context,
        "results": records,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


# --- pytest-benchmark lane --------------------------------------------------

if pytest is not None:

    @pytest.fixture(scope="module")
    def runtime_context(bench_scale, bench_seed):
        from repro.experiments.context import get_context

        context = get_context("ecoli-like", scale=bench_scale["ecoli-like"], seed=bench_seed)
        _ = context.index  # force index construction outside the timed region
        return context

    @pytest.fixture(scope="module")
    def runtime_system(runtime_context):
        return GenPIP(runtime_context.index, runtime_context.base_config(), align=False)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_runtime_throughput(benchmark, runtime_system, runtime_context, workers):
        dataset = runtime_context.dataset
        report, stats = benchmark.pedantic(
            _run, args=(runtime_system, dataset, workers), rounds=3, iterations=1
        )
        benchmark.extra_info["workers"] = workers
        benchmark.extra_info["mode"] = stats.mode
        benchmark.extra_info["transport"] = stats.transport
        benchmark.extra_info["reads"] = stats.n_reads
        benchmark.extra_info["reads_per_sec"] = round(stats.reads_per_sec, 2)
        assert report.n_reads == len(dataset)

    def test_worker_scaling_summary(runtime_system, runtime_context, capsys):
        """One timed pass per worker count; prints the speedup table."""
        dataset = runtime_context.dataset
        throughput = {}
        for workers in WORKER_COUNTS:
            started = time.perf_counter()
            report, stats = _run(runtime_system, dataset, workers)
            elapsed = time.perf_counter() - started
            throughput[workers] = len(dataset) / elapsed
            assert report.n_reads == len(dataset)
        with capsys.disabled():
            print("\nruntime worker scaling (ecoli-like bench context):")
            for workers, rps in throughput.items():
                print(
                    f"  workers={workers}: {rps:8.1f} reads/s "
                    f"(speedup x{rps / throughput[1]:.2f})"
                )
        assert all(rps > 0 for rps in throughput.values())

    def test_grid_emits_bench_json(runtime_system, runtime_context, tmp_path):
        """The grid collector produces a complete, well-formed document."""
        records = collect_grid(runtime_system, runtime_context.dataset)
        path = tmp_path / "BENCH_runtime.json"
        write_bench_json(path, records, {"profile": "ecoli-like"})
        document = json.loads(path.read_text())
        assert document["schema"] == "genpip-bench-runtime/1"
        # The registry, not a hardcoded count, says how many grid records.
        assert len(document["results"]) == expected_lane_counts()["reads-grid"]
        assert all(record["reads_per_sec"] > 0 for record in document["results"])
        assert all("batch_p50_ms" in record for record in document["results"])


# --- standalone grid entry point -------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the runtime throughput grid and emit BENCH_runtime.json."
    )
    parser.add_argument("--profile", default="ecoli-like")
    parser.add_argument("--scale", type=float, default=0.0015)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--max-read-length", type=int, default=None, metavar="BASES")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--signal-scale", type=float, default=0.0001,
        help="dataset fraction for the signal-native lane (real decoding; keep tiny)",
    )
    parser.add_argument("--signal-max-read-length", type=int, default=900, metavar="BASES")
    parser.add_argument("--out", default="BENCH_runtime.json")
    parser.add_argument(
        "--verify", metavar="JSON", default=None,
        help="verify an existing bench document against the lane registry "
        "(schema + per-lane record counts + positive throughput) and exit",
    )
    parser.add_argument(
        "--gate-copies", metavar="JSON", default=None,
        help="assert the columnar lane's pooled bytes_copied_per_read is 0 "
        "in an existing bench document and exit",
    )
    parser.add_argument(
        "--gate-trace", metavar="JSON", default=None,
        help="assert the trace-overhead lane's traced run is within 5%% of "
        "the untraced run's wall time in an existing bench document and exit",
    )
    args = parser.parse_args(argv)

    if args.gate_trace is not None:
        problems = gate_trace_overhead(args.gate_trace)
        for problem in problems:
            print(f"gate-trace: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.gate_trace}: tracing within the 5% overhead budget")
        return 1 if problems else 0

    if args.gate_copies is not None:
        problems = gate_copy_bytes(args.gate_copies)
        for problem in problems:
            print(f"gate-copies: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.gate_copies}: pooled run copied 0 B/read worker-side")
        return 1 if problems else 0

    if args.verify is not None:
        problems = verify_document(args.verify)
        for problem in problems:
            print(f"verify: {problem}", file=sys.stderr)
        if not problems:
            expected = expected_lane_counts()
            print(
                f"{args.verify}: {sum(expected.values())} records across "
                f"{len(expected)} lanes, as registered"
            )
        return 1 if problems else 0

    import tempfile
    from pathlib import Path

    from repro.core.registry import preset_config
    from repro.mapping.index import MinimizerIndex
    from repro.nanopore.datasets import PRESETS, generate_dataset, small_profile
    from repro.nanopore.signal_store import write_signals

    profile = PRESETS[args.profile]
    if args.max_read_length is not None:
        profile = small_profile(profile, max_read_length=args.max_read_length)
    dataset = generate_dataset(profile, scale=args.scale, seed=args.seed)
    index = MinimizerIndex.build(dataset.reference)
    system = GenPIP(index, preset_config(args.profile), align=False)

    records = collect_grid(system, dataset, repeats=args.repeats)

    # Signal-native lane: write a raw-signal container once, then time
    # the stored-current path (container -> transport -> Viterbi -> map)
    # serially and pooled.
    signal_profile = small_profile(
        PRESETS[args.profile], max_read_length=args.signal_max_read_length
    )
    signal_dataset = generate_dataset(
        signal_profile, scale=args.signal_scale, seed=args.seed
    )
    signal_index = MinimizerIndex.build(signal_dataset.reference)
    signal_system = (
        GenPIP.build()
        .index(signal_index)
        .config(preset_config(args.profile))
        .basecaller("viterbi")
        .align(False)
        .build()
    )
    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "signals.rsig"
        write_signals(
            store_path,
            signal_system.pipeline.basecaller.signal_records(signal_dataset.reads),
        )
        records += collect_signal_grid(signal_system, store_path, repeats=args.repeats)

        # Signal-ER lane: the same container, screened in signal space
        # before any basecalling (sparse evenly-sampled templates, so
        # the reject rate is high -- the lane tracks the screen's cost
        # and the basecalling it avoids, not its coverage).
        from repro.signal import SignalRejectionPolicy

        ser_policy = SignalRejectionPolicy.from_reference(
            signal_system.pipeline.basecaller.pore_model,
            signal_dataset.reference.codes,
            n_templates=4,
            prefix_bases=100,
        )
        ser_system = (
            GenPIP.build()
            .index(signal_index)
            .config(preset_config(args.profile))
            .basecaller("viterbi")
            .align(False)
            .signal_rejection(ser_policy)
            .build()
        )
        records += collect_signal_er_lane(ser_system, store_path, repeats=args.repeats)

        # Kernel-plane lanes (PR 6): the same container decoded through
        # the vectorised kernel layer's three planes.
        from repro.basecalling.engines import DNNBackendConfig, ViterbiBackendConfig
        from repro.kernels import SDTW_KERNELS

        ser_systems = {}
        for kernel in SDTW_KERNELS:
            kernel_policy = SignalRejectionPolicy.from_reference(
                signal_system.pipeline.basecaller.pore_model,
                signal_dataset.reference.codes,
                n_templates=4,
                prefix_bases=100,
                kernel=kernel,
            )
            ser_systems[kernel] = (
                GenPIP.build()
                .index(signal_index)
                .config(preset_config(args.profile))
                .basecaller("viterbi")
                .align(False)
                .signal_rejection(kernel_policy)
                .build()
            )
        records += collect_sdtw_kernel_lane(ser_systems, store_path, repeats=args.repeats)

        event_system = (
            GenPIP.build()
            .index(signal_index)
            .config(preset_config(args.profile))
            .basecaller("viterbi", ViterbiBackendConfig(decode="events"))
            .align(False)
            .build()
        )
        records += collect_viterbi_events_lane(
            event_system, store_path, repeats=args.repeats
        )

        dnn_systems = {}
        for batched in (False, True):
            dnn_systems[batched] = (
                GenPIP.build()
                .index(signal_index)
                .config(preset_config(args.profile))
                .basecaller("dnn", DNNBackendConfig(hidden=DNN_LANE_HIDDEN, batched=batched))
                .align(False)
                .build()
            )
        records += collect_dnn_batch_lane(dnn_systems, store_path, repeats=args.repeats)

        # Columnar lane (PR 8): the same container pooled, with the
        # exact byte ledger recorded next to the wall time.
        records += collect_columnar_lane(signal_system, store_path, repeats=args.repeats)

    # Mapping kernel-plane lane (PR 9): the reads grid dataset with
    # base-level alignment ON, mapped once through the vectorised plane
    # and once through the pinned scalar references.
    mapping_systems = {}
    for kernel in MAPPING_LANE_KERNELS:
        mapping_systems[kernel] = (
            GenPIP.build()
            .index(index)
            .config(preset_config(args.profile))
            .mapper(_mapping_mapper_config(kernel))
            .align(True)
            .build()
        )
    records += collect_mapping_lane(mapping_systems, dataset, repeats=args.repeats)

    # Null-sink lane: the reads grid dataset with outcomes counted and
    # discarded -- the data plane without serialisation noise.
    records += collect_null_sink_lane(system, dataset, repeats=args.repeats)

    # Trace-overhead lane (PR 10): the same serial workload untraced vs
    # with per-read span tracing, gated at <= 5% overhead.
    records += collect_trace_overhead_lane(system, dataset, repeats=args.repeats)

    # Serving sessions lane: the grid dataset streamed read-by-read
    # through the warm serving layer by concurrent loopback sessions.
    records += collect_sessions_lane(system, dataset, repeats=args.repeats)

    context = {
        "profile": profile.name,
        "scale": args.scale,
        "seed": args.seed,
        "n_reads": len(dataset),
        "total_bases": int(sum(len(read) for read in dataset.reads)),
        "signal_scale": args.signal_scale,
        "signal_n_reads": len(signal_dataset),
    }
    write_bench_json(args.out, records, context)
    for record in records:
        extra = ""
        if record.get("signal_er"):
            extra = f" signal-er reject={record['reject_rate']:.0%}"
        elif record.get("lane") == "columnar":
            extra = f" {record['bytes_copied_per_read']:.0f} B copied/read"
        elif record.get("lane") == "null-sink":
            extra = " sink=null"
        elif record.get("lane") == "trace-overhead":
            extra = f" traced={record['traced']}"
        elif record.get("lane") == "mapping":
            extra = (
                f" kernel={record['kernel']} "
                f"chain_ops={record['chain_candidate_ops']} "
                f"align_cells={record['align_cell_ops']}"
            )
        elif record.get("lane") == "sessions":
            extra = (
                f" sessions={record['sessions']} p50={record['p50_ms']:.1f}ms "
                f"p99={record['p99_ms']:.1f}ms"
            )
        print(
            f"source={record['source']:<7} workers={record['workers']} "
            f"batching={record.get('batching') or '-':<12} "
            f"transport={record['transport']:<6} mode={record['mode']:<12} "
            f"{record['reads_per_sec']:8.1f} reads/s{extra}",
            file=sys.stderr,
        )
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

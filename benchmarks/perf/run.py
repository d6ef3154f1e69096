"""The perf benchmark's single entry point.

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's reads from the seed, runs interleaved rounds
for about ``S`` seconds, checks every outcome, and prints one JSON
object as the last line of stdout: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. A table with quartiles goes to
stderr; ``--out FILE`` appends the full record for ``compare.py``.

A round is ``probe · cold-start child · probe · serial pass · probe ·
pooled pass · probe · served pass · probe`` on a fresh slice of reads
(see ``workloads.py``). Each timed segment is rescaled by the machine
speed its two neighbouring probes saw, so a metric's samples span the
whole run and a slow minute of a shared box moves them far less than it
moves the wall clock. README.md has the metric definitions.

The process started from the command line only supervises: the run
happens in a child of it, and it does not exit before every process the
run started has ended (``supervise.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import measure
import supervise
import tracing
import workloads
from closed_loop import served_pass
from workloads import BENCH_DIR, WORKLOADS, Workload

from repro.kernels.mapping_ops import process_mapping_ops
from repro.nanopore.signal_store import write_read_store, write_signals
from repro.runtime import (
    DatasetEngine,
    SignalStoreSource,
    StoreSource,
    active_segments,
    outcome_to_record,
    plan_work,
)
from repro.runtime.transport import attach_unit, publish_unit, release_unit, unit_lease
from repro.serving import protocol

POOL_WORKERS = 2
SESSIONS = 2
COLD_READS = 4
WARMUP_READS = 6
MIN_ROUNDS = 3
#: Share of ``--seconds`` a ``--trace 1`` run spends on timed rounds
#: before it turns to the traced passes.
TRACE_ROUNDS_SHARE = 0.7
CHILD_TIMEOUT_S = 120.0
READ_TIMEOUT_S = 30.0
HOST = "127.0.0.1"
GOLDEN_SEED = 7
GOLDEN_SLICES = 16
GOLDEN_PATH = BENCH_DIR / "golden.json"
#: Scratch space inside the checkout (the benchmark writes nowhere else).
WORK_ROOT = workloads.REPO_ROOT / ".bench_work"

END_TO_END = {
    "reads_per_s": "reads/s",
    "pooled_reads_per_s": "reads/s",
    "served_reads_per_s": "reads/s",
    "verdict_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "core.glue_self_s": "s",
    "core.er_rejected_ratio": "ratio",
    "core.basecalled_chunk_ratio": "ratio",
    "core.verdict_correct_ratio": "ratio",
    "basecalling.busy_s": "s",
    "basecalling.calls": "count",
    "basecalling.kbases_per_s": "kbases/s",
    "genomics.encode_busy_s": "s",
    "genomics.encode_calls": "count",
    "mapping.seed_busy_s": "s",
    "mapping.seed_calls": "count",
    "mapping.chain_prefix_busy_s": "s",
    "mapping.chain_prefix_calls": "count",
    "mapping.finalize_busy_s": "s",
    "mapping.finalize_calls": "count",
    "mapping.index_build_s": "s",
    "kernels.align_cells": "count",
    "kernels.chain_candidates": "count",
    "kernels.align_cells_per_s": "1/s",
    "kernels.chain_candidates_per_s": "1/s",
    "kernels.viterbi_state_ops_per_s": "1/s",
    "nanopore.store_read_ms_per_read": "ms",
    "runtime.serial_self_s": "s",
    "runtime.plan_us_per_read": "us",
    "runtime.transport_us_per_read": "us",
    "runtime.published_bytes_per_read": "B",
    "runtime.copied_bytes_per_read": "B",
    "runtime.record_us_per_read": "us",
    "runtime.pool_efficiency": "ratio",
    "runtime.shards": "count",
    "runtime.batch_size": "count",
    "runtime.leaked_segments": "count",
    "serving.encode_read_us": "us",
    "serving.decode_read_us": "us",
    "serving.read_frame_kb": "KiB",
    "serving.server_p50_ms": "ms",
    "serving.wire_overhead_p50_ms": "ms",
    "serving.verdict_p95_ms": "ms",
    "serving.verdict_samples": "count",
    "serving.sent": "count",
    "serving.failed": "count",
    "obs.trace_overhead_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
    "bench.traced_pass_s": "s",
    "setup.import_s": "s",
    "setup.first_pooled_outcome_s": "s",
    "machine.speed": "ratio",
    "machine.probe_ms": "ms",
    "raw.reads_per_s": "reads/s",
    "raw.pooled_reads_per_s": "reads/s",
    "raw.served_reads_per_s": "reads/s",
    "raw.verdict_p50_ms": "ms",
    "raw.setup_s": "s",
}


class BenchmarkAborted(RuntimeError):
    """The run cannot produce trustworthy numbers (child died, leak, ...)."""


# --- operations ledger -------------------------------------------------------


@dataclass
class Ledger:
    """Checked operations: one per read whose outcome or verdict was compared."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] += 1


def _json_safe(record: dict) -> dict:
    """A record as it reads after a trip over the wire or a pipe."""
    return json.loads(json.dumps(record))


# --- children ----------------------------------------------------------------


def _spawn(script: str, *args: str, stdin=None) -> subprocess.Popen:
    """Start a benchmark child in its own process group (its pool included)."""
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        stdin=stdin,
        stdout=subprocess.PIPE,
        cwd=workloads.REPO_ROOT,
        start_new_session=True,
    )


def _reap(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a child's process group and wait for the child."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


class ServeChild:
    """The warm serving process of a run (started once, always reaped)."""

    def __init__(self, workload: Workload):
        self._proc = _spawn(
            "serve_child.py", "--workload", workload.name, stdin=subprocess.PIPE
        )
        self.port: int | None = None

    def wait_ready(self) -> None:
        ready, _, _ = select.select([self._proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self._proc.stdout.readline() if ready else b""
        if not line:
            raise BenchmarkAborted("serving child did not come up")
        self.port = json.loads(line)["port"]

    def alive(self) -> bool:
        return self._proc.poll() is None

    def stop(self) -> int:
        """Shut the server down; returns the segments it leaked."""
        if not self.alive():
            raise BenchmarkAborted(f"serving child died (exit {self._proc.returncode})")
        try:
            out, _ = self._proc.communicate(input=b"", timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkAborted("serving child did not stop") from exc
        if self._proc.returncode != 0:
            raise BenchmarkAborted(f"serving child exited {self._proc.returncode}")
        return json.loads(out.splitlines()[-1])["leaked_segments"]

    def reap(self) -> None:
        """Unconditional clean-up: never leave the child or its pool behind."""
        _reap(self._proc)


def cold_start(workload: Workload, store: Path) -> tuple[float, dict]:
    """Run the cold-start child once; returns (spawn-to-exit seconds, stamps)."""
    started = time.perf_counter()
    proc = _spawn("cold_child.py", "--workload", workload.name, "--store", str(store))
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - started
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkAborted("cold-start child timed out") from exc
    finally:
        _reap(proc)
    if proc.returncode != 0:
        raise BenchmarkAborted(f"cold-start child exited {proc.returncode}")
    return elapsed, json.loads(out.splitlines()[-1])


# --- slices and passes -------------------------------------------------------


@dataclass
class Slice:
    """One round's inputs."""

    index: int
    truth: list  # simulator reads (ground truth), one per input
    reads: list  # what the pipeline is fed (SignalReads when signal-native)
    frames: list[tuple[int, bytes]]  # (position in the slice, encoded read frame)
    encode_s: float  # seconds spent encoding ``frames``


class Bench:
    """State of one run: workload, pipeline, children, samples, ledger."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.stream = workloads.SliceStream(workload, seed)
        self.pipeline = workloads.build_pipeline(workload, workloads.build_index(workload))
        self.ledger = Ledger()
        self.golden = _load_golden(workload, seed)
        self.rounds: list[dict] = []
        self.latencies_ms: list[float] = []  # normalised client latencies, all rounds
        self.raw_latencies_ms: list[float] = []
        self.server_ms: list[float] = []
        self.wire_ms: list[float] = []
        self.served_failed = 0
        self.child_leaks = 0
        self.first_pooled_stats = None  # RuntimeStats of slice 0's pooled pass
        self._n_slices = 0
        self.cold_store = workdir / "cold.store"
        self.cold_reference: list[dict] = []

    def next_slice(self) -> Slice:
        truth = self.stream.next_slice()
        index = self._n_slices
        self._n_slices += 1
        if self.workload.signal_native:
            path = self.workdir / f"slice-{index}.signals"
            write_signals(path, self.pipeline.basecaller.signal_records(truth))
            reads = list(SignalStoreSource(path))
        else:
            reads = truth
        started = time.perf_counter()
        frames = [
            (position, protocol.encode_frame(protocol.read_frame(position, reads[position])))
            for position in range(0, len(reads), self.workload.served_stride)
        ]
        return Slice(index, truth, reads, frames, time.perf_counter() - started)

    def write_cold_store(self, first: Slice) -> None:
        """The container the cold-start child reads: the first reads of slice 0."""
        if self.workload.signal_native:
            records = self.pipeline.basecaller.signal_records(first.truth[:COLD_READS])
            write_signals(self.cold_store, records)
        else:
            write_read_store(self.cold_store, first.truth[:COLD_READS])

    # --- the three passes -------------------------------------------------

    def serial_pass(self, reads: list, around=None, **engine_options) -> tuple[float, list]:
        """One serial batch pass; ``around`` is entered inside the timed region."""
        gc.collect()
        started = time.perf_counter()
        with around or contextlib.nullcontext():
            report = DatasetEngine(self.pipeline, workers=1, **engine_options).run(reads)
        return time.perf_counter() - started, report.outcomes

    def pooled_pass(self, reads: list) -> tuple[float, list, object]:
        """One pooled batch pass on a fresh engine; also returns its RuntimeStats."""
        gc.collect()
        started = time.perf_counter()
        engine = DatasetEngine(self.pipeline, workers=POOL_WORKERS)
        report = engine.run(reads)
        return time.perf_counter() - started, report.outcomes, engine.last_stats

    def served(self, server: ServeChild, frames: list[tuple[int, bytes]]):
        gc.collect()
        try:
            return served_pass(
                HOST, server.port, frames, sessions=SESSIONS, timeout_s=READ_TIMEOUT_S
            )
        except (OSError, TimeoutError, protocol.ProtocolError) as exc:
            raise BenchmarkAborted(f"served pass could not run: {exc!r}") from exc

    # --- checks -----------------------------------------------------------

    def check_serial(self, piece: Slice, outcomes: list) -> list[dict]:
        """Golden status counts; returns the slice's reference records."""
        counts = Counter(outcome.status.value for outcome in outcomes)
        golden_ok = True
        if self.golden is not None and piece.index < len(self.golden):
            golden_ok = dict(counts) == self.golden[piece.index]
        for read, outcome in zip(piece.truth, outcomes):
            self.ledger.check(
                golden_ok and outcome.read_id == read.read_id, "serial: golden status counts"
            )
        return [_json_safe(outcome_to_record(outcome)) for outcome in outcomes]

    def check_pooled(self, reference: list[dict], outcomes: list) -> None:
        records = [_json_safe(outcome_to_record(outcome)) for outcome in outcomes]
        for position, expected in enumerate(reference):
            ok = position < len(records) and records[position] == expected
            self.ledger.check(ok, "pooled: record differs from serial")

    def check_served(self, reference: list[dict], verdicts: list, factor: float) -> None:
        for verdict in verdicts:
            ok = verdict.frame is not None and verdict.frame["outcome"] == reference[verdict.seq]
            self.ledger.check(ok, verdict.error or "served: verdict differs from serial")
            self.served_failed += not ok
            if verdict.frame is None:
                continue
            client_ms = verdict.latency_s * 1e3
            self.raw_latencies_ms.append(client_ms)
            self.latencies_ms.append(client_ms * factor)
            self.server_ms.append(verdict.frame["latency_ms"])
            self.wire_ms.append(client_ms - verdict.frame["latency_ms"])

    def check_cold(self, stamps: dict) -> None:
        records = stamps["records"]
        for position, expected in enumerate(self.cold_reference):
            ok = position < len(records) and records[position] == expected
            self.ledger.check(ok, "cold start: record differs from serial")
        self.child_leaks += stamps["leaked_segments"]

    # --- rounds -----------------------------------------------------------

    def warm_up(self, server: ServeChild, first: Slice) -> None:
        """Untimed: touch every path once and fix the cold child's reference."""
        head = first.reads[:WARMUP_READS]
        _, outcomes = self.serial_pass(head)
        self.cold_reference = [
            _json_safe(outcome_to_record(outcome)) for outcome in outcomes[:COLD_READS]
        ]
        self.pooled_pass(head)
        self.served(server, [frame for frame in first.frames if frame[0] < WARMUP_READS])
        _, stamps = cold_start(self.workload, self.cold_store)
        self.check_cold(stamps)
        measure.probe()

    def run_round(self, server: ServeChild, piece: Slice) -> None:
        probes = [measure.probe()]
        cold_s, stamps = cold_start(self.workload, self.cold_store)
        probes.append(measure.probe())
        serial_s, serial_outcomes = self.serial_pass(piece.reads)
        probes.append(measure.probe())
        pooled_s, pooled_outcomes, pooled_stats = self.pooled_pass(piece.reads)
        probes.append(measure.probe())
        served_s, verdicts = self.served(server, piece.frames)
        probes.append(measure.probe())
        if not server.alive():
            raise BenchmarkAborted("serving child died during the round")

        if piece.index == 0:
            self.first_pooled_stats = pooled_stats
        reference = self.check_serial(piece, serial_outcomes)
        self.check_pooled(reference, pooled_outcomes)
        self.check_served(reference, verdicts, measure.speed_factor(probes[3], probes[4]))
        self.check_cold(stamps)
        self.rounds.append(
            {
                "slice": piece.index,
                "reads": len(piece.reads),
                "served_reads": len(piece.frames),
                "probes_s": probes,
                "cold_s": cold_s,
                "serial_s": serial_s,
                "pooled_s": pooled_s,
                "served_s": served_s,
                "cold_norm_s": measure.normalise(cold_s, probes[0], probes[1]),
                "serial_norm_s": measure.normalise(serial_s, probes[1], probes[2]),
                "pooled_norm_s": measure.normalise(pooled_s, probes[2], probes[3]),
                "served_norm_s": measure.normalise(served_s, probes[3], probes[4]),
                "import_s": stamps["import_s"],
                "index_build_s": stamps["index_build_s"],
                "first_pooled_outcome_s": stamps["first_pooled_outcome_s"],
            }
        )

    # --- metrics ----------------------------------------------------------

    def _column(self, key: str) -> list[float]:
        return [sample[key] for sample in self.rounds]

    def _median(self, key: str) -> float:
        return statistics.median(self._column(key))

    def _rate(self, count_key: str, seconds_key: str) -> float:
        """Items per second over all rounds: total items / total seconds."""
        return sum(self._column(count_key)) / sum(self._column(seconds_key))

    def end_to_end(self) -> dict[str, float]:
        return {
            "reads_per_s": self._rate("reads", "serial_norm_s"),
            "pooled_reads_per_s": self._rate("reads", "pooled_norm_s"),
            "served_reads_per_s": self._rate("served_reads", "served_norm_s"),
            "verdict_p50_ms": measure.percentile(self.latencies_ms, 50),
            "setup_s": self._median("cold_norm_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, first: Slice) -> tuple[dict[str, float], list]:
        """The traced passes and the parent-side timings, on slice 0."""
        workload, reads, n = self.workload, first.reads, len(first.reads)
        ops = process_mapping_ops()

        def bracketed(run):
            before = measure.probe()
            result = run()
            return result, measure.speed_factor(before, measure.probe())

        (plain_s, _), plain_factor = bracketed(lambda: self.serial_pass(reads))
        recorder = tracing.SpanRecorder()
        ops_before = ops.by_kind()

        @contextlib.contextmanager
        def spans_on():
            with tracing.installed(recorder, self.pipeline), recorder.span(tracing.PASS):
                yield

        (traced_s, traced_outcomes), traced_factor = bracketed(
            lambda: self.serial_pass(reads, around=spans_on())
        )
        ops_after = ops.by_kind()
        (obs_s, _), obs_factor = bracketed(lambda: self.serial_pass(reads, trace=True))

        spans = measure.self_time_by_name(recorder.spans)

        def self_s(name: str) -> float:
            return spans.get(name, {"self_s": 0.0})["self_s"] * traced_factor

        def calls(name: str) -> int:
            return spans.get(name, {"calls": 0})["calls"]

        def ops_delta(kind: str) -> int:
            return ops_after.get(kind, 0) - ops_before.get(kind, 0)

        def rate(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        bases_called = sum(outcome.n_bases_basecalled for outcome in traced_outcomes)
        chunks_called = sum(outcome.n_chunks_basecalled for outcome in traced_outcomes)
        chunks_total = sum(outcome.n_chunks_total for outcome in traced_outcomes)
        rejected = sum(outcome.rejected_early for outcome in traced_outcomes)
        truthful = sum(
            outcome.status.value in workloads.expected_status(read.read_class)
            for read, outcome in zip(first.truth, traced_outcomes)
        )
        kernel_workload = getattr(self.pipeline.basecaller, "kernel_workload", None)
        state_ops = kernel_workload(bases_called).ops if kernel_workload is not None else 0
        chain_s = self_s(tracing.CHAIN_PREFIX) + self_s(tracing.FINALIZE)

        # Parent-side runtime cost on the run's own units.
        stats = self.first_pooled_stats
        started = time.perf_counter()
        units = plan_work(reads, stats.batch_size)
        plan_s = time.perf_counter() - started
        started = time.perf_counter()
        for unit in units:
            shared = publish_unit(unit)
            try:
                attach_unit(shared, copy=False)
                unit_lease(shared.segment).release()
            finally:
                release_unit(shared.segment)
        transport_s = time.perf_counter() - started
        started = time.perf_counter()
        for outcome in traced_outcomes:
            outcome_to_record(outcome)
        record_s = time.perf_counter() - started

        # Serving frames: the decode the server does per read.
        started = time.perf_counter()
        for _, payload in first.frames:
            protocol.read_from_record(protocol.decode_frame(payload)["read"])
        decode_s = time.perf_counter() - started
        frame_bytes = sum(len(payload) for _, payload in first.frames)

        # Container decode: the slice written once, streamed back.
        store = self.workdir / "slice-0.store"
        if workload.signal_native:
            write_signals(store, self.pipeline.basecaller.signal_records(first.truth))
            source = SignalStoreSource(store)
        else:
            write_read_store(store, first.truth)
            source = StoreSource(store)
        started = time.perf_counter()
        stored = sum(1 for _ in source)
        store_s = time.perf_counter() - started

        served_reads = len(first.frames)
        serial_rate = self._rate("reads", "serial_norm_s")
        pooled_rate = self._rate("reads", "pooled_norm_s")
        probe_s = statistics.median(p for sample in self.rounds for p in sample["probes_s"])
        values = {
            "core.glue_self_s": self_s(tracing.PROCESS_READ),
            "core.er_rejected_ratio": rejected / n,
            "core.basecalled_chunk_ratio": chunks_called / chunks_total,
            "core.verdict_correct_ratio": truthful / n,
            "basecalling.busy_s": self_s(tracing.BASECALL_CHUNK),
            "basecalling.calls": calls(tracing.BASECALL_CHUNK),
            "basecalling.kbases_per_s": rate(bases_called / 1e3, self_s(tracing.BASECALL_CHUNK)),
            "genomics.encode_busy_s": self_s(tracing.ENCODE),
            "genomics.encode_calls": calls(tracing.ENCODE),
            "mapping.seed_busy_s": self_s(tracing.ADD_CHUNK),
            "mapping.seed_calls": calls(tracing.ADD_CHUNK),
            "mapping.chain_prefix_busy_s": self_s(tracing.CHAIN_PREFIX),
            "mapping.chain_prefix_calls": calls(tracing.CHAIN_PREFIX),
            "mapping.finalize_busy_s": self_s(tracing.FINALIZE),
            "mapping.finalize_calls": calls(tracing.FINALIZE),
            "mapping.index_build_s": self._median("index_build_s"),
            "kernels.align_cells": ops_delta("align-cell"),
            "kernels.chain_candidates": ops_delta("chain-candidate"),
            "kernels.align_cells_per_s": rate(ops_delta("align-cell"), self_s(tracing.FINALIZE)),
            "kernels.chain_candidates_per_s": rate(ops_delta("chain-candidate"), chain_s),
            "kernels.viterbi_state_ops_per_s": rate(state_ops, self_s(tracing.BASECALL_CHUNK)),
            "nanopore.store_read_ms_per_read": store_s * 1e3 / stored,
            "runtime.serial_self_s": self_s(tracing.PASS),
            "runtime.plan_us_per_read": plan_s * 1e6 / n,
            "runtime.transport_us_per_read": transport_s * 1e6 / n,
            "runtime.published_bytes_per_read": stats.bytes_published / stats.n_reads,
            "runtime.copied_bytes_per_read": stats.bytes_copied / stats.n_reads,
            "runtime.record_us_per_read": record_s * 1e6 / n,
            "runtime.pool_efficiency": pooled_rate / (POOL_WORKERS * serial_rate),
            "runtime.shards": stats.n_shards,
            "runtime.batch_size": stats.batch_size,
            "runtime.leaked_segments": len(active_segments()) + self.child_leaks,
            "serving.encode_read_us": first.encode_s * 1e6 / served_reads,
            "serving.decode_read_us": decode_s * 1e6 / served_reads,
            "serving.read_frame_kb": frame_bytes / served_reads / 1024.0,
            "serving.server_p50_ms": measure.percentile(self.server_ms, 50),
            "serving.wire_overhead_p50_ms": measure.percentile(self.wire_ms, 50),
            "serving.verdict_p95_ms": measure.percentile(self.latencies_ms, 95),
            "serving.verdict_samples": len(self.latencies_ms),
            "serving.sent": sum(self._column("served_reads")),
            "serving.failed": self.served_failed,
            "obs.trace_overhead_ratio": (obs_s * obs_factor) / (plain_s * plain_factor),
            "bench.trace_overhead_ratio": (traced_s * traced_factor) / (plain_s * plain_factor),
            "bench.traced_pass_s": traced_s * traced_factor,
            "setup.import_s": self._median("import_s"),
            "setup.first_pooled_outcome_s": self._median("first_pooled_outcome_s"),
            "machine.speed": measure.PROBE_NOMINAL_S / probe_s,
            "machine.probe_ms": probe_s * 1e3,
            "raw.reads_per_s": self._rate("reads", "serial_s"),
            "raw.pooled_reads_per_s": self._rate("reads", "pooled_s"),
            "raw.served_reads_per_s": self._rate("served_reads", "served_s"),
            "raw.verdict_p50_ms": measure.percentile(self.raw_latencies_ms, 50),
            "raw.setup_s": self._median("cold_s"),
        }
        return values, recorder.spans


# --- golden ------------------------------------------------------------------


def _load_golden(workload: Workload, seed: int) -> list[dict] | None:
    if seed != GOLDEN_SEED or not GOLDEN_PATH.is_file():
        return None
    document = json.loads(GOLDEN_PATH.read_text())
    return document["workloads"].get(workload.name)


def record_golden() -> None:
    """Rewrite golden.json: status counts of the first slices of the golden seed."""
    golden: dict[str, list[dict]] = {}
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(dir=_work_root()) as scratch:
            bench = Bench(workload, GOLDEN_SEED, Path(scratch))
            golden[workload.name] = []
            for _ in range(GOLDEN_SLICES):
                _, outcomes = bench.serial_pass(bench.next_slice().reads)
                counts = Counter(outcome.status.value for outcome in outcomes)
                golden[workload.name].append(dict(counts))
    # One slice per line keeps the file readable and its diffs small.
    body = ",\n".join(
        f'  "{name}": [\n'
        + ",\n".join(f"   {json.dumps(counts, sort_keys=True)}" for counts in slices)
        + "\n  ]"
        for name, slices in sorted(golden.items())
    )
    GOLDEN_PATH.write_text(f'{{\n "seed": {GOLDEN_SEED},\n "workloads": {{\n{body}\n }}\n}}\n')


# --- driver ------------------------------------------------------------------


def _work_root() -> Path:
    WORK_ROOT.mkdir(exist_ok=True)
    return WORK_ROOT


def run(args: argparse.Namespace) -> dict:
    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=_work_root()))
    server = ServeChild(workload)
    try:
        bench = Bench(workload, args.seed, workdir)
        first = bench.next_slice()
        bench.write_cold_store(first)
        server.wait_ready()
        bench.warm_up(server, first)

        budget_s = args.seconds * (TRACE_ROUNDS_SHARE if args.trace else 1.0)
        window_started = time.perf_counter()
        piece = first
        while True:
            bench.run_round(server, piece)
            done = len(bench.rounds)
            elapsed = time.perf_counter() - window_started
            if args.rounds is not None:
                if done >= args.rounds:
                    break
            elif done >= MIN_ROUNDS and elapsed + 0.5 * elapsed / done > budget_s:
                break
            piece = bench.next_slice()

        spans = []
        if args.trace:
            values, spans = bench.per_layer(first)
            units = PER_LAYER
        else:
            values, units = bench.end_to_end(), END_TO_END
        bench.child_leaks += server.stop()
        leaked = len(active_segments()) + bench.child_leaks
        if leaked:
            raise BenchmarkAborted(f"{leaked} shared-memory segments leaked")
    finally:
        server.reap()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        trace_out = args.trace_out or _work_root() / f"spans-{workload.name}.jsonl"
        with open(trace_out, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    return {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": bench.rounds,
        "values": {name: float(values[name]) for name in units},
        "units": units,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "reasons": dict(bench.ledger.reasons),
        "latency_samples": len(bench.latencies_ms),
    }


def _print_table(record: dict) -> None:
    rounds = record["rounds"]
    print(
        f"{record['workload']} seed {record['seed']}: {len(rounds)} rounds, "
        f"{record['attempted']} operations, {record['failed']} failed, "
        f"{record['latency_samples']} latency samples",
        file=sys.stderr,
    )
    for key in ("cold_norm_s", "serial_norm_s", "pooled_norm_s", "served_norm_s"):
        s = measure.summary([sample[key] for sample in rounds])
        print(
            f"  {key:<16} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  "
            f"n {s['n']}",
            file=sys.stderr,
        )
    for name, value in record["values"].items():
        print(f"  {name:<36} {value:>16.4f} {record['units'][name]}", file=sys.stderr)
    for reason, count in record["reasons"].items():
        print(f"  FAILED {count}x: {reason}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=26.0, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None, help="fixed round count (smoke test)")
    parser.add_argument("--out", default=None, help="append the full record to this JSONL file")
    parser.add_argument(
        "--trace-out",
        default=None,
        help="with --trace 1, where the spans go (default: .bench_work/spans-WORKLOAD.jsonl)",
    )
    parser.add_argument(
        "--record-golden", action="store_true", help="rewrite golden.json and exit"
    )
    parser.add_argument("--supervised", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not args.supervised:
        # The run itself happens in a child, so that this process can end
        # every process the run leaves behind (see supervise.py).
        return supervise.supervised(
            [sys.executable, str(BENCH_DIR / "run.py"), *argv, "--supervised"]
        )
    try:
        record = run(args)
    except BenchmarkAborted as exc:
        print(f"error: {exc}; no metrics printed", file=sys.stderr)
        return 1
    _print_table(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": record["units"][name]}
            for name, value in record["values"].items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

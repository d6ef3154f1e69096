"""Tests for the streaming runtime: sources, sinks, transport.

The centrepiece extends the parallel-equivalence invariant of
``tests/test_runtime.py`` across the full streaming matrix: for every
source (in-memory, lazy generator, on-disk store) x sink (memory,
JSONL) combination, a pooled run must yield exactly the sequential run's outcomes, order, and counters. On
top of that: lossless JSONL replay, O(batch) parent retention, and
shared-memory segment cleanup on every exit path (normal, worker
exception, broken pool).
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np
import pytest

from repro.basecalling.surrogate import SurrogateBasecaller
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.core.genpip import GenPIPReport, ReportCounters
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore.signal_store import write_read_store
from repro.runtime import (
    DatasetEngine,
    IterableSource,
    JSONLSink,
    MemorySink,
    NullSink,
    SequenceSource,
    ShardCollector,
    ShardResult,
    SimulatorSource,
    StoreSource,
    active_segments,
    as_read_source,
    outcome_from_record,
    outcome_to_record,
    replay_report,
)
from repro.runtime import engine as engine_module

REPO_ROOT = Path(__file__).resolve().parents[1]

TINY_PROFILE = small_profile(ECOLI_LIKE, max_read_length=2_500)
TINY_SCALE = 0.0004
TINY_SEED = 13


def _no_leaked_segments() -> bool:
    if active_segments():
        return False
    # Belt and braces on Linux: nothing with our prefix in /dev/shm.
    if os.path.isdir("/dev/shm"):
        return not glob.glob("/dev/shm/genpip-*")
    return True


class FailingBasecaller(SurrogateBasecaller):
    """Raises on one read id -- identically in parent and workers."""

    def __init__(self, fail_read_id: str, config=None):
        super().__init__(config)
        self.fail_read_id = fail_read_id

    def basecall_many(self, requests, chunk_size):
        for read, _ in requests:
            if read.read_id == self.fail_read_id:
                raise RuntimeError(f"injected failure on {read.read_id}")
        return super().basecall_many(requests, chunk_size)


def _then_raise(reads, exc):
    """A one-shot source that fails with ``exc`` after yielding ``reads``."""
    yield from reads
    raise exc


class WorkerExitingBasecaller(SurrogateBasecaller):
    """Kills any process that is not the recorded parent (breaks the pool),
    behaving exactly like the plain surrogate in the parent itself."""

    def __init__(self, parent_pid: int, config=None):
        super().__init__(config)
        self.parent_pid = parent_pid

    def basecall_many(self, requests, chunk_size):
        if os.getpid() != self.parent_pid:
            os._exit(1)
        return super().basecall_many(requests, chunk_size)


class PidRecordingBasecaller(SurrogateBasecaller):
    """The plain surrogate, except that a worker process leaves its pid in
    ``directory/<read id>`` for every read it decodes."""

    def __init__(self, parent_pid: int, directory: Path, config=None):
        super().__init__(config)
        self.parent_pid = parent_pid
        self.directory = directory

    def basecall_many(self, requests, chunk_size):
        if os.getpid() != self.parent_pid:
            for read, _ in requests:
                (self.directory / read.read_id).write_text(str(os.getpid()))
        return super().basecall_many(requests, chunk_size)


def kill_worker(pid: int) -> None:
    """SIGKILL one pool worker of this process and wait until it is gone."""
    (process,) = [p for p in multiprocessing.active_children() if p.pid == pid]
    os.kill(pid, signal.SIGKILL)
    assert wait([process.sentinel], timeout=30), f"worker {pid} outlived SIGKILL"


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(TINY_PROFILE, scale=TINY_SCALE, seed=TINY_SEED)


@pytest.fixture(scope="module")
def tiny_index(tiny_dataset):
    return MinimizerIndex.build(tiny_dataset.reference)


@pytest.fixture(scope="module")
def tiny_system(tiny_index):
    return GenPIPPipeline(tiny_index, GenPIPConfig(), align=False)


@pytest.fixture(scope="module")
def serial_report(tiny_system, tiny_dataset):
    """The canonical sequential in-memory run every combination must match."""
    return tiny_system.run(tiny_dataset)


@pytest.fixture(scope="module")
def store_path(tiny_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "reads.gprd"
    write_read_store(path, tiny_dataset.reads)
    return path


def _make_source(kind: str, tiny_dataset, store_path):
    if kind == "sequence":
        return SequenceSource(tiny_dataset.reads)
    if kind == "generator":
        return SimulatorSource(
            TINY_PROFILE, scale=TINY_SCALE, seed=TINY_SEED, reference=tiny_dataset.reference
        )
    return StoreSource(store_path)


class TestStreamingMatrix:
    @pytest.mark.parametrize("source_kind", ["sequence", "generator", "store"])
    @pytest.mark.parametrize("sink_kind", ["memory", "jsonl"])
    def test_parallel_equals_sequential(
        self,
        tiny_system,
        tiny_dataset,
        serial_report,
        store_path,
        tmp_path,
        source_kind,
        sink_kind,
    ):
        source = _make_source(source_kind, tiny_dataset, store_path)
        jsonl_path = tmp_path / "outcomes.jsonl"
        sink = JSONLSink(jsonl_path) if sink_kind == "jsonl" else None
        engine = DatasetEngine(tiny_system, workers=2, batch_size=4, sink=sink)
        report = engine.run(source)
        assert report.counters == serial_report.counters
        if sink_kind == "jsonl":
            assert report.outcomes == []  # streaming sink retains nothing
            replayed = replay_report(jsonl_path, serial_report.config)
            assert replayed.outcomes == serial_report.outcomes
            assert replayed.counters == serial_report.counters
        else:
            assert report.outcomes == serial_report.outcomes
        assert _no_leaked_segments()

    def test_serial_streaming_paths(
        self, tiny_system, tiny_dataset, serial_report, store_path, tmp_path
    ):
        """Serial runs through every streaming layer match the baseline."""
        jsonl_path = tmp_path / "serial.jsonl"
        engine = DatasetEngine(
            tiny_system, workers=1, batch_size=4, sink=JSONLSink(jsonl_path)
        )
        report = engine.run(StoreSource(store_path))
        assert report.counters == serial_report.counters
        replayed = replay_report(jsonl_path, serial_report.config)
        assert replayed.outcomes == serial_report.outcomes
        assert engine.last_stats.mode == "serial"
        assert engine.last_stats.transport == "none"

    def test_pickle_transport_equivalence(
        self, tiny_system, tiny_dataset, serial_report, pickle_fallback
    ):
        engine = DatasetEngine(tiny_system, workers=2, batch_size=4)
        with pytest.warns(RuntimeWarning, match="shared memory unavailable"):
            report = engine.run(tiny_dataset)
        assert report.outcomes == serial_report.outcomes
        assert report.counters == serial_report.counters
        if engine.last_stats.mode == "process-pool":
            assert engine.last_stats.transport == "pickle"
        assert _no_leaked_segments()

    def test_shm_transport_reported_in_stats(self, tiny_system, tiny_dataset, serial_report):
        engine = DatasetEngine(tiny_system, workers=2, batch_size=4)
        report = engine.run(tiny_dataset)
        assert report.outcomes == serial_report.outcomes
        if engine.last_stats.mode == "process-pool":
            assert engine.last_stats.transport == "shm"
        assert _no_leaked_segments()

    def test_alignment_survives_jsonl_replay(self, tiny_index, tiny_dataset, tmp_path):
        """CIGAR-carrying outcomes (align=True) round-trip losslessly."""
        system = GenPIPPipeline(tiny_index, GenPIPConfig(), align=True)
        baseline = system.run(tiny_dataset)
        jsonl_path = tmp_path / "aligned.jsonl"
        summary = system.run(
            tiny_dataset, workers=2, batch_size=5, sink=JSONLSink(jsonl_path)
        )
        assert summary.counters == baseline.counters
        replayed = replay_report(jsonl_path, baseline.config)
        assert replayed.outcomes == baseline.outcomes
        assert replayed == baseline


class TestFailurePaths:
    def test_worker_exception_propagates_and_releases_segments(
        self, tiny_index, tiny_dataset, tmp_path
    ):
        fail_id = tiny_dataset.reads[len(tiny_dataset.reads) // 2].read_id
        system = GenPIPPipeline(
            tiny_index, GenPIPConfig(), basecaller=FailingBasecaller(fail_id), align=False
        )
        sink = JSONLSink(tmp_path / "partial.jsonl")
        engine = DatasetEngine(system, workers=2, batch_size=3, sink=sink)
        with pytest.raises(RuntimeError, match="injected failure"):
            engine.run(tiny_dataset)
        assert _no_leaked_segments()

    def test_broken_pool_resumes_serially_without_duplicates(
        self, tiny_index, tiny_dataset, serial_report, tmp_path
    ):
        """A pool whose workers die mid-run degrades to in-process
        execution, resuming (not restarting) the stream: the JSONL sink
        sees every outcome exactly once and the result matches the
        baseline."""
        system = GenPIPPipeline(
            tiny_index,
            GenPIPConfig(),
            basecaller=WorkerExitingBasecaller(os.getpid()),
            align=False,
        )
        jsonl_path = tmp_path / "resumed.jsonl"
        engine = DatasetEngine(
            system, workers=2, batch_size=3, sink=JSONLSink(jsonl_path)
        )
        with pytest.warns(RuntimeWarning, match="process pool broke|process pool unavailable"):
            report = engine.run(tiny_dataset)
        assert engine.last_stats.mode == "serial"
        assert report.counters == serial_report.counters
        replayed = replay_report(jsonl_path, serial_report.config)
        assert replayed.outcomes == serial_report.outcomes
        assert _no_leaked_segments()

    def test_worker_killed_between_units_resumes_serially(
        self, tiny_index, tiny_dataset, serial_report, tmp_path, monkeypatch, pool_futures
    ):
        """A worker killed while idle, between two of its units, breaks
        the pool the same way as one dying mid-unit: one warning, every
        outcome exactly once and equal to serial, nothing left behind.
        One unit in flight per worker keeps the killed one idle: the
        sink kills the worker that ran the first emitted unit, which
        has nothing queued behind it."""
        monkeypatch.setattr(engine_module, "_INFLIGHT_PER_WORKER", 1)
        pids = tmp_path / "pids"
        pids.mkdir()
        killed = []

        class KillingSink(JSONLSink):
            def emit(self, outcomes):
                if not killed:
                    killed.append(int((pids / outcomes[0].read_id).read_text()))
                    kill_worker(killed[0])
                super().emit(outcomes)

        system = GenPIPPipeline(
            tiny_index,
            GenPIPConfig(),
            basecaller=PidRecordingBasecaller(os.getpid(), pids),
            align=False,
        )
        path = tmp_path / "outcomes.jsonl"
        engine = DatasetEngine(system, workers=2, batch_size=3, sink=KillingSink(path))
        with pytest.warns(RuntimeWarning, match="process pool broke") as caught:
            report = engine.run(tiny_dataset)
        assert len(killed) == 1
        assert len([w for w in caught if "process pool broke" in str(w.message)]) == 1
        assert engine.last_stats.mode == "serial"
        assert report.counters == serial_report.counters
        assert replay_report(path, serial_report.config).outcomes == serial_report.outcomes
        assert active_segments() == ()
        assert pool_futures and all(future.done() for future in pool_futures)
        assert _no_leaked_segments()

    def test_source_failure_aborts_cleanly(self, tiny_system, tiny_dataset, tmp_path, pool_futures):
        """A source that raises mid-stream fails one way whatever the
        worker count: its own exception, and a JSONL holding exactly the
        units planned before the failure. (The workers x failure-point
        matrix runs in one body so the line counts can be compared
        across worker counts, and the test keeps its id.)"""
        threads_before = set(threading.enumerate())
        for fail_after in (5, 21):
            lines = {}
            for workers in (1, 2):
                source = _then_raise(tiny_dataset.reads[:fail_after], OSError("disk on fire"))
                path = tmp_path / f"partial-{fail_after}-{workers}.jsonl"
                engine = DatasetEngine(
                    tiny_system, workers=workers, batch_size=2, sink=JSONLSink(path)
                )
                with pytest.raises(OSError, match="disk on fire"):
                    engine.run(IterableSource(source))
                lines[workers] = path.read_text().splitlines()
                assert active_segments() == ()
                assert all(future.done() for future in pool_futures)
                assert set(threading.enumerate()) <= threads_before
            # batch_size=2: the odd read was still being batched when
            # the source failed, every full unit before it came out.
            assert len(lines[1]) == len(lines[2]) == fail_after - 1
            assert lines[1] == lines[2]
        assert _no_leaked_segments()


class TestRetention:
    def test_jsonl_sink_parent_retention_is_batch_bounded(
        self, tiny_system, tiny_dataset, serial_report, tmp_path
    ):
        """Serial streaming emits shard-by-shard: every emitted slice is
        at most one batch, and nothing accumulates between emits."""
        emitted: list[int] = []

        class ProbeSink(JSONLSink):
            def emit(self, outcomes):
                emitted.append(len(outcomes))
                super().emit(outcomes)

        engine = DatasetEngine(
            tiny_system,
            workers=1,
            batch_size=4,
            sink=ProbeSink(tmp_path / "probe.jsonl"),
        )
        engine.run(tiny_dataset)
        assert sum(emitted) == len(tiny_dataset)
        assert len(emitted) >= len(tiny_dataset) // 4  # incremental, not one blob
        assert max(emitted) <= 4

    def test_collector_drain_releases_outcomes(self, serial_report):
        outcomes = list(serial_report.outcomes)
        collector = ShardCollector(2)
        collector.add(ShardResult.from_outcomes(0, outcomes[:5]))
        drained = collector.drain()
        assert drained == outcomes[:5]
        assert collector._outcomes == []  # released, not retained
        assert collector.counters.n_reads == 5  # the counters stay
        collector.add(ShardResult.from_outcomes(1, outcomes[5:7]))
        assert collector.drain() == outcomes[5:7]
        assert collector.counters == ReportCounters.from_outcomes(outcomes[:7])


class TestSources:
    def test_simulator_source_is_reiterable_and_matches_dataset(self, tiny_dataset):
        source = SimulatorSource(
            TINY_PROFILE, scale=TINY_SCALE, seed=TINY_SEED, reference=tiny_dataset.reference
        )
        assert source.size_hint() == len(tiny_dataset)
        first = list(source)
        second = list(source)
        assert [read.read_id for read in first] == [read.read_id for read in tiny_dataset.reads]
        for a, b, c in zip(first, second, tiny_dataset.reads, strict=True):
            assert a.read_id == b.read_id == c.read_id
            assert a.seed == b.seed == c.seed
            np.testing.assert_array_equal(a.true_codes, c.true_codes)
            np.testing.assert_array_equal(a.qualities, c.qualities)

    def test_store_source_round_trips_reads_exactly(self, tiny_dataset, store_path):
        source = StoreSource(store_path)
        assert source.size_hint() == len(tiny_dataset)
        restored = list(source)
        assert len(restored) == len(tiny_dataset)
        for original, back in zip(tiny_dataset.reads, restored, strict=True):
            assert back.read_id == original.read_id
            assert back.read_class is original.read_class
            assert back.strand == original.strand
            assert back.ref_start == original.ref_start
            assert back.ref_end == original.ref_end
            assert back.seed == original.seed
            np.testing.assert_array_equal(back.true_codes, original.true_codes)
            # Bit-exact float64 qualities: outcomes over a store equal
            # the in-memory run's.
            np.testing.assert_array_equal(back.qualities, original.qualities)

    def test_as_read_source_coercions(self, tiny_dataset):
        assert isinstance(as_read_source(tiny_dataset), SequenceSource)
        assert isinstance(as_read_source(tiny_dataset.reads), SequenceSource)
        existing = SequenceSource(tiny_dataset.reads)
        assert as_read_source(existing) is existing
        wrapped = as_read_source(iter(tiny_dataset.reads))
        assert isinstance(wrapped, IterableSource)
        assert wrapped.size_hint() is None

    def test_prefetcher_preserves_order(self, tiny_system, tiny_dataset, serial_report):
        """Retargeted (the thread is gone): a pooled run pulling inline
        from a one-shot, unsized generator source keeps dataset order."""
        source = IterableSource(iter(tiny_dataset.reads))
        assert source.size_hint() is None
        engine = DatasetEngine(tiny_system, workers=2, batch_size=3)
        report = engine.run(source)
        assert engine.last_stats.mode == "process-pool"
        assert report.outcomes == serial_report.outcomes
        assert report.counters == serial_report.counters

    def test_prefetcher_propagates_errors(self, tiny_system, tiny_dataset):
        """Retargeted: the source's exception reaches the caller as
        itself -- same object, no wrapper -- with and without processes."""
        for workers in (1, 2):
            boom = ValueError("boom")
            engine = DatasetEngine(tiny_system, workers=workers, batch_size=2)
            with pytest.raises(ValueError, match="boom") as caught:
                engine.run(IterableSource(_then_raise(tiny_dataset.reads[:3], boom)))
            assert caught.value is boom
            assert caught.value.__cause__ is None

    def test_pooled_parent_pulls_the_source_on_the_calling_thread(
        self, tiny_system, tiny_dataset, tmp_path
    ):
        """The parent of a batch run is one thread and reads nothing
        ahead of its window: whether the source ends or raises, a pooled
        run advances it on the calling thread by exactly the reads of
        the units planned, and no other thread is alive in the parent
        meanwhile -- sampled as the source is pulled and as the sink
        takes each emitted prefix."""
        threads_before = set(threading.enumerate())
        thread_counts: list[int] = []

        class ProbeSink(JSONLSink):
            def emit(self, outcomes):
                thread_counts.append(threading.active_count())
                super().emit(outcomes)

        for raises in (False, True):
            pulled: list[str] = []
            thread_counts.clear()

            def probed():
                for read in tiny_dataset.reads[:12]:
                    assert threading.current_thread() is threading.main_thread()
                    thread_counts.append(threading.active_count())
                    pulled.append(read.read_id)
                    yield read
                if raises:
                    raise ValueError("boom")

            path = tmp_path / f"planned-{raises}.jsonl"
            engine = DatasetEngine(
                tiny_system, workers=2, batch_size=2, sink=ProbeSink(path)
            )
            if raises:
                with pytest.raises(ValueError, match="boom"):
                    engine.run(IterableSource(probed()))
            else:
                engine.run(IterableSource(probed()))
                assert engine.last_stats.mode == "process-pool"
            assert len(pulled) == 12 == len(path.read_text().splitlines())
            assert len(thread_counts) > 12
            assert set(thread_counts) == {1}
            assert set(threading.enumerate()) <= threads_before
        assert _no_leaked_segments()


class TestSinks:
    def test_outcome_record_round_trip(self, serial_report):
        for outcome in serial_report.outcomes:
            assert outcome_from_record(outcome_to_record(outcome)) == outcome

    def test_memory_sink_matches_direct_report(self, tiny_system, tiny_dataset, serial_report):
        sink = MemorySink()
        report = DatasetEngine(tiny_system, workers=1, sink=sink).run(tiny_dataset)
        assert report.outcomes == serial_report.outcomes
        assert report.counters == serial_report.counters

    def test_counters_only_report_refuses_mean_identity(self, tiny_index, tiny_dataset, tmp_path):
        """A streaming sink's report has exact counters and no outcomes:
        ``mean_identity`` raises rather than read 0.0, and the report
        ``replay_report`` rebuilds from the file gives the in-memory value."""
        system = GenPIPPipeline(tiny_index, GenPIPConfig(), align=True)
        in_memory = system.run(tiny_dataset)
        assert in_memory.mean_identity() > 0.5
        path = tmp_path / "aligned.jsonl"
        for sink in (JSONLSink(path), NullSink()):
            summary = system.run(tiny_dataset, sink=sink)
            assert summary.mapped_ratio == in_memory.mapped_ratio
            with pytest.raises(ValueError, match="replay_report"):
                summary.mean_identity()
        assert replay_report(path, in_memory.config).mean_identity() == in_memory.mean_identity()
        assert GenPIPReport([], in_memory.config).mean_identity() == 0.0

    def test_jsonl_sink_writes_one_line_per_outcome(
        self, tiny_system, tiny_dataset, tmp_path
    ):
        path = tmp_path / "lines.jsonl"
        DatasetEngine(tiny_system, workers=1, sink=JSONLSink(path)).run(tiny_dataset)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(tiny_dataset)


class TestOneOutcomeFileFormat:
    """JSONL is the one outcome file format (``TestStreamingMatrix``
    covers its replay equality); the AST pin in ``test_runtime_pool.py``
    keeps the second one's names out of ``src/repro``."""

    def test_cli_refuses_sink_parquet_before_any_file_exists(self, tmp_path):
        path = tmp_path / "x.parquet"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        argv = [
            "--profile", "ecoli-like", "--scale", "0.0002", "--max-read-length", "2000",
            "--sink", "parquet", "--outcomes", str(path), "--workers", "2", "--align",
        ]  # fmt: skip
        done = subprocess.run(
            [sys.executable, "-m", "repro.runtime", *argv],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
        assert done.returncode == 2
        assert "invalid choice: 'parquet'" in done.stderr.strip().splitlines()[-1]
        assert "Traceback" not in done.stderr
        assert not path.exists()
        assert _no_leaked_segments()

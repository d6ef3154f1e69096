"""Tests for the sharded dataset runtime (:mod:`repro.runtime`).

The centrepiece is the parallel-equivalence invariant: a run with any
worker count and batch size must yield a report identical to the
sequential run -- same outcomes, same order, same counters. This is
the software-level analogue of the paper's claim that restructuring
the pipeline loses no accuracy.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GenPIP, GenPIPConfig
from repro.core.genpip import ReportCounters
from repro.core.pipeline import ReadStatus
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.runtime import (
    DatasetEngine,
    ShardCollector,
    ShardResult,
    iter_work,
    plan_work,
    resolve_batch_size,
    resolve_workers,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tiny_dataset():
    """~30 short reads: enough shards to exercise every merge path."""
    return generate_dataset(small_profile(ECOLI_LIKE, max_read_length=3_000), scale=0.0005, seed=13)


@pytest.fixture(scope="module")
def tiny_index(tiny_dataset):
    return MinimizerIndex.build(tiny_dataset.reference)


@pytest.fixture(scope="module")
def tiny_system(tiny_index):
    return GenPIP(tiny_index, GenPIPConfig(), align=False)


@pytest.fixture(scope="module")
def serial_report(tiny_system, tiny_dataset):
    return tiny_system.run(tiny_dataset)


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("batch_size", [1, 7])
    def test_report_identical_to_sequential(
        self, tiny_system, tiny_dataset, serial_report, workers, batch_size
    ):
        report = tiny_system.run(tiny_dataset, workers=workers, batch_size=batch_size)
        assert report.outcomes == serial_report.outcomes
        assert report.counters == serial_report.counters
        assert report.n_reads == serial_report.n_reads
        assert report.total_chunks == serial_report.total_chunks
        assert report.chunks_basecalled == serial_report.chunks_basecalled
        assert report.bases_basecalled == serial_report.bases_basecalled
        assert report.chunks_seeded == serial_report.chunks_seeded
        assert report.reads_aligned == serial_report.reads_aligned
        assert report.mapped_ratio == serial_report.mapped_ratio
        assert report.qsr_rejection_ratio == serial_report.qsr_rejection_ratio
        assert report.cmr_rejection_ratio == serial_report.cmr_rejection_ratio
        assert report.basecall_savings == serial_report.basecall_savings
        assert report.mean_identity() == serial_report.mean_identity()

    def test_equivalence_with_alignment(self, tiny_index, tiny_dataset):
        system = GenPIP(tiny_index, GenPIPConfig(), align=True)
        serial = system.run(tiny_dataset)
        parallel = system.run(tiny_dataset, workers=2, batch_size=5)
        assert parallel.outcomes == serial.outcomes
        assert parallel.mean_identity() == serial.mean_identity()

    def test_stats_reflect_run_shape(self, tiny_system, tiny_dataset):
        engine = DatasetEngine(tiny_system.pipeline, workers=2, batch_size=7)
        engine.run(tiny_dataset)
        stats = engine.last_stats
        assert stats.mode in ("process-pool", "serial")
        assert stats.workers == 2
        assert stats.batch_size == 7
        assert stats.n_reads == len(tiny_dataset)
        assert stats.n_shards == len(plan_work(tiny_dataset.reads, 7))
        assert stats.reads_per_sec > 0

    def test_stats_report_the_pool_the_run_had(self, tiny_system, tiny_dataset):
        """Eight workers asked for, two units to run: the pool (and the
        CLI's ``process-pool xN``) is two wide, not eight."""
        batch_size = -(-len(tiny_dataset) // 2)
        engine = DatasetEngine(tiny_system.pipeline, workers=8, batch_size=batch_size)
        engine.run(tiny_dataset)
        assert engine.workers == 8
        assert engine.last_stats.n_shards == 2
        assert engine.last_stats.workers == 2


class TestReportMerge:
    """Shard counters fold into the dataset's by :meth:`ReportCounters.combine`."""

    def _shards(self, report, sizes):
        shards, at = [], 0
        for size in sizes:
            shards.append(ReportCounters.from_outcomes(report.outcomes[at : at + size]))
            at += size
        assert at == len(report.outcomes)
        return shards

    def test_merge_round_trip(self, serial_report):
        n = len(serial_report)
        first, second, third = self._shards(serial_report, [n // 3, n // 3, n - 2 * (n // 3)])
        assert first.combine(second).combine(third) == serial_report.counters
        assert first.combine(second.combine(third)) == serial_report.counters
        assert first.n_reads == n // 3  # combine returns a new object

    def test_merge_single_shard(self, serial_report):
        (only,) = self._shards(serial_report, [len(serial_report)])
        assert ReportCounters().combine(only) == serial_report.counters

    def test_merge_with_empty_shard(self, serial_report):
        empty = ReportCounters()
        merged = empty.combine(serial_report.counters).combine(empty)
        assert merged == serial_report.counters
        assert empty == ReportCounters()

    def test_counters_match_recomputation(self, serial_report):
        recomputed = ReportCounters.from_outcomes(serial_report.outcomes)
        assert serial_report.counters == recomputed


class TestShardCollector:
    def _results(self, serial_report, batch_size):
        units = plan_work(serial_report.outcomes, batch_size)
        return [
            ShardResult.from_outcomes(unit.shard_id, list(unit.reads)) for unit in units
        ]

    def test_out_of_order_delivery(self, serial_report):
        results = self._results(serial_report, 4)
        collector = ShardCollector(len(results))
        for result in reversed(results[1:]):
            collector.add(result)
        assert collector.drain() == []  # nothing is ready before shard 0
        collector.add(results[0])
        assert collector.drain() == serial_report.outcomes
        assert collector.counters == serial_report.counters

    def test_drain_streams_ordered_prefix(self, serial_report):
        results = self._results(serial_report, 5)
        collector = ShardCollector(len(results))
        collector.add(results[1])
        assert collector.drain() == []  # shard 0 still missing
        collector.add(results[0])
        prefix = collector.drain()
        assert prefix == list(results[0].outcomes) + list(results[1].outcomes)
        for result in results[2:]:
            collector.add(result)
        assert collector.drain() == [o for r in results[2:] for o in r.outcomes]

    def test_duplicate_and_out_of_range_shards_rejected(self, serial_report):
        results = self._results(serial_report, 10)
        collector = ShardCollector(len(results))
        collector.add(results[0])
        with pytest.raises(ValueError):
            collector.add(results[0])
        with pytest.raises(ValueError):
            collector.add(
                ShardResult.from_outcomes(len(results) + 3, list(results[0].outcomes))
            )


class TestSharding:
    def test_plan_covers_all_reads_in_order(self, tiny_dataset):
        units = plan_work(tiny_dataset.reads, 7)
        flattened = [read for unit in units for read in unit.reads]
        assert flattened == list(tiny_dataset.reads)
        assert [unit.shard_id for unit in units] == list(range(len(units)))
        assert all(len(unit) <= 7 for unit in units)

    @settings(max_examples=200, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=1, max_value=120_000), max_size=60),
        batch_size=st.integers(min_value=1, max_value=70),
        data=st.data(),
    )
    def test_any_plan_is_ordered_complete_and_prefix_determined(self, lengths, batch_size, data):
        """Whatever the reads' lengths: units concatenate to the stream,
        ids count up from 0, and a prefix of the stream plans a prefix
        of the units (its last, partial unit aside) -- which is why a
        unit can be submitted before the source is exhausted."""
        reads = [bytes(n) for n in lengths]
        units = list(iter_work(iter(reads), batch_size))
        planned = [read for unit in units for read in unit.reads]
        assert all(a is b for a, b in zip(planned, reads, strict=True))
        assert [unit.shard_id for unit in units] == list(range(len(units)))
        assert [unit.start for unit in units] == [i * batch_size for i in range(len(units))]
        assert all(len(unit) == batch_size for unit in units[:-1])
        assert all(1 <= len(unit) <= batch_size for unit in units[-1:])
        cut = data.draw(st.integers(min_value=0, max_value=len(reads)))
        prefix_units = plan_work(reads[:cut], batch_size)
        whole = cut // batch_size  # units the prefix fills completely
        assert prefix_units[:whole] == units[:whole]
        assert len(prefix_units) == -(-cut // batch_size)

    def test_resolve_workers_env(self, monkeypatch):
        monkeypatch.setenv("GENPIP_WORKERS", "3")
        assert resolve_workers() == 1  # no environment variable is consulted
        assert resolve_workers(0) == 1
        assert resolve_workers(4) == 4
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_resolve_batch_size(self):
        assert resolve_batch_size(100, 4, 7) == 7
        assert resolve_batch_size(0, 4, None) == 1
        auto = resolve_batch_size(1000, 2, None)
        assert 1 <= auto <= 256
        with pytest.raises(ValueError):
            resolve_batch_size(10, 2, 0)
        with pytest.raises(ValueError):
            plan_work([], 0)


class TestCLI:
    def _run_cli(self, tmp_path, name, extra):
        out = tmp_path / name
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        args = [
            sys.executable, "-m", "repro.runtime",
            "--profile", "ecoli-like", "--scale", "0.0003", "--seed", "7",
            "--max-read-length", "3000", "--quiet", "--json", str(out),
        ] + extra
        completed = subprocess.run(
            args, cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300
        )
        assert completed.returncode == 0, completed.stderr
        return out.read_text()

    def test_cli_viterbi_backend_and_preset(self, tmp_path):
        """`--basecaller viterbi --preset ecoli` runs the signal-space
        engine end-to-end through the CLI (tiny dataset; later flags
        override the helper's defaults)."""
        payload = self._run_cli(
            tmp_path,
            "viterbi.json",
            [
                "--workers", "1", "--basecaller", "viterbi", "--preset", "ecoli",
                "--scale", "0.0001", "--max-read-length", "1000",
            ],
        )
        document = json.loads(payload)
        assert document["run"]["basecaller"] == "viterbi"
        assert document["run"]["preset"] == "ecoli"
        assert document["summary"]["n_reads"] == len(document["reads"]) > 0

    def test_cli_serial_and_parallel_reports_identical(self, tmp_path):
        serial = self._run_cli(tmp_path, "serial.json", ["--workers", "1"])
        parallel = self._run_cli(
            tmp_path, "parallel.json", ["--workers", "2", "--batch-size", "3"]
        )
        assert serial == parallel
        document = json.loads(serial)
        assert document["summary"]["n_reads"] == len(document["reads"])
        assert document["summary"]["n_reads"] > 0
        assert document["run"]["variant"] == "full_er"
        statuses = {read["status"] for read in document["reads"]}
        assert statuses <= {status.value for status in ReadStatus}

    def test_cli_streaming_run_report_identical(self, tmp_path):
        """A parallel generator-source, JSONL-sink run
        serializes byte-identically to the serial in-memory run (the
        report is replayed losslessly from the outcome file)."""
        serial = self._run_cli(tmp_path, "serial.json", ["--workers", "1"])
        streaming = self._run_cli(
            tmp_path,
            "streaming.json",
            [
                "--workers", "2", "--source", "generator",
                "--sink", "jsonl", "--outcomes", str(tmp_path / "outcomes.jsonl"),
            ],
        )
        assert serial == streaming
        assert (tmp_path / "outcomes.jsonl").exists()
        n_lines = len((tmp_path / "outcomes.jsonl").read_text().strip().splitlines())
        assert n_lines == json.loads(serial)["summary"]["n_reads"]

    def test_cli_pooled_run_under_spawn_is_clean_and_identical(self, tmp_path):
        """A pickled pipeline and an index handle reaching freshly
        started interpreters (``spawn``; 3.14's POSIX default is its
        cousin ``forkserver``) give the serial report, and the index
        segment outlives workers still booting when the pool stops: at
        the parent commit it was unlinked first and stderr carried
        ``Exception in initializer ... FileNotFoundError``."""
        serial = self._run_cli(tmp_path, "serial.json", ["--workers", "1"])
        out = tmp_path / "spawn.json"
        program = (
            "import multiprocessing, sys\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    from repro.runtime.cli import main\n"
            "    raise SystemExit(main(sys.argv[1:]))\n"
        )
        script = tmp_path / "spawn_run.py"
        script.write_text(program)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [
                sys.executable, "-W", "error", str(script),
                "--profile", "ecoli-like", "--scale", "0.0003", "--seed", "7",
                "--max-read-length", "3000", "--workers", "2", "--batch-size", "3",
                "--quiet", "--json", str(out),
            ],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Exception in initializer" not in completed.stderr
        assert completed.stderr == ""
        assert out.read_text() == serial
        assert not glob.glob("/dev/shm/genpip-*")

    def test_cli_store_source_round_trip(self, tmp_path):
        """--source store writes the container on first use and streams
        from it; the report matches the in-memory source exactly."""
        serial = self._run_cli(tmp_path, "serial.json", ["--workers", "1"])
        store = tmp_path / "reads.gprd"
        from_store = self._run_cli(
            tmp_path,
            "store.json",
            ["--workers", "2", "--source", "store", "--store", str(store)],
        )
        assert store.exists()
        assert serial == from_store

    def test_cli_store_flag_mismatch_refused(self, tmp_path):
        """Reusing a container under different dataset flags is an error,
        not a silently mislabelled run (the reference/index come from the
        flags, not the file)."""
        store = tmp_path / "reads.gprd"
        self._run_cli(
            tmp_path, "first.json",
            ["--workers", "1", "--source", "store", "--store", str(store)],
        )
        assert store.with_name(store.name + ".meta.json").exists()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.runtime",
                "--profile", "ecoli-like", "--scale", "0.0005", "--seed", "8",
                "--source", "store", "--store", str(store), "--quiet",
            ],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert completed.returncode != 0
        assert "generated with" in completed.stderr

"""Tests for the zero-copy columnar data plane.

Covers the :class:`~repro.runtime.columnar.ColumnarLayout` /
:class:`~repro.runtime.columnar.ColumnarBatch` pack-and-view contract,
the :class:`~repro.runtime.transport.SegmentLease` segment-lifetime
handoff (refcounts, deferred closes, leak probes on every exit path --
success, worker exception, broken pool, interrupted serving), the
pooled zero-copy path's byte-identity with the serial baseline across
sources x sinks, the copy counter (:func:`repro.obs.metrics.record_copy` and the
``RuntimeStats`` bytes fields the bench gates), the view-based
``attach_index``, the counting :class:`~repro.runtime.sink.NullSink`,
and the pre-normalised-template sDTW fast path.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from test_runtime_streaming import FailingBasecaller, WorkerExitingBasecaller

from repro.basecalling import ViterbiBackendConfig, ViterbiChunkBasecaller
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.kernels.sdtw import sdtw_cost, sdtw_cost_scalar, znormalise
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore.signal_read import SignalRead
from repro.nanopore.signal_store import write_signals
from repro.obs import COPIED_BYTES, Counter, copied_bytes, process_registry, record_copy
from repro.runtime import (
    ColumnarBatch,
    ColumnarLayout,
    DatasetEngine,
    JSONLSink,
    NullSink,
    SignalStoreSource,
    WorkUnit,
    active_segments,
    attach_index,
    publish_index,
    replay_report,
)
from repro.runtime.cli import main as cli_main
from repro.runtime.columnar import payload_nbytes
from repro.runtime.transport import (
    attach_unit,
    publish_unit,
    release_unit,
    unit_lease,
    worker_leases,
)

TINY_PROFILE = small_profile(ECOLI_LIKE, max_read_length=2_500)
TINY_SCALE = 0.0004
TINY_SEED = 13


def _assert_same_read(back, original) -> None:
    """Field-by-field read equality (dataclass ``==`` trips on arrays)."""
    assert back.read_id == original.read_id
    if isinstance(original, SignalRead):
        assert isinstance(back, SignalRead)
        assert len(back) == len(original)
        np.testing.assert_array_equal(back.signal.samples, original.signal.samples)
        np.testing.assert_array_equal(
            back.signal.base_starts, original.signal.base_starts
        )
        return
    assert back.read_class is original.read_class
    assert back.strand == original.strand
    assert back.ref_start == original.ref_start
    assert back.ref_end == original.ref_end
    assert back.seed == original.seed
    np.testing.assert_array_equal(back.true_codes, original.true_codes)
    np.testing.assert_array_equal(back.qualities, original.qualities)


def _no_leaked_segments() -> bool:
    if active_segments():
        return False
    if os.path.isdir("/dev/shm"):
        return not glob.glob("/dev/shm/genpip-*")
    return True


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
    return tiny_system.run(tiny_dataset)


@pytest.fixture(scope="module")
def viterbi_backend():
    return ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3))


@pytest.fixture(scope="module")
def signal_reads(tiny_dataset, viterbi_backend):
    """A handful of signal-native reads (real current, kept tiny)."""
    shortest = sorted(tiny_dataset.reads, key=len)[:4]
    return [
        SignalRead(read_id=read.read_id, signal=viterbi_backend.synthesize_signal(read))
        for read in shortest
    ]


# --- the copied-bytes counter -----------------------------------------------


class TestCopyCounter:
    def test_ledger_by_boundary_and_total(self):
        counter = Counter("copied", label="boundary")
        counter.inc("publish", 100)
        counter.inc("attach", 40)
        counter.inc("publish", 10)
        assert counter.value("publish") == 110
        assert counter.value("attach") == 40
        assert counter.value() == 150
        assert counter.by_key() == {"publish": 110, "attach": 40}
        counter.reset()
        assert counter.value() == 0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            record_copy("attach", -1)

    def test_process_counter_is_the_record_copy_target(self):
        before = copied_bytes("attach")
        record_copy("attach", 7)
        assert copied_bytes("attach") == before + 7
        assert process_registry().get(COPIED_BYTES).value("attach") == before + 7


# --- ColumnarLayout / ColumnarBatch -----------------------------------------


class TestColumnarBatch:
    def test_base_space_round_trip_views(self, tiny_dataset):
        reads = tiny_dataset.reads[:5]
        batch, layout = ColumnarBatch.from_reads(reads)
        assert len(batch) == 5
        assert layout.total_bytes == payload_nbytes(reads)
        for i, read in enumerate(reads):
            np.testing.assert_array_equal(batch.quality(i), read.qualities)
            np.testing.assert_array_equal(batch.codes(i), read.true_codes)
            assert not batch.quality(i).flags.writeable
            assert not batch.codes(i).flags.writeable

    def test_view_reads_equal_originals_without_copies(self, tiny_dataset):
        reads = tiny_dataset.reads[:5]
        batch, _ = ColumnarBatch.from_reads(reads)
        before = copied_bytes("attach")
        rebuilt = batch.reads(copy=False)
        assert copied_bytes("attach") == before  # views charge nothing
        for original, back in zip(reads, rebuilt, strict=True):
            _assert_same_read(back, original)
            assert not back.qualities.flags.writeable
            # A view into the batch buffer, not a private array.
            assert back.qualities.base is not None

    def test_copy_reads_charge_the_attach_boundary(self, tiny_dataset):
        reads = tiny_dataset.reads[:5]
        batch, layout = ColumnarBatch.from_reads(reads)
        before = copied_bytes("attach")
        rebuilt = batch.reads(copy=True)
        assert copied_bytes("attach") - before == layout.total_bytes
        for original, back in zip(reads, rebuilt, strict=True):
            _assert_same_read(back, original)
            assert back.qualities.base is None  # a private copy

    def test_signal_round_trip_and_window(self, signal_reads):
        batch, _ = ColumnarBatch.from_reads(signal_reads)
        for i, read in enumerate(signal_reads):
            np.testing.assert_array_equal(batch.samples(i), read.signal.samples)
            np.testing.assert_array_equal(batch.base_starts(i), read.signal.base_starts)

    def test_mixed_batch_keeps_per_read_kinds(self, tiny_dataset, signal_reads):
        reads = [tiny_dataset.reads[0], signal_reads[0]]
        batch, _ = ColumnarBatch.from_reads(reads)
        rebuilt = batch.reads(copy=False)
        _assert_same_read(rebuilt[0], reads[0])
        _assert_same_read(rebuilt[1], reads[1])

    def test_wrong_handle_kind_raises(self, tiny_dataset, signal_reads):
        batch, _ = ColumnarBatch.from_reads([tiny_dataset.reads[0], signal_reads[0]])
        with pytest.raises(TypeError, match="signal-native"):
            batch.quality(1)
        with pytest.raises(TypeError, match="signal-native"):
            batch.codes(1)
        with pytest.raises(TypeError, match="base-space"):
            batch.samples(0)
        with pytest.raises(TypeError, match="base-space"):
            batch.base_starts(0)

    def test_single_rederives_the_lone_read_plan_from_counts(self, tiny_dataset, signal_reads):
        """What a wire receiver relies on: handle fields minus offsets
        are enough to get back exactly the layout ``plan`` computed."""
        for read in (tiny_dataset.reads[0], signal_reads[0]):
            layout = ColumnarLayout.plan([read])
            fields = {
                name: value
                for name, value in vars(layout.handles[0]).items()
                if not name.endswith("_offset")
            }
            assert ColumnarLayout.single(**fields) == layout

    def test_pack_charges_the_publish_boundary(self, tiny_dataset):
        reads = tiny_dataset.reads[:3]
        before = copied_bytes("publish")
        _, layout = ColumnarBatch.from_reads(reads)
        assert copied_bytes("publish") - before == layout.total_bytes


# --- SegmentLease: the segment-lifetime handoff ------------------------------


class TestSegmentLease:
    def test_views_survive_parent_release_until_lease_release(self, tiny_dataset):
        unit = WorkUnit(shard_id=0, start=0, reads=tuple(tiny_dataset.reads[:4]))
        shared = publish_unit(unit)
        reads = attach_unit(shared, copy=False)
        lease = unit_lease(shared.segment)
        assert lease is not None and lease.refs == 1
        assert shared.segment in worker_leases()

        # Parent releases eagerly -- the unlink the handoff must survive.
        release_unit(shared.segment)
        assert _no_leaked_segments()  # parent side is already clean

        # Views are still valid reads of the published bytes.
        for original, back in zip(unit.reads, reads, strict=True):
            _assert_same_read(back, original)

        # Every view must be garbage before the final release, loop
        # variables included, or the close defers on the live exports.
        del reads, original, back
        lease.release()
        assert shared.segment not in worker_leases()
        assert unit_lease(shared.segment) is None
        assert lease.closed

    def test_close_deferred_while_views_alive(self, tiny_dataset):
        unit = WorkUnit(shard_id=0, start=0, reads=tuple(tiny_dataset.reads[:2]))
        shared = publish_unit(unit)
        reads = attach_unit(shared, copy=False)
        lease = unit_lease(shared.segment)
        # Release with views still alive: the close must defer, not raise.
        lease.release()
        assert lease.deferred and not lease.closed
        assert shared.segment not in worker_leases()  # no longer *held*
        np.testing.assert_array_equal(reads[0].qualities, unit.reads[0].qualities)
        del reads
        # The next attach reaps the deferred close.
        other = publish_unit(WorkUnit(shard_id=1, start=0, reads=tuple(tiny_dataset.reads[:1])))
        attach_unit(other)  # copy-mode attach triggers reap_leases()
        assert lease.closed
        release_unit(shared.segment)
        release_unit(other.segment)
        assert _no_leaked_segments()

    def test_acquire_extends_and_fully_released_lease_rejects_acquire(
        self, tiny_dataset
    ):
        unit = WorkUnit(shard_id=0, start=0, reads=tuple(tiny_dataset.reads[:2]))
        shared = publish_unit(unit)
        reads = attach_unit(shared, copy=False)
        lease = unit_lease(shared.segment)
        assert lease.acquire() is lease
        assert lease.refs == 2
        lease.release()
        assert lease.refs == 1
        del reads
        lease.release()
        assert lease.closed
        with pytest.raises(RuntimeError, match="released"):
            lease.acquire()
        release_unit(shared.segment)
        assert _no_leaked_segments()

    def test_copy_attach_holds_no_lease(self, tiny_dataset):
        unit = WorkUnit(shard_id=0, start=0, reads=tuple(tiny_dataset.reads[:2]))
        shared = publish_unit(unit)
        before = copied_bytes("attach")
        reads = attach_unit(shared, copy=True)
        assert copied_bytes("attach") > before
        assert unit_lease(shared.segment) is None
        assert worker_leases() == ()
        for original, back in zip(unit.reads, reads, strict=True):
            _assert_same_read(back, original)
        release_unit(shared.segment)
        assert _no_leaked_segments()


# --- pooled zero-copy path: byte-identity + leak probes ----------------------


class TestViewTransport:
    @pytest.mark.parametrize("sink_kind", ["memory", "jsonl", "null"])
    def test_view_transport_matches_serial(
        self, tiny_system, tiny_dataset, serial_report, tmp_path, sink_kind
    ):
        jsonl_path = tmp_path / "outcomes.jsonl"
        if sink_kind == "jsonl":
            sink = JSONLSink(jsonl_path)
        else:
            sink = NullSink() if sink_kind == "null" else None
        engine = DatasetEngine(
            tiny_system,
            workers=2,
            batch_size=4,
            sink=sink,
        )
        report = engine.run(tiny_dataset)
        assert report.counters == serial_report.counters
        if sink_kind == "memory":
            assert report.outcomes == serial_report.outcomes
        elif sink_kind == "jsonl":
            replayed = replay_report(jsonl_path, serial_report.config)
            assert replayed.outcomes == serial_report.outcomes
        else:
            assert sink.n_emitted == len(tiny_dataset)
        if engine.last_stats.mode == "process-pool":
            assert engine.last_stats.transport == "shm"
            assert engine.last_stats.bytes_copied == 0
            assert engine.last_stats.bytes_copied_per_read == 0.0
            assert engine.last_stats.bytes_published >= payload_nbytes(
                tiny_dataset.reads
            )
        assert _no_leaked_segments()
        assert worker_leases() == ()

    def test_signal_native_view_transport_matches_serial(
        self, tiny_index, tiny_dataset, viterbi_backend, tmp_path
    ):
        system = GenPIPPipeline(
            tiny_index, GenPIPConfig(), basecaller=viterbi_backend, align=False
        )
        store = tmp_path / "signals.rsig"
        shortest = sorted(tiny_dataset.reads, key=len)[:4]
        write_signals(store, viterbi_backend.signal_records(shortest))
        serial = DatasetEngine(system, workers=1, batch_size=2).run(
            SignalStoreSource(store)
        )
        engine = DatasetEngine(system, workers=2, batch_size=2)
        report = engine.run(SignalStoreSource(store))
        assert report.outcomes == serial.outcomes
        assert report.counters == serial.counters
        if engine.last_stats.mode == "process-pool":
            assert engine.last_stats.bytes_copied == 0
        assert _no_leaked_segments()

    @pytest.mark.filterwarnings("ignore:shared memory unavailable:RuntimeWarning")
    def test_copy_transport_reports_copied_bytes(
        self, tiny_system, tiny_dataset, serial_report, pickle_fallback
    ):
        """The one copying path left is the pickle fallback."""
        engine = DatasetEngine(tiny_system, workers=2, batch_size=4)
        report = engine.run(tiny_dataset)
        assert report.outcomes == serial_report.outcomes
        if engine.last_stats.mode == "process-pool":
            # Deserialisation materialises every payload byte worker-side,
            # and the parent charged the same bytes when it serialised.
            nbytes = payload_nbytes(tiny_dataset.reads)
            assert engine.last_stats.transport == "pickle"
            assert engine.last_stats.bytes_copied == nbytes
            assert engine.last_stats.bytes_published == nbytes
            assert engine.last_stats.bytes_copied_per_read > 0
        assert _no_leaked_segments()

    def test_worker_exception_releases_segments_and_leases(
        self, tiny_index, tiny_dataset
    ):
        fail_id = tiny_dataset.reads[len(tiny_dataset.reads) // 2].read_id
        system = GenPIPPipeline(
            tiny_index, GenPIPConfig(), basecaller=FailingBasecaller(fail_id), align=False
        )
        engine = DatasetEngine(system, workers=2, batch_size=3)
        with pytest.raises(RuntimeError, match="injected failure"):
            engine.run(tiny_dataset)
        assert _no_leaked_segments()
        assert worker_leases() == ()

    def test_broken_pool_resumes_serially_without_leaks(
        self, tiny_index, tiny_dataset, serial_report
    ):
        """A pool dying mid-run resumes in-process: the
        result still matches the baseline and every published segment
        (and worker lease) is gone afterwards."""
        system = GenPIPPipeline(
            tiny_index,
            GenPIPConfig(),
            basecaller=WorkerExitingBasecaller(os.getpid()),
            align=False,
        )
        engine = DatasetEngine(system, workers=2, batch_size=3)
        with pytest.warns(RuntimeWarning, match="process pool broke|process pool unavailable"):
            report = engine.run(tiny_dataset)
        assert engine.last_stats.mode == "serial"
        assert report.counters == serial_report.counters
        assert _no_leaked_segments()
        assert worker_leases() == ()


# --- SIGINT during serving (subprocess; the CI smoke's shape) ----------------


@pytest.mark.slow
def test_sigint_during_serving_leaves_no_segments(tmp_path):
    """A SIGINT mid-service must tear down
    the warm pool and unlink every segment (index included)."""
    port_file = tmp_path / "serving.port"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str("src"), env.get("PYTHONPATH", "")])
    )
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serving", "serve",
            "--profile", "ecoli-like", "--max-read-length", "2500",
            "--workers", "2",
            "--port-file", str(port_file), "--quiet",
        ],
        env=env,
    )
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists():
            assert server.poll() is None, "server died before listening"
            assert time.monotonic() < deadline, "server never wrote the port file"
            time.sleep(0.1)
        # The index segment is published and the pool is warm: interrupt.
        assert json.loads(port_file.read_text())["port"] > 0
        server.send_signal(signal.SIGINT)
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert not glob.glob("/dev/shm/genpip-*")


# --- attach_index: zero-copy views ------------------------------------------


def test_attach_index_returns_read_only_views(tiny_index):
    handle = publish_index(tiny_index)
    try:
        rebuilt = attach_index(handle)
        assert rebuilt.reference.name == tiny_index.reference.name
        codes = rebuilt.reference.codes
        assert not codes.flags.writeable
        assert codes.base is not None  # a view into the mapping, not a copy
        np.testing.assert_array_equal(codes, tiny_index.reference.codes)
        for key in list(tiny_index.keys())[:20]:
            entry = rebuilt.lookup(int(key))
            expected = tiny_index.lookup(int(key))
            np.testing.assert_array_equal(entry.positions, expected.positions)
            np.testing.assert_array_equal(entry.strands, expected.strands)
            assert not entry.positions.flags.writeable
            assert entry.positions.base is not None
    finally:
        release_unit(handle.segment)
    assert _no_leaked_segments()


# --- NullSink ---------------------------------------------------------------


class TestNullSink:
    def test_counts_and_discards(self, tiny_system, tiny_dataset, serial_report):
        sink = NullSink()
        report = DatasetEngine(tiny_system, workers=1, sink=sink).run(
            tiny_dataset
        )
        assert sink.n_emitted == len(tiny_dataset)
        assert sink.n_batches >= 1
        assert report.outcomes == []  # nothing retained anywhere
        assert report.counters == serial_report.counters

    def test_cli_accepts_null_sink(self, capsys):
        assert (
            cli_main(
                [
                    "--profile", "ecoli-like", "--scale", "0.0002", "--seed", "13",
                    "--max-read-length", "2500", "--sink", "null",
                ]
            )
            == 0
        )
        assert "sink null" in capsys.readouterr().err

    def test_cli_rejects_null_sink_with_json_report(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(
                [
                    "--profile", "ecoli-like", "--scale", "0.0002",
                    "--sink", "null", "--json", str(tmp_path / "report.json"),
                ]
            )


# --- sDTW pre-normalised templates ------------------------------------------


@pytest.mark.parametrize("cost", [sdtw_cost, sdtw_cost_scalar], ids=["wavefront", "scalar"])
def test_sdtw_reference_normalized_is_bit_identical(cost):
    rng = np.random.default_rng(5)
    query = rng.normal(size=64)
    reference = rng.normal(loc=3.0, scale=2.0, size=200)
    baseline = cost(query, reference)
    pre = cost(query, znormalise(reference), reference_normalized=True)
    assert pre == baseline  # exact: znormalise is deterministic

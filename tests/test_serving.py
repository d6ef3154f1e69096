"""Tests for the serving layer: protocol, sessions, dispatch, server.

The centrepiece is the serving layer's standing invariant: the merged,
dataset-order verdict stream of N concurrent loopback sessions is
**byte-identical** to the serial batch report over the same reads, while
the worker pool stays warm and the shared-memory minimizer index is
published exactly once for the server's whole lifetime (second and
third sessions add zero publications, probed via ``active_segments``).
Around it: wire-protocol round-trips and rejection paths, session-mux
bookkeeping, the latency histogram the stats are built on, and the
inline degradation mode.
"""

from __future__ import annotations

import ast
import asyncio
import dataclasses
import gc
import glob
import json
import multiprocessing
import os
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from conftest import recorded_submits
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_runtime_streaming import FailingBasecaller, WorkerExitingBasecaller, kill_worker

from repro.basecalling import ViterbiBackendConfig, ViterbiChunkBasecaller
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore.read_simulator import ReadClass, SimulatedRead, check_read_metadata
from repro.nanopore.signal import RawSignal
from repro.nanopore.signal_read import SignalRead
from repro.nanopore.signal_store import iter_read_store, write_read_store
from repro.obs import Histogram, copied_bytes
from repro.runtime import (
    DatasetEngine,
    WorkUnit,
    active_segments,
    outcome_to_record,
)
from repro.runtime.columnar import ColumnarLayout
from repro.runtime.transport import publish_unit, release_unit
from repro.serving import (
    PoolDispatcher,
    ServingServer,
    SessionMux,
    merged_outcomes,
    partition_reads,
    run_session,
    serve_and_drive,
)
from repro.serving import protocol
from repro.serving.cli import build_parser

TINY_PROFILE = small_profile(ECOLI_LIKE, max_read_length=2_500)
TINY_SCALE = 0.0004
TINY_SEED = 13


def _no_leaked_segments() -> bool:
    if active_segments():
        return False
    if os.path.isdir("/dev/shm"):
        return not glob.glob("/dev/shm/genpip-*")
    return True


def _payload_nbytes(reads) -> int:
    """Array bytes of a batch, counted per read type: f64 base starts
    and f32 samples of a signal read, f64 qualities and u8 codes of a
    base-space one."""
    return sum(
        8 * read.signal.n_bases + 4 * read.signal.samples.size
        if isinstance(read, SignalRead)
        else 9 * len(read)
        for read in reads
    )


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(TINY_PROFILE, scale=TINY_SCALE, seed=TINY_SEED)


@pytest.fixture(scope="module")
def tiny_system(tiny_dataset):
    return GenPIPPipeline(
        MinimizerIndex.build(tiny_dataset.reference), GenPIPConfig(), align=False
    )


@pytest.fixture(scope="module")
def serial_records(tiny_system, tiny_dataset):
    """The canonical batch serialisation every serving run must match."""
    report = tiny_system.run(tiny_dataset)
    return [outcome_to_record(outcome) for outcome in report.outcomes]


# --- latency histogram ------------------------------------------------------


class TestLatencyHistogram:
    def test_empty_percentiles_are_zero(self):
        hist = Histogram()
        assert hist.count == 0
        assert hist.percentile(0.50) == hist.percentile(0.99) == 0.0

    def test_percentiles_are_conservative_upper_edges(self):
        hist = Histogram()
        for value in (0.001, 0.002, 0.004, 0.100):
            hist.observe(value)
        # Every recorded value is <= the covering bucket's upper edge.
        p50, p95, p99 = (hist.percentile(q) for q in (0.50, 0.95, 0.99))
        assert p50 >= 0.002
        assert p99 >= 0.100
        assert p50 <= p95 <= p99

    def test_out_of_range_values_clamp_to_edge_buckets(self):
        hist = Histogram(lo=1e-3, hi=1.0, n_buckets=8)
        hist.observe(0.0)  # below lo -> first bucket
        hist.observe(50.0)  # above hi -> last bucket
        assert hist.count == 2
        assert hist.counts[0] == 1 and hist.counts[-1] == 1

    def test_merge_sums_counts_elementwise(self):
        a, b = Histogram(), Histogram()
        a.observe(0.01)
        b.observe(0.01)
        b.observe(0.5)
        merged = a.merge(b)
        assert merged is a
        assert a.count == 3

    def test_merge_rejects_mismatched_layouts(self):
        with pytest.raises(ValueError, match="layout"):
            Histogram().merge(Histogram(n_buckets=16))

    def test_dict_round_trip(self):
        hist = Histogram()
        hist.observe(0.003)
        hist.observe(0.3)
        clone = Histogram.from_dict(json.loads(json.dumps(hist.to_dict())))
        assert clone.to_dict() == hist.to_dict()
        assert clone.percentiles_ms() == hist.percentiles_ms()

    def test_percentiles_ms_keys(self):
        keys = set(Histogram().percentiles_ms())
        assert keys == {"p50_ms", "p95_ms", "p99_ms"}


# --- wire protocol ----------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        frame = protocol.hello_frame("bench")
        assert protocol.decode_frame(protocol.encode_frame(frame)) == frame

    def test_encode_rejects_unknown_type(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.encode_frame({"type": "telemetry"})

    def test_decode_rejects_invalid_json(self):
        with pytest.raises(protocol.ProtocolError, match="not valid JSON"):
            protocol.decode_frame(b"{nope\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(protocol.ProtocolError, match="JSON object"):
            protocol.decode_frame(b"[1, 2]\n")

    def test_decode_enforces_expected_direction(self):
        verdict = protocol.verdict_frame(0, accept=True, latency_ms=1.0, outcome={})
        with pytest.raises(protocol.ProtocolError, match="unexpected frame type"):
            protocol.decode_frame(
                protocol.encode_frame(verdict), expect=protocol.CLIENT_FRAMES
            )

    def test_check_hello_rejects_wrong_version(self):
        with pytest.raises(protocol.ProtocolError, match="version"):
            protocol.check_hello({"type": "hello", "protocol": 999})

    def test_check_hello_returns_session_name(self):
        assert protocol.check_hello(protocol.hello_frame("abc")) == "abc"
        assert protocol.check_hello(protocol.hello_frame()) is None

    def test_base_read_record_round_trip(self, tiny_dataset):
        read = tiny_dataset.reads[0]
        clone = _through_the_wire(read)
        _assert_same_read(clone, read)
        assert clone.read_class == read.read_class
        assert clone.seed == read.seed

    def test_signal_read_record_round_trip(self):
        signal = RawSignal(
            samples=np.asarray([0.25, -1.5, 3.125], dtype=np.float32),
            base_starts=np.asarray([0, 1], dtype=np.int64),
        )
        read = SignalRead(read_id="sig-1", signal=signal, declared_bases=2)
        clone = _through_the_wire(read)
        _assert_same_read(clone, read)
        assert clone.signal.samples.dtype == np.float32

    def test_read_frame_size_is_the_payload_plus_a_small_header(self, tiny_dataset):
        """The regression guard is a byte count, not a clock: a frame is
        the columnar payload plus a header of a few hundred bytes."""
        read = max(tiny_dataset.reads, key=len)
        assert len(protocol.encode_frame(protocol.read_frame(0, read))) <= 9 * len(read) + 512
        rng = np.random.default_rng(5)
        signal = RawSignal(
            samples=rng.normal(size=4_000).astype(np.float32),
            base_starts=np.arange(0, 4_000, 10, dtype=np.int64),
        )
        frame = protocol.encode_frame(protocol.read_frame(0, SignalRead("sig-2", signal)))
        assert len(frame) <= 8 * 400 + 4 * 4_000 + 512

    def test_no_per_element_python_objects_in_the_protocol_module(self):
        """protocol.py never walks a read's arrays: no comprehension or
        loop over them, no ``tolist``, and no numpy import to rebuild
        them with -- arrays cross it as packed bytes and views only."""
        tree = ast.parse(Path(protocol.__file__).read_text())
        arrays = {"true_codes", "qualities", "samples", "base_starts", "codes", "payload"}
        loops = [
            node.iter
            for node in ast.walk(tree)
            if isinstance(node, (ast.comprehension, ast.For, ast.AsyncFor))
        ]
        offenders = [
            ast.unparse(loop)
            for loop in loops
            for node in ast.walk(loop)
            if (isinstance(node, ast.Attribute) and node.attr in arrays)
            or (isinstance(node, ast.Name) and node.id in arrays)
        ]
        assert offenders == []
        names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
        assert not names & {"tolist", "asarray"}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert "numpy" not in {
            name.split(".")[0]
            for node in imports
            for name in ([node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names])
        }

    def test_header_only_read_frame_decodes_without_payload(self, tiny_dataset):
        """What :func:`receive_frame` relies on: the header line alone
        passes every check; the payload is attached afterwards."""
        data = protocol.encode_frame(protocol.read_frame(4, tiny_dataset.reads[0]))
        header, payload = _split_read_frame(data)
        frame = protocol.decode_frame(header, expect=protocol.CLIENT_FRAMES)
        assert frame["nbytes"] == len(payload) and "payload" not in frame["read"]
        with pytest.raises(protocol.ProtocolError, match="payload"):
            protocol.read_from_record(frame["read"])

    def test_decode_rejects_bytes_trailing_a_control_frame(self):
        with pytest.raises(protocol.ProtocolError, match="trail"):
            protocol.decode_frame(protocol.encode_frame(protocol.end_frame()) + b"x")

    def test_decode_requires_a_terminated_line(self):
        with pytest.raises(protocol.ProtocolError, match="newline"):
            protocol.decode_frame(b'{"type":"end"}')


def _split_read_frame(data: bytes) -> tuple[bytes, bytes]:
    """(header line incl. newline, payload) of one encoded read frame."""
    end = data.index(b"\n") + 1
    return data[:end], data[end:]


def _edit_read_header(data: bytes, edit) -> bytes:
    """Re-encode a read frame after ``edit(header_dict)`` mutated its header."""
    header, payload = _split_read_frame(data)
    frame = json.loads(header)
    edit(frame)
    return json.dumps(frame).encode() + b"\n" + payload


def _through_the_wire(read, seq: int = 0):
    frame = protocol.decode_frame(protocol.encode_frame(protocol.read_frame(seq, read)))
    assert frame["seq"] == seq
    return protocol.read_from_record(frame["read"])


def _assert_same_read(back, original) -> None:
    """Equal field for field and array for array, dtypes included, and
    every array of ``back`` a read-only view (nothing was copied)."""
    assert type(back) is type(original)
    assert back.read_id == original.read_id and len(back) == len(original)
    if isinstance(original, SignalRead):
        pairs = [
            (back.signal.samples, original.signal.samples),
            (back.signal.base_starts, original.signal.base_starts),
        ]
    else:
        for name in ("read_class", "strand", "ref_start", "ref_end", "seed"):
            assert getattr(back, name) == getattr(original, name)
        pairs = [(back.true_codes, original.true_codes), (back.qualities, original.qualities)]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert got.flags.writeable is False and got.base is not None


# --- hypothesis: the frame over generated reads ------------------------------


@st.composite
def base_reads(draw):
    n = draw(st.integers(min_value=0, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    junk = draw(st.booleans())
    start = None if junk else draw(st.integers(min_value=0, max_value=2**40))
    return SimulatedRead(
        read_id=draw(st.text(max_size=12)),
        read_class=ReadClass.JUNK if junk else draw(st.sampled_from(list(ReadClass))),
        strand=draw(st.sampled_from((1, -1))),
        ref_start=start,
        ref_end=None if junk else start + n,
        true_codes=rng.integers(0, 4, size=n).astype(np.uint8),
        qualities=np.abs(rng.normal(12.0, 4.0, size=n)),  # a negative one is refused
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@st.composite
def signal_reads(draw):
    n_starts = draw(st.integers(min_value=0, max_value=60))
    n_samples = draw(st.integers(min_value=0, max_value=500))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    signal = RawSignal(
        samples=rng.normal(90.0, 12.0, size=n_samples).astype(np.float32),
        base_starts=np.sort(rng.integers(0, n_samples + 1, size=n_starts)).astype(np.int64),
    )
    return SignalRead(
        read_id=draw(st.text(max_size=12)),
        signal=signal,
        declared_bases=n_starts + draw(st.integers(min_value=0, max_value=4)),
    )


any_read = st.one_of(base_reads(), signal_reads())


#: The read metadata a reader checks, found by reflection: every wire
#: field of a base-space read record but its id, its class and its count.
METADATA_FIELDS = sorted(set(protocol._RECORD_FIELDS["read"]) - {"read_id", "read_class", "n_bases"})

#: Each metadata field's corrupt values, and where a read store's record
#: holds the field: its ``struct`` format and its offset past the class
#: byte. The store's seed is unsigned, so it never carries a negative one.
CORRUPT_METADATA = {
    "strand": (st.integers(-128, 127).filter(lambda value: value not in (1, -1)), "<b", 1),
    "ref_start": (st.integers(-(2**63), -1), "<q", 3),
    "ref_end": (st.integers(-(2**63), -1), "<q", 11),
    "seed": (st.integers(-(2**70), -1), "<Q", 19),
}


class TestReadMetadataDoors:
    """A read enters from outside the process through two doors, a read
    store and a served record; both refuse the same corrupt metadata
    with the same message (``check_read_metadata``'s)."""

    def test_every_metadata_field_has_its_corruptions(self):
        assert METADATA_FIELDS and sorted(CORRUPT_METADATA) == METADATA_FIELDS

    @given(field=st.sampled_from(sorted(CORRUPT_METADATA)), data=st.data())
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_both_doors_refuse_corrupt_metadata_alike(self, field, data, tiny_dataset, tmp_path):
        values, layout, offset = CORRUPT_METADATA[field]
        value = data.draw(values)
        read = next(read for read in tiny_dataset.reads if read.ref_start is not None)
        metadata = {name: getattr(read, name) for name in METADATA_FIELDS} | {field: value}
        with pytest.raises(ValueError) as checked:
            check_read_metadata(**metadata)
        message = str(checked.value)

        record = protocol.read_to_record(read)
        record[field] = value
        with pytest.raises(protocol.ProtocolError) as served:
            protocol.read_from_record(record)
        assert str(served.value).endswith(f"{read.read_id!r}: {message}")

        path = tmp_path / "read.gprd"
        write_read_store(path, [read])
        stored = bytearray(path.read_bytes())
        try:
            struct.pack_into(layout, stored, 10 + 2 + len(read.read_id.encode()) + offset, value)
        except struct.error:
            assert field == "seed"  # the store cannot hold it
            return
        path.write_bytes(bytes(stored))
        with pytest.raises(ValueError) as from_store:
            list(iter_read_store(path))
        assert str(from_store.value).endswith(f"{read.read_id!r}): {message}")

    def test_both_doors_take_a_read_as_it_was_written(self, tiny_dataset, tmp_path):
        path = tmp_path / "reads.gprd"
        write_read_store(path, tiny_dataset.reads)
        for read, stored in zip(tiny_dataset.reads, iter_read_store(path), strict=True):
            served = protocol.read_from_record(protocol.read_to_record(read))
            for name in METADATA_FIELDS:
                assert getattr(stored, name) == getattr(served, name) == getattr(read, name)


class TestReadFrameProperties:
    @settings(max_examples=120, deadline=None)
    @given(read=any_read, seq=st.integers(min_value=-(2**40), max_value=2**40))
    def test_round_trip_is_exact_and_zero_copy(self, read, seq):
        _assert_same_read(_through_the_wire(read, seq), read)

    @settings(max_examples=40, deadline=None)
    @given(read=any_read)
    def test_payload_is_the_published_segment_image(self, read):
        """One layout from socket to kernel: the frame's payload is,
        byte for byte, what ``publish_unit`` writes into the shared
        segment of the one-read unit -- and sized as the layout plans."""
        _, payload = _split_read_frame(protocol.encode_frame(protocol.read_frame(0, read)))
        assert len(payload) == ColumnarLayout.plan([read]).total_bytes == _payload_nbytes([read])
        shared = publish_unit(WorkUnit(shard_id=0, start=0, reads=(read,)))
        try:
            image = Path("/dev/shm", shared.segment).read_bytes()
        finally:
            release_unit(shared.segment)
        assert image[: len(payload)] == payload

    @settings(max_examples=25, deadline=None)
    @given(read=any_read)
    def test_truncation_at_any_offset_is_a_protocol_error(self, read):
        data = protocol.encode_frame(protocol.read_frame(1, read))

        async def receive(prefix: bytes):
            reader = asyncio.StreamReader(limit=protocol.LINE_LIMIT)
            reader.feed_data(prefix)
            reader.feed_eof()
            return await protocol.receive_frame(reader, expect=protocol.CLIENT_FRAMES)

        async def every_prefix():
            assert await receive(b"") is None  # EOF between frames is clean
            for cut in range(1, len(data)):
                with pytest.raises((protocol.ProtocolError, asyncio.IncompleteReadError)):
                    await receive(data[:cut])
            _assert_same_read(protocol.read_from_record((await receive(data))["read"]), read)

        for cut in range(len(data)):
            with pytest.raises(protocol.ProtocolError):
                protocol.read_from_record(protocol.decode_frame(data[:cut])["read"])
        asyncio.run(every_prefix())


# --- session bookkeeping ----------------------------------------------------


class TestSessionMux:
    def test_ids_and_peak_concurrency(self):
        mux = SessionMux()
        a, b = mux.open("a"), mux.open("b")
        assert (a.session_id, b.session_id) == ("s1", "s2")
        peak = mux.registry.get("genpip_serving_peak_sessions")
        assert peak.value == mux.live_sessions == 2
        mux.close(a)
        assert mux.live_sessions == 1 and peak.value == 2
        assert mux.registry.get("genpip_serving_sessions").value() == 1

    def test_duplicate_inflight_seq_rejected(self):
        session = SessionMux().open()
        session.submit(7)
        with pytest.raises(ValueError, match="duplicate"):
            session.submit(7)

    def test_close_is_idempotent(self):
        mux = SessionMux()
        session = mux.open()
        mux.submit(session, 0)
        mux.close(session)
        mux.close(session)
        assert mux.registry.get("genpip_serving_sessions").value() == 1
        assert mux.registry.get("genpip_serving_reads").value() == 1

    def test_instruments_update_live_before_close(self):
        """Reads count at submit time -- a mid-session stats probe must
        see in-flight work, not wait for the session to retire."""
        mux = SessionMux()
        session = mux.open()
        mux.submit(session, 0)
        mux.submit(session, 1)
        assert mux.registry.get("genpip_serving_reads").value() == 2
        assert mux.registry.get("genpip_serving_sessions").value() == 0  # still open


# --- partitioning / reassembly ----------------------------------------------


def test_partition_round_robin_preserves_dataset_indices():
    parts = partition_reads(["r0", "r1", "r2", "r3", "r4"], 2)
    assert parts == [[(0, "r0"), (2, "r2"), (4, "r4")], [(1, "r1"), (3, "r3")]]


def test_partition_rejects_zero_sessions():
    with pytest.raises(ValueError):
        partition_reads(["r0"], 0)


# --- end-to-end: concurrent sessions == serial batch ------------------------


def test_concurrent_sessions_match_serial_batch(
    tiny_system, tiny_dataset, serial_records, monkeypatch
):
    """Three concurrent sessions over the warm pool reproduce the batch
    records byte-for-byte, with exactly one index publication, and the
    serving process is one thread throughout: the event loop reads the
    worker pipes itself."""
    thread_counts = []
    real_process = PoolDispatcher.process

    async def probed(self, read):
        thread_counts.append(threading.active_count())
        verdict = await real_process(self, read)
        thread_counts.append(threading.active_count())
        return verdict

    monkeypatch.setattr(PoolDispatcher, "process", probed)
    results, stats = serve_and_drive(
        tiny_system, tiny_dataset.reads, sessions=3, workers=2
    )
    assert len(thread_counts) == 2 * len(tiny_dataset.reads)
    assert set(thread_counts) == {1}
    assert merged_outcomes(results) == serial_records
    assert stats.mode == "process-pool"
    assert stats.transport == "shm"
    assert stats.index_publications == 1
    assert stats.sessions == 3 and stats.peak_sessions == 3
    assert stats.verdicts == len(tiny_dataset.reads)
    assert stats.p99_ms >= stats.p50_ms > 0
    assert stats.latency.count == stats.verdicts
    assert _no_leaked_segments()


def test_inline_serving_matches_serial_batch(tiny_system, tiny_dataset, serial_records):
    """workers=1 serves inline (no pool, no index publication) with the
    identical verdict stream."""
    results, stats = serve_and_drive(
        tiny_system, tiny_dataset.reads, sessions=2, workers=1
    )
    assert merged_outcomes(results) == serial_records
    assert stats.mode == "inline"
    assert stats.transport == "none"
    assert stats.index_publications == 0
    assert _no_leaked_segments()


def test_signal_native_sessions_match_serial_batch(tiny_dataset):
    """The invariant holds for raw-current reads too: their samples and
    base-start tracks cross the wire as columnar bytes, pooled (one
    memcpy into the segment) and inline (views over the received bytes)
    alike."""
    backend = ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3))
    system = GenPIPPipeline(
        MinimizerIndex.build(tiny_dataset.reference), GenPIPConfig(), basecaller=backend, align=False
    )
    reads = [
        SignalRead(read_id=read.read_id, signal=backend.synthesize_signal(read))
        for read in sorted(tiny_dataset.reads, key=len)[:4]
    ]
    report = DatasetEngine(system, workers=1).run(reads)
    serial = [outcome_to_record(outcome) for outcome in report.outcomes]
    for workers, mode in ((2, "process-pool"), (1, "inline")):
        results, stats = serve_and_drive(system, reads, sessions=2, workers=workers)
        assert stats.mode == mode
        assert merged_outcomes(results) == serial
    assert _no_leaked_segments()


def test_sequential_sessions_share_one_index_publication(tiny_system, tiny_dataset):
    """The index segment is published at start and survives across
    sessions: session two and three add zero publications and zero new
    segments (the active_segments probe)."""
    reads = tiny_dataset.reads[:6]
    dispatcher = PoolDispatcher(tiny_system, workers=2)
    with dispatcher:
        assert dispatcher.index_publications == 1
        index_segments = active_segments()
        assert len(index_segments) == 1

        async def _three_sessions():
            async with ServingServer(dispatcher) as server:
                outcomes = []
                for _ in range(3):
                    result = await run_session(
                        "127.0.0.1", server.port, list(enumerate(reads))
                    )
                    outcomes.append([o for _, o in result.outcomes_by_seq()])
                return outcomes, server.stats()

        outcomes, stats = asyncio.run(_three_sessions())
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert dispatcher.index_publications == 1
        # Warm across sessions: still exactly the one index segment.
        assert active_segments() == index_segments
        assert stats.sessions == 3
    assert _no_leaked_segments()


def test_summary_frame_carries_totals_and_latency(tiny_system, tiny_dataset):
    results, _ = serve_and_drive(
        tiny_system, tiny_dataset.reads[:5], sessions=1, workers=1
    )
    summary = results[0].summary
    assert summary["type"] == "summary"
    assert summary["totals"]["verdicts"] == 5
    assert summary["totals"]["accepted"] + summary["totals"]["rejected"] == 5
    assert summary["latency"]["count"] == 5
    assert summary["latency"]["p50_ms"] > 0
    assert summary["server"]["index_publications"] == 0
    assert summary["server"]["verdicts"] == 5


def test_stats_frame_carries_percentiles_and_exposition(tiny_system, tiny_dataset):
    """A ``stats`` request mid-session answers with the live server
    telemetry: a summary block with latency percentiles plus the full
    Prometheus exposition of the serving registry."""
    reads = tiny_dataset.reads[:5]
    dispatcher = PoolDispatcher(tiny_system, workers=1)
    with dispatcher:

        async def _session():
            async with ServingServer(dispatcher) as server:
                return await run_session(
                    "127.0.0.1", server.port, list(enumerate(reads)),
                    collect_stats=True,
                )

        result = asyncio.run(_session())
    assert len(result.verdicts) == len(reads)
    frame = result.stats
    assert frame["type"] == "stats"
    server_block = frame["server"]
    # All verdicts landed before the stats request, so the latency
    # percentiles are live non-zero numbers.
    assert server_block["verdicts"] == len(reads)
    assert server_block["p99_ms"] >= server_block["p95_ms"] >= server_block["p50_ms"] > 0
    exposition = frame["exposition"]
    assert "# TYPE genpip_serving_reads counter" in exposition
    assert 'genpip_serving_reads_total{key=""}' in exposition
    assert 'genpip_serving_latency_seconds{quantile="0.5"}' in exposition
    assert 'genpip_serving_latency_seconds{quantile="0.95"}' in exposition
    assert 'genpip_serving_latency_seconds{quantile="0.99"}' in exposition
    assert _no_leaked_segments()


def test_traced_dispatch_keeps_verdicts_identical(tiny_system, tiny_dataset, serial_records):
    """Serving with tracing on returns the same verdict stream and drains
    one dispatch trace (plus the worker-side read trace) per read."""
    reads = tiny_dataset.reads[:6]
    dispatcher = PoolDispatcher(tiny_system, workers=2, trace=True)
    with dispatcher:

        async def _session():
            async with ServingServer(dispatcher) as server:
                return await run_session(
                    "127.0.0.1", server.port, list(enumerate(reads))
                )

        result = asyncio.run(_session())
        traces = dispatcher.drain_traces()
    outcomes = [o for _, o in result.outcomes_by_seq()]
    assert outcomes == serial_records[: len(reads)]
    kinds = {}
    for trace in traces:
        kinds[trace.kind] = kinds.get(trace.kind, 0) + 1
    assert kinds["dispatch"] == len(reads)
    assert kinds["read"] == len(reads)
    labels = {t.label for t in traces if t.kind == "read"}
    assert labels == {read.read_id for read in reads}
    assert _no_leaked_segments()


def test_traced_inline_serving_has_the_pooled_span_shape(tiny_system, tiny_dataset):
    """Inline reads run through the same ``run_unit`` as pooled ones, so
    a traced ``workers=1`` server drains one ``unit``, one ``read`` and
    one ``dispatch`` trace per read, shaped like the ``workers=2`` run's."""
    reads = tiny_dataset.reads[:5]

    def _traced(workers: int) -> dict[str, list]:
        async def _serve(dispatcher):
            return [(await dispatcher.process(read))[0] for read in reads]

        with PoolDispatcher(tiny_system, workers=workers, trace=True) as dispatcher:
            asyncio.run(_serve(dispatcher))
            traces = dispatcher.drain_traces()
        by_kind: dict[str, list] = {"unit": [], "read": [], "dispatch": []}
        for trace in traces:
            by_kind[trace.kind].append(trace)
        return by_kind

    inline, pooled = _traced(1), _traced(2)
    for kind in ("unit", "read", "dispatch"):
        assert len(inline[kind]) == len(pooled[kind]) == len(reads), kind
        assert [t.structure() for t in inline[kind]] == [t.structure() for t in pooled[kind]]
    assert [t.label for t in inline["read"]] == [read.read_id for read in reads]
    assert _no_leaked_segments()


def test_verdict_frames_echo_seq_and_accept(tiny_system, tiny_dataset):
    reads = tiny_dataset.reads[:4]
    results, _ = serve_and_drive(tiny_system, reads, sessions=1, workers=1)
    verdicts = results[0].verdicts
    assert sorted(verdicts) == [0, 1, 2, 3]
    for seq, frame in verdicts.items():
        assert frame["accept"] == (
            frame["outcome"]["status"] not in ("rejected_signal", "rejected_qsr", "rejected_cmr")
        )
        assert frame["latency_ms"] > 0
        assert frame["seq"] == seq


def test_server_rejects_bad_hello(tiny_system):
    dispatcher = PoolDispatcher(tiny_system, workers=1)

    async def _bad_hello():
        async with ServingServer(dispatcher) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(protocol.encode_frame({"type": "hello", "protocol": version}))
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return protocol.decode_frame(line)

    with dispatcher:
        for version in (1, 999):  # v1 is refused like any other foreign version
            frame = asyncio.run(_bad_hello())
            assert frame["type"] == "error"
            assert "version" in frame["message"]


def test_server_rejects_read_before_hello(tiny_system, tiny_dataset):
    dispatcher = PoolDispatcher(tiny_system, workers=1)

    async def _read_first():
        async with ServingServer(dispatcher) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(
                protocol.encode_frame(protocol.read_frame(0, tiny_dataset.reads[0]))
            )
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return protocol.decode_frame(line)

    with dispatcher:
        frame = asyncio.run(_read_first())
    assert frame["type"] == "error"


# --- the unhappy path: one `error` frame, nothing leaked, server still up ------


def _abuse_session(system, reads, offending: bytes, *, then_eof: bool = False):
    """A session that keeps read 0 in flight (its dispatch is stalled),
    then sends ``offending`` bytes; afterwards a well-behaved session on
    the same server. Returns everything the tests assert on."""
    dispatcher = PoolDispatcher(system, workers=1)
    problems: list[dict] = []

    async def stall(read):
        await asyncio.Event().wait()

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, context: problems.append(context))
        async with ServingServer(dispatcher) as server:
            dispatcher.process = stall
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(protocol.encode_frame(protocol.hello_frame("abuser")))
            writer.write(protocol.encode_frame(protocol.read_frame(0, reads[0])))
            writer.write(offending)
            if then_eof:
                writer.write_eof()
            await writer.drain()
            frames = []
            while line := await asyncio.wait_for(reader.readline(), 10):
                frames.append(protocol.decode_frame(line))
            writer.close()
            await writer.wait_closed()
            live_sessions = server.stats().live_sessions
            stray = [
                task
                for task in asyncio.all_tasks()
                if task.get_coro().__qualname__ == "ServingServer._run_read"
            ]
            del dispatcher.process
            fresh = await run_session("127.0.0.1", server.port, list(enumerate(reads)))
            gc.collect()  # a task that died unobserved reports when collected
            await asyncio.sleep(0)
            return frames, live_sessions, stray, active_segments(), fresh

    with dispatcher:
        frames, live_sessions, stray, segments, fresh = asyncio.run(scenario())
    assert frames[0]["type"] == "welcome"
    assert live_sessions == 0 and segments == ()
    # The stalled read did not outlive its connection.
    assert stray == []
    # Nothing reached the loop: no "Unhandled exception in
    # client_connected_cb", no "Task exception was never retrieved".
    assert problems == []
    assert sorted(fresh.verdicts) == list(range(len(reads)))
    assert _no_leaked_segments()
    return frames[1:]


BAD_READ_HEADERS = {
    "duplicate-seq": (lambda f: f.update(seq=0), "duplicate in-flight seq 0"),
    "missing-field": (lambda f: f["read"].pop("read_id"), "'read_id' must be present"),
    "wrong-typed-field": (lambda f: f["read"].update(seed="12x"), "'seed' must be present and int"),
    "bool-for-int": (lambda f: f["read"].update(strand=True), "'strand' must be present and int"),
    "unknown-read-class": (lambda f: f["read"].update(read_class="chimera"), "read_class"),
    "unknown-kind": (lambda f: f["read"].update(kind="fast5"), "record kind"),
    "negative-count": (lambda f: f["read"].update(n_bases=-1), "counts must be >= 0"),
    "nbytes-not-implied": (lambda f: f.update(nbytes=f["nbytes"] - 1), "implied by its counts"),
    "string-seq": (lambda f: f.update(seq="1"), "int seq"),
    "record-not-an-object": (lambda f: f.update(read=[1, 2]), "must be a JSON object"),
}


@pytest.mark.parametrize("case", BAD_READ_HEADERS)
def test_bad_read_header_gets_one_error_frame(tiny_system, tiny_dataset, case):
    """Every header violation -- the three that used to escape the
    handler as ValueError/KeyError included -- is answered with exactly
    one ``error`` frame, then EOF; see :func:`_abuse_session` for the
    rest of what is asserted."""
    reads = tiny_dataset.reads[:3]
    edit, message = BAD_READ_HEADERS[case]
    offending = _edit_read_header(
        protocol.encode_frame(protocol.read_frame(1, reads[1])), edit
    )
    (answer,) = _abuse_session(tiny_system, reads, offending)
    assert answer["type"] == "error" and message in answer["message"]


def test_signal_record_below_its_modelled_positions_is_refused():
    signal = RawSignal(samples=np.zeros(8, dtype=np.float32), base_starts=np.arange(4))
    data = protocol.encode_frame(protocol.read_frame(0, SignalRead("sig", signal)))
    with pytest.raises(protocol.ProtocolError, match="declared_bases"):
        protocol.decode_frame(_edit_read_header(data, lambda f: f["read"].update(declared_bases=3)))


def test_oversized_nbytes_is_refused_before_any_payload(tiny_system, tiny_dataset):
    """Only the header is sent: the answer arriving at all shows the
    server did not sit in ``readexactly`` for a hostile ``nbytes``."""
    reads = tiny_dataset.reads[:3]
    header, _ = _split_read_frame(
        _edit_read_header(
            protocol.encode_frame(protocol.read_frame(1, reads[1])),
            lambda f: f.update(nbytes=protocol.MAX_READ_BYTES + 1),
        )
    )
    (answer,) = _abuse_session(tiny_system, reads, header)
    assert answer["type"] == "error" and str(protocol.MAX_READ_BYTES) in answer["message"]


def test_overlong_line_gets_an_error_frame(tiny_system, tiny_dataset):
    offending = b'{"type":"stats","pad":"' + b"x" * (2 * protocol.LINE_LIMIT) + b'"}\n'
    (answer,) = _abuse_session(tiny_system, tiny_dataset.reads[:3], offending)
    assert answer["type"] == "error" and "limit" in answer["message"]


def test_half_a_payload_then_close_leaves_nothing_behind(tiny_system, tiny_dataset):
    """A peer that vanishes mid-payload has nobody to answer to: no
    ``error`` frame, but the session is closed, the in-flight read
    reaped, and the server keeps serving."""
    reads = tiny_dataset.reads[:3]
    data = protocol.encode_frame(protocol.read_frame(1, reads[1]))
    assert _abuse_session(tiny_system, reads, data[: len(data) // 2], then_eof=True) == []


def _refused_session(system, reads, workers: int, failing_seq: int):
    """Serve ``reads`` on ``system``, one of which the server cannot
    answer with a verdict. The client must hear about it inside the
    timeout -- at the parent commit it waited forever -- as exactly one
    ``error`` frame and then EOF. Returns that frame's message."""
    dispatcher = PoolDispatcher(system, workers=workers)
    problems: list[dict] = []

    async def scenario():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, context: problems.append(context))
        async with ServingServer(dispatcher) as server:
            with pytest.raises(protocol.ProtocolError, match="server error") as caught:
                await asyncio.wait_for(
                    run_session("127.0.0.1", server.port, list(enumerate(reads))), 60
                )
            # The same session by hand: every frame the server sends.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port, limit=protocol.MAX_READ_BYTES
            )
            writer.write(protocol.encode_frame(protocol.hello_frame("by-hand")))
            for seq, read in enumerate(reads):
                writer.write(protocol.encode_frame(protocol.read_frame(seq, read)))
            await writer.drain()
            frames = []
            while line := await asyncio.wait_for(reader.readline(), 60):
                frames.append(protocol.decode_frame(line))
            writer.close()
            await writer.wait_closed()
            live_sessions = server.stats().live_sessions
            gc.collect()  # a task that died unobserved reports when collected
            await asyncio.sleep(0)
            return str(caught.value), frames, live_sessions

    with recorded_submits() as futures, dispatcher:
        heard, frames, live_sessions = asyncio.run(scenario())
        assert all(future.done() for future in futures)
    assert [frame["type"] for frame in frames if frame["type"] != "verdict"] == ["welcome", "error"]
    assert frames[-1]["type"] == "error"  # nothing follows it on the wire
    assert failing_seq not in {f["seq"] for f in frames if f["type"] == "verdict"}
    assert frames[-1]["message"] in heard
    assert live_sessions == 0
    assert problems == []  # no "Task exception was never retrieved"
    assert active_segments() == ()
    assert _no_leaked_segments()
    return frames[-1]["message"]


@pytest.mark.parametrize("workers", [1, 2])
def test_read_that_raises_gets_one_error_frame(tiny_dataset, workers):
    """A read whose processing raises is the session's end, said once:
    the ``error`` frame names the ``seq`` and carries the exception's
    message, then the connection closes."""
    reads = tiny_dataset.reads[:4]
    system = GenPIPPipeline(
        MinimizerIndex.build(tiny_dataset.reference),
        GenPIPConfig(),
        basecaller=FailingBasecaller(reads[2].read_id),
        align=False,
    )
    message = _refused_session(system, reads, workers, failing_seq=2)
    assert "seq 2" in message
    assert f"injected failure on {reads[2].read_id}" in message


@pytest.mark.parametrize("workers", [1, 2])
def test_signal_read_to_a_base_space_pipeline_is_refused(tiny_system, tiny_dataset, workers):
    """The surrogate cannot decode raw current: the record is a protocol
    violation, refused before anything is dispatched."""
    signal = RawSignal(samples=np.zeros(64, dtype=np.float32), base_starts=np.arange(0, 64, 4))
    reads = [tiny_dataset.reads[0], SignalRead("sig", signal)]
    message = _refused_session(tiny_system, reads, workers, failing_seq=1)
    assert "signal read" in message and "base-space" in message


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_signal_read_is_refused_before_dispatch(tiny_dataset, workers):
    """A client that sends NaN current (nothing on the sending side
    checks the bytes) gets one ``error`` frame naming the read, before
    the read reaches a decoder that would have called bases from it."""
    backend = ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3))
    system = GenPIPPipeline(
        MinimizerIndex.build(tiny_dataset.reference), GenPIPConfig(), basecaller=backend, align=False
    )
    good, bad = (
        SignalRead(read_id=read.read_id, signal=backend.synthesize_signal(read))
        for read in sorted(tiny_dataset.reads, key=len)[:2]
    )
    bad.signal.samples[10:20] = np.nan  # after the signal's own check
    message = _refused_session(system, [good, bad], workers, failing_seq=1)
    assert bad.read_id in message and "non-finite" in message


@pytest.mark.parametrize("workers", [1, 2])
def test_base_starts_past_the_samples_are_refused_before_dispatch(tiny_dataset, workers):
    """A frame whose base-start track decreases and points past the
    samples gets one ``error`` frame naming the read, not a verdict
    decoded from overlapping and out-of-range per-base slices."""
    backend = ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3))
    system = GenPIPPipeline(
        MinimizerIndex.build(tiny_dataset.reference), GenPIPConfig(), basecaller=backend, align=False
    )
    good, bad = (
        SignalRead(read_id=read.read_id, signal=backend.synthesize_signal(read))
        for read in sorted(tiny_dataset.reads, key=len)[:2]
    )
    bad.signal.base_starts[2] = bad.n_samples + 400  # after the signal's own check
    message = _refused_session(system, [good, bad], workers, failing_seq=1)
    assert bad.read_id in message and "non-decreasing" in message


@pytest.mark.parametrize(
    "corrupt, wanted",
    [
        pytest.param(
            lambda codes, qualities, every_50th: (np.full_like(codes, 4), qualities),
            "base codes",
            id="code-4",
        ),
        pytest.param(
            lambda codes, qualities, every_50th: (
                np.where(every_50th, 255, codes).astype(np.uint8),
                qualities,
            ),
            "base codes",
            id="code-255",
        ),
        pytest.param(
            lambda codes, qualities, every_50th: (codes, np.full_like(qualities, np.nan)),
            "qualities",
            id="nan-quality",
        ),
        pytest.param(
            lambda codes, qualities, every_50th: (codes, np.where(every_50th, np.inf, qualities)),
            "qualities",
            id="inf-quality",
        ),
        pytest.param(
            lambda codes, qualities, every_50th: (codes, np.full_like(qualities, -1.0)),
            "qualities",
            id="negative-quality",
        ),
    ],
)
def test_base_codes_and_qualities_out_of_range_are_refused_before_dispatch(
    tiny_system, tiny_dataset, monkeypatch, corrupt, wanted
):
    """A base read's code above 3 (T), or a quality that is NaN, infinite
    or negative, gets one ``error`` frame naming the read and never
    reaches the dispatcher, which would have answered it with a verdict
    (or raised inside the error model on NaN)."""
    dispatched = []
    process = PoolDispatcher.process

    async def recording(self, read):
        dispatched.append(read.read_id)
        return await process(self, read)

    monkeypatch.setattr(PoolDispatcher, "process", recording)
    good, read = tiny_dataset.reads[:2]
    every_50th = np.arange(len(read)) % 50 == 0
    bad_codes, bad_qualities = corrupt(read.true_codes, read.qualities, every_50th)
    bad = dataclasses.replace(read, true_codes=bad_codes, qualities=bad_qualities)
    message = _refused_session(tiny_system, [good, bad], 1, failing_seq=1)
    assert read.read_id in message and wanted in message, message
    assert read.read_id not in dispatched


def test_dispatcher_start_is_single_shot(tiny_system):
    dispatcher = PoolDispatcher(tiny_system, workers=1)
    with dispatcher, pytest.raises(RuntimeError, match="already started"):
        dispatcher.start()


def test_worker_killed_mid_read_degrades_inline(tiny_dataset, serial_records):
    """A worker dying mid-read breaks the pool; every read still gets
    exactly one verdict equal to the serial record, the dispatcher is
    inline afterwards, and no segment (index included) is left behind."""
    system = GenPIPPipeline(
        MinimizerIndex.build(tiny_dataset.reference),
        GenPIPConfig(),
        basecaller=WorkerExitingBasecaller(os.getpid()),
        align=False,
    )
    dispatcher = PoolDispatcher(system, workers=2)
    with dispatcher:
        assert dispatcher.mode == "process-pool"

        async def _session():
            async with ServingServer(dispatcher) as server:
                return await run_session(
                    "127.0.0.1", server.port, list(enumerate(tiny_dataset.reads))
                )

        with pytest.warns(RuntimeWarning, match="process pool broke"):
            result = asyncio.run(_session())
        assert dispatcher.mode == "inline"
        # The broken pool took the index segment and every unit segment
        # with it, before stop().
        assert active_segments() == ()
    assert sorted(result.verdicts) == list(range(len(tiny_dataset.reads)))
    assert merged_outcomes([result]) == serial_records
    assert _no_leaked_segments()


def test_worker_killed_between_reads_degrades_inline(
    tiny_system, tiny_dataset, serial_records
):
    """A worker killed while idle, between two sessions' reads, breaks
    the pool the same way as one dying mid-read: one warning, every read
    exactly one verdict equal to the serial record, the dispatcher
    inline afterwards and no segment or pooled read left behind."""
    indexed = list(enumerate(tiny_dataset.reads))
    half = len(indexed) // 2
    dispatcher = PoolDispatcher(tiny_system, workers=2)
    with recorded_submits() as futures, dispatcher:
        (victim, _) = multiprocessing.active_children()

        async def _sessions():
            async with ServingServer(dispatcher) as server:
                first = await run_session("127.0.0.1", server.port, indexed[:half])
                assert dispatcher.mode == "process-pool"
                kill_worker(victim.pid)
                second = await run_session("127.0.0.1", server.port, indexed[half:])
                return [first, second]

        with pytest.warns(RuntimeWarning, match="process pool broke") as caught:
            results = asyncio.run(_sessions())
        assert len([w for w in caught if "process pool broke" in str(w.message)]) == 1
        assert dispatcher.mode == "inline"
        assert futures and all(future.done() for future in futures)
        assert active_segments() == ()
    assert sorted(seq for result in results for seq in result.verdicts) == list(
        range(len(indexed))
    )
    assert merged_outcomes(results) == serial_records
    assert _no_leaked_segments()


def test_pickle_fallback_is_reported_and_charged(
    tiny_system, tiny_dataset, serial_records, pickle_fallback
):
    """An index that cannot go into shared memory travels pickled: the
    dispatcher and the ``summary`` frame say so, and each read still
    goes down a pipe as its image, charged to the "publish" boundary
    exactly as the batch engine charges a unit's."""
    reads = tiny_dataset.reads[:5]
    before = copied_bytes("publish")
    dispatcher = PoolDispatcher(tiny_system, workers=2)
    with pytest.warns(RuntimeWarning, match="shared memory unavailable"), dispatcher:
        assert dispatcher.transport == "pickle"

        async def _session():
            async with ServingServer(dispatcher) as server:
                return await run_session("127.0.0.1", server.port, list(enumerate(reads)))

        result = asyncio.run(_session())
        assert dispatcher.mode == "process-pool"
    assert merged_outcomes([result]) == serial_records[: len(reads)]
    assert result.summary["server"]["transport"] == "pickle"
    # Packed twice in this process: the client's read frame, then the
    # pool's image of the one-read unit.
    assert copied_bytes("publish") - before == 2 * _payload_nbytes(reads)

    engine = DatasetEngine(tiny_system, workers=2, batch_size=1)
    with pytest.warns(RuntimeWarning, match="shared memory unavailable"):
        engine.run(reads)
    assert engine.last_stats.transport == "pickle"
    assert engine.last_stats.bytes_published == _payload_nbytes(reads)
    assert engine.last_stats.bytes_copied == 0
    assert _no_leaked_segments()


# --- CLI --------------------------------------------------------------------


class TestServingCLI:
    def test_serve_defaults_parse(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 0

    def test_drive_requires_endpoint(self):
        from repro.serving.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["drive", "--scale", "0.0004"])
        assert excinfo.value.code == 2

    def test_drive_rejects_bad_sessions(self):
        from repro.serving.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["drive", "--port", "1", "--sessions", "0"])
        assert excinfo.value.code == 2

    def test_serve_validates_signal_er_backend(self):
        from repro.serving.cli import main

        # The surrogate backend has no pore model -> --signal-er refused.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--signal-er", "--basecaller", "surrogate"])
        assert excinfo.value.code == 2

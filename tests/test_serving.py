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

import asyncio
import glob
import json
import os

import numpy as np
import pytest
from test_runtime_streaming import WorkerExitingBasecaller

from repro.core import GenPIP, GenPIPConfig
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.obs import Histogram, copied_bytes
from repro.runtime import DatasetEngine, active_segments, outcome_to_record
from repro.runtime.columnar import payload_nbytes
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


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(TINY_PROFILE, scale=TINY_SCALE, seed=TINY_SEED)


@pytest.fixture(scope="module")
def tiny_system(tiny_dataset):
    return GenPIP(
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
        clone = protocol.read_from_record(
            json.loads(json.dumps(protocol.read_to_record(read)))
        )
        assert clone.read_id == read.read_id
        assert clone.read_class == read.read_class
        assert clone.seed == read.seed
        assert np.array_equal(clone.true_codes, read.true_codes)
        assert np.array_equal(clone.qualities, read.qualities)

    def test_signal_read_record_round_trip(self):
        from repro.nanopore.signal import RawSignal
        from repro.nanopore.signal_read import SignalRead

        signal = RawSignal(
            samples=np.asarray([0.25, -1.5, 3.125], dtype=np.float32),
            base_starts=np.asarray([0, 1], dtype=np.int64),
        )
        read = SignalRead(read_id="sig-1", signal=signal, declared_bases=2)
        clone = protocol.read_from_record(
            json.loads(json.dumps(protocol.read_to_record(read)))
        )
        assert clone.read_id == read.read_id
        assert clone.signal.samples.dtype == np.float32
        assert np.array_equal(clone.signal.samples, read.signal.samples)
        assert np.array_equal(clone.signal.base_starts, read.signal.base_starts)


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


def test_concurrent_sessions_match_serial_batch(tiny_system, tiny_dataset, serial_records):
    """Three concurrent sessions over the warm pool reproduce the batch
    records byte-for-byte, with exactly one index publication."""
    results, stats = serve_and_drive(
        tiny_system.pipeline, tiny_dataset.reads, sessions=3, workers=2
    )
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
        tiny_system.pipeline, tiny_dataset.reads, sessions=2, workers=1
    )
    assert merged_outcomes(results) == serial_records
    assert stats.mode == "inline"
    assert stats.transport == "none"
    assert stats.index_publications == 0
    assert _no_leaked_segments()


def test_sequential_sessions_share_one_index_publication(tiny_system, tiny_dataset):
    """The index segment is published at start and survives across
    sessions: session two and three add zero publications and zero new
    segments (the active_segments probe)."""
    reads = tiny_dataset.reads[:6]
    dispatcher = PoolDispatcher(tiny_system.pipeline, workers=2)
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
        tiny_system.pipeline, tiny_dataset.reads[:5], sessions=1, workers=1
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
    dispatcher = PoolDispatcher(tiny_system.pipeline, workers=1)
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
    dispatcher = PoolDispatcher(tiny_system.pipeline, workers=2, trace=True)
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


def test_verdict_frames_echo_seq_and_accept(tiny_system, tiny_dataset):
    reads = tiny_dataset.reads[:4]
    results, _ = serve_and_drive(tiny_system.pipeline, reads, sessions=1, workers=1)
    verdicts = results[0].verdicts
    assert sorted(verdicts) == [0, 1, 2, 3]
    for seq, frame in verdicts.items():
        assert frame["accept"] == (
            frame["outcome"]["status"] not in ("rejected_signal", "rejected_qsr", "rejected_cmr")
        )
        assert frame["latency_ms"] > 0
        assert frame["seq"] == seq


def test_server_rejects_bad_hello(tiny_system):
    dispatcher = PoolDispatcher(tiny_system.pipeline, workers=1)

    async def _bad_hello():
        async with ServingServer(dispatcher) as server:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(protocol.encode_frame({"type": "hello", "protocol": 999}))
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return protocol.decode_frame(line)

    with dispatcher:
        frame = asyncio.run(_bad_hello())
    assert frame["type"] == "error"
    assert "version" in frame["message"]


def test_server_rejects_read_before_hello(tiny_system, tiny_dataset):
    dispatcher = PoolDispatcher(tiny_system.pipeline, workers=1)

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


def test_dispatcher_start_is_single_shot(tiny_system):
    dispatcher = PoolDispatcher(tiny_system.pipeline, workers=1)
    with dispatcher, pytest.raises(RuntimeError, match="already started"):
        dispatcher.start()


def test_worker_killed_mid_read_degrades_inline(tiny_dataset, serial_records):
    """A worker dying mid-read breaks the pool; every read still gets
    exactly one verdict equal to the serial record, the dispatcher is
    inline afterwards, and no segment (index included) is left behind."""
    system = GenPIP(
        MinimizerIndex.build(tiny_dataset.reference),
        GenPIPConfig(),
        basecaller=WorkerExitingBasecaller(os.getpid()),
        align=False,
    )
    dispatcher = PoolDispatcher(system.pipeline, workers=2)
    with dispatcher:
        assert dispatcher.mode == "process-pool"

        async def _session():
            async with ServingServer(dispatcher) as server:
                return await run_session(
                    "127.0.0.1", server.port, list(enumerate(tiny_dataset.reads))
                )

        with pytest.warns(RuntimeWarning, match="serving pool broke"):
            result = asyncio.run(_session())
        assert dispatcher.mode == "inline"
        # The broken pool took the index segment and every unit segment
        # with it, before stop().
        assert active_segments() == ()
    assert sorted(result.verdicts) == list(range(len(tiny_dataset.reads)))
    assert merged_outcomes([result]) == serial_records
    assert _no_leaked_segments()


def test_pickle_fallback_is_reported_and_charged(
    tiny_system, tiny_dataset, serial_records, monkeypatch
):
    """A read whose segment cannot be created travels pickled: the
    dispatcher and the ``summary`` frame say so, and the parent charges
    the payload to the "pickle" boundary exactly as the batch engine
    does."""

    def refuse(_unit):
        raise OSError("injected: shared memory unavailable")

    monkeypatch.setattr("repro.runtime.pool.publish_unit", refuse)
    reads = tiny_dataset.reads[:5]
    before = copied_bytes("pickle")
    dispatcher = PoolDispatcher(tiny_system.pipeline, workers=2)
    with dispatcher, pytest.warns(RuntimeWarning, match="shared memory unavailable"):
        assert dispatcher.transport == "none"

        async def _session():
            async with ServingServer(dispatcher) as server:
                return await run_session("127.0.0.1", server.port, list(enumerate(reads)))

        result = asyncio.run(_session())
        assert dispatcher.mode == "process-pool"
        assert dispatcher.transport == "pickle"
    assert merged_outcomes([result]) == serial_records[: len(reads)]
    assert result.summary["server"]["transport"] == "pickle"
    assert copied_bytes("pickle") - before == payload_nbytes(reads)

    engine = DatasetEngine(tiny_system.pipeline, workers=2, batch_size=1)
    with pytest.warns(RuntimeWarning, match="shared memory unavailable"):
        engine.run(reads)
    assert engine.last_stats.transport == "pickle"
    assert engine.last_stats.bytes_published == payload_nbytes(reads)
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

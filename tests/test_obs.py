"""Tests for the unified observability plane (:mod:`repro.obs`).

Tentpole invariants under test:

* tracer mechanics: nesting, deterministic structure under an injected
  clock, exception-safe span closing, no-op behaviour when disabled;
* pipeline tracing: a serial run and a 2-worker pooled run of the same
  dataset produce identical per-read span trees (names, nesting,
  counts) -- only timings may differ -- and traced runs reproduce the
  untraced report exactly;
* SER-rejected reads stop their trace at the ``ser`` span;
* the metrics registry's snapshot/delta/merge/absorb semantics,
  including the pooled mapping-ops repatriation path
  (:class:`~repro.runtime.merge.ShardResult` -> parent ledger);
* the exporters: Chrome ``trace_event`` JSON round-trips ``json.loads``
  with valid ``ph``/``ts``/``pid``/``tid`` and per-``tid`` monotone
  timestamps, and the Prometheus exposition carries the standard
  quantile samples.
"""

from __future__ import annotations

import ast
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro

from repro.basecalling.engines import ViterbiBackendConfig, ViterbiChunkBasecaller
from repro.core import GenPIPConfig, GenPIPPipeline, ReadStatus
from repro.kernels.mapping_ops import process_mapping_ops, record_mapping_ops
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore import (
    PoreModel,
    SignalConfig,
    SignalRead,
    synthesize_signal,
)
from repro.obs import (
    COPIED_BYTES,
    MAPPING_OPS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    ReadTrace,
    Tracer,
    active_tracer,
    chrome_trace_document,
    decode_traces,
    disable_tracing,
    drain_read_traces,
    enable_tracing,
    merge_snapshots,
    process_registry,
    prometheus_text,
    snapshot_delta,
    span_records,
    tracing_enabled,
    use_tracer,
)
from repro.runtime import DatasetEngine, RuntimeStats
from repro.signal import SignalRejectionPolicy


def _counter_clock():
    """A deterministic strictly-increasing clock."""
    counter = itertools.count()
    return lambda: float(next(counter))


@pytest.fixture(scope="module")
def obs_dataset():
    return generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=2_500), scale=0.0005, seed=5
    )


@pytest.fixture(scope="module")
def obs_system(obs_dataset):
    return GenPIPPipeline(
        MinimizerIndex.build(obs_dataset.reference), GenPIPConfig(), align=False
    )


@pytest.fixture(autouse=True)
def _tracing_off_between_tests():
    yield
    disable_tracing()


# --- tracer mechanics -------------------------------------------------------


class TestTracer:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer(clock=_counter_clock())
        with tracer.read("r1"), tracer.span("a"), tracer.span("b"):
            pass
        (trace,) = tracer.drain()
        assert trace.kind == "read"
        assert trace.label == "r1"
        assert trace.structure() == (("read", -1), ("a", 0), ("b", 1))
        # Injected clock: spans carry the counter's exact readings.
        assert trace.spans[0][2] == 0.0 and trace.spans[0][3] == 5.0

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer(clock=_counter_clock())
        with tracer.unit(3):
            with tracer.span("x"):
                pass
            with tracer.span("y"):
                pass
        (trace,) = tracer.drain()
        assert trace.kind == "unit"
        assert trace.structure() == (("batch", -1), ("x", 0), ("y", 0))
        assert trace.count("x") == 1

    def test_span_outside_any_trace_is_noop(self):
        tracer = Tracer(clock=_counter_clock())
        with tracer.span("orphan"):
            pass
        assert tracer.drain() == []

    def test_exception_closes_open_spans(self):
        tracer = Tracer(clock=_counter_clock())
        with pytest.raises(RuntimeError), tracer.read("boom"), tracer.span("outer"):
            raise RuntimeError("mid-span")
        (trace,) = tracer.drain()
        assert trace.names() == ("read", "outer")
        # Every span got an end time despite the unwind.
        assert all(t1 >= t0 for _, _, t0, t1 in trace.spans)

    def test_drain_clears_the_buffer(self):
        tracer = Tracer(clock=_counter_clock())
        with tracer.read("r"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_wire_round_trip(self):
        tracer = Tracer(clock=_counter_clock())
        with tracer.read("r"), tracer.span("s"):
            pass
        (trace,) = tracer.drain()
        assert ReadTrace.from_tuple(trace.to_tuple()) == trace

    def test_disabled_process_tracer_is_null(self):
        disable_tracing()
        assert not tracing_enabled()
        assert isinstance(active_tracer(), NullTracer)
        assert drain_read_traces() == ()
        # Every null operation is a reusable no-op context.
        with active_tracer().read("r"), active_tracer().span("s"):
            pass
        assert active_tracer().drain() == []

    def test_enable_tracing_is_idempotent(self):
        first = enable_tracing()
        assert enable_tracing() is first
        assert active_tracer() is first

    def test_use_tracer_scopes_and_restores(self):
        disable_tracing()
        pinned = Tracer(clock=_counter_clock())
        with use_tracer(pinned):
            assert active_tracer() is pinned
        assert not tracing_enabled()


# --- pipeline + engine tracing ---------------------------------------------


class TestPipelineTracing:
    def test_serial_and_pooled_span_trees_match(self, obs_system, obs_dataset):
        """The tentpole invariant: identical per-read structure."""
        serial = DatasetEngine(obs_system, workers=1, trace=True)
        serial_report = serial.run(obs_dataset)
        pooled = DatasetEngine(obs_system, workers=2, trace=True)
        pooled_report = pooled.run(obs_dataset)
        assert pooled_report.outcomes == serial_report.outcomes

        serial_reads = {
            t.label: t for t in serial.last_trace if t.kind == "read"
        }
        pooled_reads = {
            t.label: t for t in pooled.last_trace if t.kind == "read"
        }
        assert serial_reads.keys() == pooled_reads.keys()
        assert len(serial_reads) == len(obs_dataset)
        for read_id, strace in serial_reads.items():
            ptrace = pooled_reads[read_id]
            assert strace.structure() == ptrace.structure(), read_id
            assert strace.names() == ptrace.names()

    def test_traced_report_is_identical_to_untraced(self, obs_system, obs_dataset):
        plain = DatasetEngine(obs_system, workers=1)
        traced = DatasetEngine(obs_system, workers=1, trace=True)
        plain_report = plain.run(obs_dataset)
        traced_report = traced.run(obs_dataset)
        assert traced_report.outcomes == plain_report.outcomes
        assert traced_report.counters == plain_report.counters
        assert plain.last_trace is None
        assert traced.last_trace

    def test_injected_clock_pins_span_times(self, obs_system, obs_dataset):
        """A scoped tracer (deterministic clock) records the same
        structure the process tracer does, with counter times."""
        pipeline = obs_system
        tracer = Tracer(clock=_counter_clock())
        read = obs_dataset.reads[0]
        with use_tracer(tracer):
            outcome = pipeline.process_read(read)
        assert outcome == pipeline.process_read(read)
        (trace,) = tracer.drain()
        assert trace.label == read.read_id
        times = [t for span in trace.spans for t in (span[2], span[3])]
        assert all(t == int(t) for t in times), "clock injection not honoured"

    def test_read_trace_stage_profile(self, obs_system, obs_dataset):
        engine = DatasetEngine(obs_system, workers=1, trace=True)
        report = engine.run(obs_dataset)
        by_read = {t.label: t for t in engine.last_trace if t.kind == "read"}
        n_cm = obs_system.config.n_cm
        for outcome in report.outcomes:
            trace = by_read[outcome.read_id]
            if outcome.status is ReadStatus.MAPPED:
                # One seed span per seeded run, not per chunk: the CMR
                # merge set, then the remainder when there is one.
                assert trace.count("cmr_probe") == 1
                assert trace.count("seed") == (2 if outcome.n_chunks_total > n_cm else 1)
                assert outcome.n_chunks_seeded == outcome.n_chunks_total
                assert trace.count("chain") == 2
                assert trace.count("report") == 1
            elif outcome.status is ReadStatus.REJECTED_CMR:
                assert trace.count("seed") == 1
                assert outcome.n_chunks_seeded == min(n_cm, outcome.n_chunks_total)
            elif outcome.status is ReadStatus.REJECTED_QSR:
                # QSR stops the read after the sampled-chunk probe: the
                # probe span is present (its chunk basecalls nested
                # inside), and no later stage ever opens.
                assert trace.count("qsr_probe") == 1
                assert trace.count("cmr_probe") == 0
                assert trace.count("seed") == 0
                assert trace.count("report") == 0

    def test_unit_traces_cover_every_shard(self, obs_system, obs_dataset):
        engine = DatasetEngine(obs_system, workers=2, trace=True)
        engine.run(obs_dataset)
        units = [t for t in engine.last_trace if t.kind == "unit"]
        assert len(units) == engine.last_stats.n_shards


class TestSERTracing:
    @pytest.fixture()
    def ser_system(self):
        pore = PoreModel.synthetic(k=3, seed=7)
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=1_200), scale=0.0001, seed=21
        )
        templates = [pore.expected_levels(dataset.reference.codes[:250])]
        policy = SignalRejectionPolicy(templates, prefix_bases=100)
        return GenPIPPipeline(
            MinimizerIndex.build(dataset.reference),
            GenPIPConfig(),
            ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3)),
            align=False,
            ser_policy=policy,
        )

    def test_ser_rejected_trace_stops_at_ser(self, ser_system):
        pore = PoreModel.synthetic(k=3, seed=7)
        codes = np.random.default_rng(33).integers(0, 4, 800).astype(np.uint8)
        signal = synthesize_signal(
            codes, pore, SignalConfig(), np.random.default_rng(34)
        )
        junk = SignalRead(read_id="junk-0", signal=signal)

        tracer = enable_tracing()
        outcome = ser_system.process_read(junk)
        (trace,) = tracer.drain()
        assert outcome.status is ReadStatus.REJECTED_SIGNAL
        assert trace.names() == ("read", "ser")
        assert trace.count("basecall") == 0
        assert trace.count("report") == 0


# --- metrics registry -------------------------------------------------------


class TestInstruments:
    def test_counter_keys_and_totals(self):
        counter = Counter("c", help="h", label="kind")
        counter.inc("a", 2)
        counter.inc("a")
        counter.inc("b", 5)
        assert counter.value() == 8
        assert counter.value("a") == 3
        assert counter.snapshot() == {
            "kind": "counter",
            "label": "kind",
            "help": "h",
            "values": {"a": 3, "b": 5},
        }

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("c").inc("a", -1)

    def test_gauge_set_max_keeps_peak(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set_max(2)
        assert gauge.value == 3
        gauge.set_max(7)
        assert gauge.value == 7

    def test_histogram_wraps_latency_histogram(self):
        """The instrument *is* the log-bucket histogram: its snapshot is
        layout + counts (no embedded quantiles to go stale) and
        round-trips through ``from_dict``."""
        histogram = Histogram("h", help="waits")
        histogram.observe(0.004)
        histogram.observe(0.1)
        assert histogram.count == 2
        snap = histogram.snapshot()
        assert snap.keys() == {"kind", "help", "lo", "hi", "n_buckets", "counts"}
        assert snap["kind"] == "histogram" and sum(snap["counts"]) == 2
        clone = Histogram.from_dict(json.loads(json.dumps(snap)))
        assert clone.percentiles_ms() == histogram.percentiles_ms()

    def test_ledger_counter_reset_refuses(self):
        """The process counters are plain registry counters now: a
        charge is visible in the registry snapshot with no adapter in
        between, and a negative charge is refused at the charge site."""
        counter = process_registry().get(MAPPING_OPS)
        assert counter is process_mapping_ops()
        before = counter.value("align-cell")
        record_mapping_ops("align-cell", 3)
        snapshot = process_registry().snapshot()[MAPPING_OPS]
        assert snapshot["values"]["align-cell"] == before + 3
        with pytest.raises(ValueError):
            record_mapping_ops("align-cell", -1)
        assert counter.value("align-cell") == before + 3


class TestRegistry:
    def test_get_or_create_is_type_checked(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        assert registry.counter("x") is registry.get("x")

    def test_snapshot_delta_keeps_positive_movement_only(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        before = registry.snapshot()
        assert snapshot_delta(before, registry.snapshot()) == {}
        counter.inc("k", 4)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["c"]["values"] == {"k": 4}

    def test_merge_snapshots_adds_counters_and_maxes_gauges(self):
        a = {
            "c": {"kind": "counter", "values": {"x": 1}},
            "g": {"kind": "gauge", "value": 2},
        }
        b = {
            "c": {"kind": "counter", "values": {"x": 2, "y": 3}},
            "g": {"kind": "gauge", "value": 1},
        }
        merged = merge_snapshots(a, b)
        assert merged["c"]["values"] == {"x": 3, "y": 3}
        assert merged["g"]["value"] == 2

    def test_merge_rejects_mismatched_histogram_layouts(self):
        layout_a = Histogram("h", n_buckets=8).snapshot()
        layout_b = Histogram("h", n_buckets=16).snapshot()
        with pytest.raises(ValueError):
            merge_snapshots({"h": layout_a}, {"h": layout_b})

    def test_delta_and_merge_quantiles_follow_their_counts(self):
        """A delta's and a merge's quantiles are those of *their*
        samples, not the ones the source snapshot happened to have."""
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for _ in range(100):
            histogram.observe(0.001)
        before = registry.snapshot()
        for _ in range(5):
            histogram.observe(1.0)
        delta = snapshot_delta(before, registry.snapshot())
        assert sum(delta["h"]["counts"]) == 5
        slow = Histogram("h")
        for _ in range(1000):
            slow.observe(1.0)
        merged = merge_snapshots(before, {"h": slow.snapshot()})
        for snapshot in (delta, merged):
            p50 = re.search(r'h\{quantile="0.5"\} (\S+)', prometheus_text(snapshot))
            assert 1.0 <= float(p50.group(1)) < 1.3, snapshot

    def test_absorb_unknown_name_raises_only_when_requested(self):
        registry = MetricsRegistry()
        delta = {"nope": {"kind": "counter", "values": {"x": 1}}}
        registry.absorb(delta)  # silently ignored
        with pytest.raises(KeyError):
            registry.absorb(delta, names=("nope",))

    def test_absorb_recharges_the_process_ledger(self):
        registry = process_registry()
        ledger = process_mapping_ops()
        before = ledger.by_key().get("chain-candidate", 0)
        registry.absorb(
            {MAPPING_OPS: {"kind": "counter", "values": {"chain-candidate": 17}}},
            names=(MAPPING_OPS,),
        )
        assert ledger.by_key()["chain-candidate"] == before + 17


# Generated registry charges over one shared layout: a counter, a
# peak gauge and an 8-bucket histogram. Integer increments keep the
# algebra exact (float addition is not associative).
_LAYOUT = {"lo": 1e-3, "hi": 1.0, "n_buckets": 8}
_CHARGES = st.fixed_dictionaries(
    {
        "counts": st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(1, 1000)), max_size=6
        ),
        "peak": st.integers(0, 50),
        "samples": st.lists(st.floats(1e-4, 10.0), max_size=20),
    }
)
_NAMES = st.sets(st.sampled_from(["c", "g", "h"]))


def _charge(registry, charges):
    counter = registry.counter("c", help="things", label="k")
    for key, n in charges["counts"]:
        counter.inc(key, n)
    registry.gauge("g", help="peak").set_max(charges["peak"])
    histogram = registry.histogram("h", help="waits", **_LAYOUT)
    for seconds in charges["samples"]:
        histogram.observe(seconds)
    return registry.snapshot()


def _snapshot(charges, names):
    full = _charge(MetricsRegistry(), charges)
    return {name: full[name] for name in sorted(names)}


class TestSnapshotAlgebra:
    @given(_CHARGES, _NAMES, _CHARGES, _NAMES, _CHARGES, _NAMES)
    @settings(max_examples=60, deadline=None)
    def test_merge_is_associative_and_commutative(self, xa, na, xb, nb, xc, nc):
        a, b, c = _snapshot(xa, na), _snapshot(xb, nb), _snapshot(xc, nc)
        assert merge_snapshots(a, b) == merge_snapshots(b, a)
        assert merge_snapshots(merge_snapshots(a, b), c) == merge_snapshots(
            a, merge_snapshots(b, c)
        )

    @given(_CHARGES, _CHARGES)
    @settings(max_examples=60, deadline=None)
    def test_merging_the_delta_back_restores_the_later_snapshot(self, first, then):
        registry = MetricsRegistry()
        a = _charge(registry, first)
        b = _charge(registry, then)  # monotone: a <= b
        assert merge_snapshots(a, snapshot_delta(a, b)) == b

    @given(_CHARGES, _CHARGES)
    @settings(max_examples=60, deadline=None)
    def test_merged_quantiles_equal_the_union_histogram(self, xa, xb):
        merged = merge_snapshots(_snapshot(xa, {"h"}), _snapshot(xb, {"h"}))
        union = Histogram("h", help="waits", **_LAYOUT)
        for seconds in xa["samples"] + xb["samples"]:
            union.observe(seconds)
        assert Histogram.from_dict(merged["h"]).percentiles_ms() == union.percentiles_ms()
        assert prometheus_text(merged) == prometheus_text({"h": union.snapshot()})


class TestRuntimeStatsFromRegistry:
    def test_byte_accounting_is_bit_identical(self):
        worker_metrics = {COPIED_BYTES: {"kind": "counter", "values": {"attach": 100, "pickle": 20}}}
        parent_delta = {COPIED_BYTES: {"kind": "counter", "values": {"publish": 300, "pickle": 40}}}
        stats = RuntimeStats.from_registry(
            worker_metrics,
            parent_delta,
            mode="process-pool",
            workers=2,
            batch_size=4,
            n_shards=3,
            n_reads=12,
            elapsed_s=1.0,
            transport="shm",
        )
        assert stats.bytes_copied == 120
        # Only the "publish" boundary is parent-side packing.
        assert stats.bytes_published == 300

    def test_empty_metrics_mean_zero_bytes(self):
        stats = RuntimeStats.from_registry(
            {},
            {},
            mode="serial",
            workers=1,
            batch_size=8,
            n_shards=1,
            n_reads=8,
            elapsed_s=0.5,
            transport="none",
        )
        assert stats.bytes_copied == 0
        assert stats.bytes_published == 0

    def test_pooled_run_repatriates_mapping_ops(self, obs_dataset):
        """Satellite 1: pooled chain/align op deltas reach the parent."""
        system = GenPIPPipeline(
            MinimizerIndex.build(obs_dataset.reference), GenPIPConfig(), align=True
        )
        reads = sorted(obs_dataset.reads, key=len)[:6]
        ledger = process_mapping_ops()
        before = ledger.by_key()
        engine = DatasetEngine(system, workers=2)
        engine.run(reads)
        after = ledger.by_key()
        assert after.get("chain-candidate", 0) > before.get("chain-candidate", 0)
        assert after.get("align-cell", 0) > before.get("align-cell", 0)


# --- exporters --------------------------------------------------------------


class TestExport:
    @pytest.fixture(scope="class")
    def traced_engine(self, obs_system, obs_dataset):
        engine = DatasetEngine(obs_system, workers=2, trace=True)
        engine.run(obs_dataset)
        return engine

    def test_chrome_trace_round_trips_json(self, traced_engine):
        document = chrome_trace_document(traced_engine.last_trace)
        decoded = json.loads(json.dumps(document))
        events = decoded["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_chrome_trace_ts_monotone_per_tid(self, traced_engine):
        events = json.loads(
            json.dumps(chrome_trace_document(traced_engine.last_trace))
        )["traceEvents"]
        by_tid: dict[int, list[float]] = {}
        for event in events:
            by_tid.setdefault(event["tid"], []).append(event["ts"])
        assert len(by_tid) >= 2  # parent + at least one worker
        for tid, stamps in by_tid.items():
            assert stamps == sorted(stamps), f"tid {tid} not monotone"

    def test_span_records_are_flat_and_complete(self, traced_engine):
        records = list(span_records(traced_engine.last_trace))
        assert len(records) == sum(t.n_spans for t in traced_engine.last_trace)
        for record in records:
            assert {"trace", "kind", "pid", "span", "name", "parent", "t0_s", "dur_ms"} <= record.keys()

    def test_prometheus_text_shapes(self):
        registry = MetricsRegistry()
        registry.counter("genpip_things", help="Things", label="kind").inc("a", 2)
        registry.gauge("genpip_level", help="Level").set(3)
        histogram = registry.histogram("genpip_wait_seconds", help="Waits")
        histogram.observe(0.01)
        text = prometheus_text(registry.snapshot())
        assert "# TYPE genpip_things counter" in text
        assert 'genpip_things_total{kind="a"} 2' in text
        assert "genpip_level 3" in text
        assert 'genpip_wait_seconds{quantile="0.5"}' in text
        assert 'genpip_wait_seconds{quantile="0.95"}' in text
        assert 'genpip_wait_seconds{quantile="0.99"}' in text
        assert "genpip_wait_seconds_count 1" in text

    def test_decode_traces_round_trip(self, traced_engine):
        wire = tuple(t.to_tuple() for t in traced_engine.last_trace)
        assert decode_traces(wire) == traced_engine.last_trace


# --- structure --------------------------------------------------------------


def test_obs_is_the_only_ledger_and_imports_nothing_above_it():
    """``repro.obs`` sits below every package that charges it (no
    import of another ``repro`` package, lazy ones included), and the
    retired ledger classes are gone from every shipped tree."""
    src = Path(repro.__file__).parent
    for path in (src / "obs").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module == "repro" or module.startswith("repro."):
                    assert module.startswith("repro.obs"), (path.name, module)
    retired = re.compile(r"\b(CopyCounter|MappingOpsCounter|LedgerCounter|LatencyHistogram)\b")
    repo = src.parents[1]
    for tree in (src, repo / "examples", repo / "benchmarks"):
        for path in tree.rglob("*.py"):
            assert not retired.search(path.read_text(encoding="utf-8")), path

"""Tests for the signal-domain analysis subsystem (``repro.signal``).

Covers event segmentation (exact step recovery, tolerance against the
simulator's declared grid, grid synthesis for grid-less reads), the
signal-domain early-rejection stage (policy behaviour, pipeline control
flow, spec/transport plumbing, serial == pooled equivalence,
JSONL round-trip), carried pA current reaching the decoder as stored,
the perf-model cost hook, and the ``--signal-er`` /
``--segmentation`` CLI surface.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro.basecalling import ViterbiBackendConfig, ViterbiChunkBasecaller
from repro.core import GenPIPConfig, GenPIPPipeline, ReadStatus
from repro.mapping.index import MinimizerIndex
from repro.nanopore import (
    PoreModel,
    RawSignal,
    SignalConfig,
    SignalRead,
    iter_signals,
    strip_base_starts,
    synthesize_signal,
    write_signals,
)
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.perf.systems import evaluate_system
from repro.perf.workload import PipelineWorkload
from repro.runtime import (
    DatasetEngine,
    JSONLSink,
    SignalStoreSource,
    outcome_from_record,
    outcome_to_record,
    replay_report,
)
from repro.runtime.cli import main as cli_main
from repro.signal import (
    SegmentationConfig,
    SignalRejectionPolicy,
    detect_events,
    jump_scores,
    segment_read,
)

FAST_VITERBI = ViterbiBackendConfig(pore_k=3)


@pytest.fixture(scope="module")
def pore():
    # Matches FAST_VITERBI's pore model, so policies built on this pore
    # screen exactly the signal the backend synthesizes.
    return PoreModel.synthetic(k=3, seed=7)


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_dataset(
        small_profile(ECOLI_LIKE, max_read_length=1_200), scale=0.0001, seed=21
    )


@pytest.fixture(scope="module")
def tiny_index(tiny_dataset):
    return MinimizerIndex.build(tiny_dataset.reference)


@pytest.fixture(scope="module")
def backend():
    return ViterbiChunkBasecaller(FAST_VITERBI)


@pytest.fixture(scope="module")
def genomic_reads(tiny_dataset):
    """Shortest simulated reads long enough for ER eligibility."""
    eligible = [read for read in tiny_dataset.reads if len(read) >= 500]
    return sorted(eligible, key=len)[:3]


@pytest.fixture(scope="module")
def junk_signal_read(pore):
    """A signal-native read synthesized from uniform-random sequence."""
    codes = np.random.default_rng(33).integers(0, 4, 800).astype(np.uint8)
    signal = synthesize_signal(codes, pore, SignalConfig(), np.random.default_rng(34))
    return SignalRead(read_id="junk-0", signal=signal)


@pytest.fixture(scope="module")
def covering_policy(pore, genomic_reads):
    """SER policy whose templates cover the genomic reads' own prefixes.

    Built from each read's expected signal (its true codes through the
    pore model), so acceptance does not depend on strand or on the
    read's locus being sampled -- the targeted-templates use of the
    screen.
    """
    templates = [pore.expected_levels(read.true_codes[:250]) for read in genomic_reads]
    return SignalRejectionPolicy(templates, prefix_bases=100)


@pytest.fixture(scope="module")
def signal_reads(backend, genomic_reads):
    return [
        SignalRead(read_id=read.read_id, signal=backend.synthesize_signal(read))
        for read in genomic_reads
    ]


@pytest.fixture(scope="module")
def ser_system(tiny_index, backend, covering_policy):
    return GenPIPPipeline(tiny_index, GenPIPConfig(), backend, align=False, ser_policy=covering_policy)


# --- event segmentation -----------------------------------------------------


class TestSegmentation:
    def test_noisy_step_signal_recovered_exactly(self):
        levels = np.repeat([10.0, 40.0, -20.0, 30.0, 5.0], [7, 5, 6, 9, 8])
        samples = levels + np.random.default_rng(0).normal(0.0, 0.5, levels.size)
        events = detect_events(samples, SegmentationConfig())
        np.testing.assert_array_equal(events, [0, 7, 12, 18, 27])

    def test_empty_and_short_signals(self):
        assert detect_events(np.empty(0)).size == 0
        np.testing.assert_array_equal(detect_events(np.ones(3)), [0])
        np.testing.assert_array_equal(
            detect_events(np.full(20, 5.0), SegmentationConfig()), [0]
        )

    def test_min_dwell_thins_close_boundaries(self):
        # Three genuine jumps 3-4 samples apart: the tight minimum dwell
        # drops the middle one while the loose one keeps all, and every
        # surviving inter-event gap respects the configured floor.
        levels = np.repeat([0.0, 30.0, -30.0, 30.0], [10, 3, 3, 10])
        loose = detect_events(levels, SegmentationConfig(min_dwell=2))
        tight = detect_events(levels, SegmentationConfig(min_dwell=5))
        assert np.all(np.diff(loose) >= 2)
        assert np.all(np.diff(tight) >= 5)
        assert loose.size == 4
        assert tight.size == 3
        assert set(tight) <= set(loose)

    def test_jump_scores_alignment_and_zero_margins(self):
        samples = np.concatenate([np.zeros(20), np.full(20, 25.0)])
        scores = jump_scores(samples, window=4)
        assert scores.shape == samples.shape
        assert scores[:4].sum() == 0.0 and scores[-3:].sum() == 0.0
        assert int(np.argmax(scores)) == 20

    def test_simulator_signal_vs_declared_grid(self, pore):
        """The recovered grid tracks the simulator's declared base starts.

        Boundaries whose adjacent k-mer levels are similar are
        undetectable in principle, so the test bounds recall and count
        drift rather than demanding identity.
        """
        codes = np.random.default_rng(1).integers(0, 4, 500).astype(np.uint8)
        signal = synthesize_signal(codes, pore, SignalConfig(), np.random.default_rng(2))
        events = detect_events(signal.samples)
        declared = signal.base_starts
        assert 0.55 * declared.size <= events.size <= 1.2 * declared.size
        hits = sum(1 for start in declared if np.min(np.abs(events - start)) <= 2)
        assert hits / declared.size >= 0.75
        # Detected boundaries are themselves near-exclusively true ones.
        true_hits = sum(1 for event in events if np.min(np.abs(declared - event)) <= 2)
        assert true_hits / events.size >= 0.9

    def test_segment_read_synthesizes_usable_grid(self, backend, genomic_reads):
        bare = SignalRead(
            read_id="bare",
            signal=RawSignal(
                samples=backend.synthesize_signal(genomic_reads[0]).samples,
                base_starts=np.empty(0, dtype=np.int64),
            ),
        )
        assert len(bare) == 0  # no grid: unusable as-is
        segmented = segment_read(bare)
        assert len(segmented) > 0
        assert backend.n_chunks(segmented, 300) >= 1
        # Event starts are a valid base_starts track: strictly
        # increasing from zero, within the sample range.
        starts = segmented.signal.base_starts
        assert starts[0] == 0
        assert np.all(np.diff(starts) >= SegmentationConfig().min_dwell)
        assert starts[-1] < segmented.n_samples
        # The grid feeds the decoder without error.
        called = backend.basecall_chunk(segmented, 0, 300)
        assert len(called) > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SegmentationConfig(window=0)
        with pytest.raises(ValueError):
            SegmentationConfig(threshold=0.0)
        with pytest.raises(ValueError):
            SegmentationConfig(min_dwell=0)
        with pytest.raises(ValueError):
            jump_scores(np.ones(10), window=0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_threshold_that_never_fires_is_refused(self, threshold):
        """A NaN or infinite threshold passes ``<= 0``, and detect_events
        would return one event: the whole read one grid base."""
        with pytest.raises(ValueError, match="threshold"):
            SegmentationConfig(threshold=threshold)

    @pytest.mark.parametrize("field", ["window", "min_dwell"])
    @pytest.mark.parametrize("value", [2.5, 1.5])
    def test_sample_counts_must_be_integers(self, field, value):
        """A fractional window used to pass and raise IndexError inside
        jump_scores; a fractional min_dwell was accepted outright."""
        with pytest.raises(ValueError, match=field):
            SegmentationConfig(**{field: value})

    def test_integer_sample_counts_accepted(self):
        config = SegmentationConfig(window=np.int64(3), min_dwell=1)
        assert detect_events(np.repeat([80.0, 100.0], 10), config).tolist() == [0, 10]


# --- the SER policy ---------------------------------------------------------


class TestSignalRejectionPolicy:
    def test_covered_genomic_accepted_junk_rejected(
        self, covering_policy, signal_reads, junk_signal_read
    ):
        for read in signal_reads:
            decision = covering_policy.decide(read)
            assert not decision.reject
            assert decision.best_cost < decision.threshold
        junk = covering_policy.decide(junk_signal_read)
        assert junk.reject
        assert junk.best_cost >= junk.threshold
        assert junk.prefix_bases == 100

    def test_from_reference_even_sampling(self, pore, tiny_dataset):
        policy = SignalRejectionPolicy.from_reference(
            pore, tiny_dataset.reference.codes, n_templates=5
        )
        assert policy.n_templates == 5
        with pytest.raises(ValueError):
            SignalRejectionPolicy.from_reference(
                pore, tiny_dataset.reference.codes, n_templates=0
            )
        with pytest.raises(ValueError):
            SignalRejectionPolicy([np.ones(10)], prefix_bases=0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf])
    def test_non_finite_threshold_refused(self, threshold):
        """A NaN threshold used to reject every read after scanning
        every template (no cost compares below NaN); an infinite one
        accepts every read."""
        with pytest.raises(ValueError, match="finite and positive"):
            SignalRejectionPolicy([np.ones(10)], threshold=threshold)

    def test_empty_signal_rejected(self, covering_policy):
        empty = SignalRead(
            read_id="empty",
            signal=RawSignal(
                samples=np.empty(0, np.float32), base_starts=np.empty(0, np.int64)
            ),
        )
        decision = covering_policy.decide(empty)
        assert decision.reject
        assert decision.prefix_bases == 0


# --- pipeline control flow --------------------------------------------------


class TestPipelineSER:
    def test_junk_stopped_before_any_basecalling(self, ser_system, junk_signal_read):
        outcome = ser_system.process_read(junk_signal_read)
        assert outcome.status is ReadStatus.REJECTED_SIGNAL
        assert outcome.n_chunks_basecalled == 0
        assert outcome.n_bases_basecalled == 0
        assert outcome.n_chunks_seeded == 0
        assert outcome.mapping is None
        assert outcome.ser is not None and outcome.ser.reject
        assert outcome.rejected_early

    def test_covered_read_runs_the_normal_flow(self, ser_system, signal_reads):
        outcome = ser_system.process_read(signal_reads[0])
        assert outcome.status is not ReadStatus.REJECTED_SIGNAL
        assert outcome.n_chunks_basecalled > 0
        assert outcome.ser is not None and not outcome.ser.reject

    def test_base_space_reads_are_never_screened(self, ser_system, genomic_reads):
        outcome = ser_system.process_read(genomic_reads[0])
        assert outcome.ser is None
        assert outcome.status is not ReadStatus.REJECTED_SIGNAL

    def test_enable_ser_off_is_byte_identical_to_no_policy(
        self, tiny_index, backend, covering_policy, signal_reads, junk_signal_read
    ):
        reads = list(signal_reads) + [junk_signal_read]
        baseline = GenPIPPipeline(
            tiny_index, GenPIPConfig(), basecaller=backend, align=False
        ).process_batch(reads)
        import dataclasses

        disabled = GenPIPPipeline(
            tiny_index,
            dataclasses.replace(GenPIPConfig(), enable_ser=False),
            basecaller=backend,
            align=False,
            ser_policy=covering_policy,
        ).process_batch(reads)
        assert disabled == baseline
        assert all(outcome.ser is None for outcome in disabled)

    def test_short_reads_skip_ser(self, tiny_index, backend, pore, covering_policy):
        """Reads below the ER eligibility floor are never screened."""
        codes = np.random.default_rng(50).integers(0, 4, 120).astype(np.uint8)
        signal = synthesize_signal(codes, pore, SignalConfig(), np.random.default_rng(51))
        short = SignalRead(read_id="short", signal=signal)
        system = GenPIPPipeline(
            tiny_index, GenPIPConfig(), basecaller=backend, align=False,
            ser_policy=covering_policy,
        )
        outcome = system.process_read(short)
        assert outcome.ser is None
        assert outcome.status is not ReadStatus.REJECTED_SIGNAL


# --- spec / worker plumbing -------------------------------------------------


class TestSpec:
    """The pipeline -- the only spec of a run there is -- carries the
    policy to a worker."""

    def test_spec_round_trip_preserves_the_policy(
        self, ser_system, signal_reads, junk_signal_read
    ):
        reads = list(signal_reads) + [junk_signal_read]
        pipeline = ser_system
        assert pipeline.signal_rejection_enabled()
        direct = pipeline.process_batch(reads)
        arrived = pickle.loads(pickle.dumps(pipeline))
        assert arrived.ser_policy is not pipeline.ser_policy
        assert arrived.signal_rejection_enabled()
        assert arrived.process_batch(reads) == direct

    def test_constructor_wires_and_replace_clears_the_policy(
        self, ser_system, covering_policy, junk_signal_read
    ):
        pipeline = ser_system
        assert pipeline.ser_policy is covering_policy
        assert pipeline.process_read(junk_signal_read).status is ReadStatus.REJECTED_SIGNAL
        cleared = dataclasses.replace(pipeline, ser_policy=None)
        assert not cleared.signal_rejection_enabled()
        outcome = cleared.process_read(junk_signal_read)
        assert outcome.ser is None
        assert outcome.status is not ReadStatus.REJECTED_SIGNAL

    def test_spec_without_policy_reports_ser_disabled(self, tiny_index, backend):
        pipeline = GenPIPPipeline(tiny_index, GenPIPConfig(), basecaller=backend)
        assert pipeline.ser_policy is None
        assert not pipeline.signal_rejection_enabled()


# --- runtime equivalence ----------------------------------------------------


class TestRuntimeSER:
    @pytest.fixture(scope="class")
    def mixed_store(self, backend, genomic_reads, junk_signal_read, tmp_path_factory):
        path = tmp_path_factory.mktemp("ser") / "mixed.rsig"
        records = [
            read.to_record()
            for read in (
                [
                    SignalRead(
                        read_id=read.read_id, signal=backend.synthesize_signal(read)
                    )
                    for read in genomic_reads
                ]
                + [junk_signal_read]
            )
        ]
        write_signals(path, records)
        return path

    @pytest.fixture(scope="class")
    def serial_report(self, ser_system, mixed_store):
        engine = DatasetEngine(ser_system, workers=1, batch_size=2)
        return engine.run(SignalStoreSource(mixed_store))

    def test_serial_report_mixes_statuses(self, serial_report):
        statuses = {outcome.status for outcome in serial_report.outcomes}
        assert ReadStatus.REJECTED_SIGNAL in statuses
        assert len(statuses) > 1  # accepted reads continued past SER
        assert serial_report.ser_rejection_ratio == pytest.approx(
            1 / len(serial_report.outcomes)
        )

    @pytest.mark.filterwarnings("ignore:shared memory unavailable:RuntimeWarning")
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_pooled_equals_serial(
        self, ser_system, mixed_store, serial_report, request, transport
    ):
        """Default path ("shm") and the fault-injected fallback ("pickle")."""
        if transport == "pickle":
            request.getfixturevalue("pickle_fallback")
        engine = DatasetEngine(ser_system, workers=2, batch_size=2)
        report = engine.run(SignalStoreSource(mixed_store))
        if engine.last_stats.mode == "process-pool":
            assert engine.last_stats.transport == transport
        assert report.outcomes == serial_report.outcomes
        assert report.counters == serial_report.counters
        assert engine.last_stats.signal_er

    def test_jsonl_round_trip_keeps_ser_decisions(
        self, ser_system, mixed_store, serial_report, tmp_path
    ):
        jsonl_path = tmp_path / "outcomes.jsonl"
        engine = DatasetEngine(
            ser_system, workers=2, batch_size=2, sink=JSONLSink(jsonl_path)
        )
        engine.run(SignalStoreSource(mixed_store))
        replayed = replay_report(jsonl_path, serial_report.config)
        assert replayed.outcomes == serial_report.outcomes
        rejected = [o for o in replayed.outcomes if o.status is ReadStatus.REJECTED_SIGNAL]
        assert rejected and rejected[0].ser is not None

    def test_segmentation_source_pooled_equals_serial(
        self, ser_system, backend, genomic_reads, junk_signal_read, tmp_path
    ):
        """The full raw path -- grid-less container, segmentation
        front-end, SER screen -- is worker-count invariant: the grid is
        recovered once in the parent and travels with the read."""
        path = tmp_path / "bare.rsig"
        records = [
            SignalRead(
                read_id=read.read_id, signal=backend.synthesize_signal(read)
            ).to_record()
            for read in genomic_reads[:2]
        ] + [junk_signal_read.to_record()]
        write_signals(path, strip_base_starts(records))
        assert all(record.signal.n_bases == 0 for record in iter_signals(path))
        config = SegmentationConfig()
        serial = DatasetEngine(ser_system, workers=1, batch_size=2).run(
            SignalStoreSource(path, segmentation=config)
        )
        pooled = DatasetEngine(ser_system, workers=2, batch_size=2).run(
            SignalStoreSource(path, segmentation=config)
        )
        assert pooled.outcomes == serial.outcomes
        assert pooled.counters == serial.counters
        # Segmentation gave every read a usable grid.
        assert all(outcome.n_chunks_total >= 1 for outcome in serial.outcomes)
        assert all(outcome.read_length > 0 for outcome in serial.outcomes)

    def test_outcome_record_omits_ser_when_absent(self, serial_report):
        screened = next(o for o in serial_report.outcomes if o.ser is not None)
        record = outcome_to_record(screened)
        assert "ser" in record
        assert outcome_from_record(record) == screened
        unscreened_record = {**record}
        del unscreened_record["ser"]
        # Pre-SER records (no "ser" key) replay unchanged.
        assert outcome_from_record(unscreened_record).ser is None


# --- perf cost hook ---------------------------------------------------------


class TestPerfHook:
    @pytest.fixture(scope="class")
    def ser_workload(self, ser_system, backend, genomic_reads, junk_signal_read):
        reads = [
            SignalRead(read_id=read.read_id, signal=backend.synthesize_signal(read))
            for read in genomic_reads
        ] + [junk_signal_read]
        report = ser_system.run(reads)
        return report, PipelineWorkload.from_report(report)

    def test_ser_fields_populated(self, ser_workload):
        report, workload = ser_workload
        rejected = [
            o for o in report.outcomes if o.status is ReadStatus.REJECTED_SIGNAL
        ]
        assert workload.ser_rejected_reads == len(rejected) == 1
        assert workload.ser_skipped_bases == sum(o.read_length for o in rejected)
        # Every signal read was screened, rejected or not.
        assert workload.ser_screened_bases == sum(
            o.ser.prefix_bases for o in report.outcomes if o.ser is not None
        )
        assert workload.ser_screened_bases >= 100 * len(report.outcomes)
        # The rejected read contributes no basecalled / batch-mapped bases.
        assert workload.basecalled_bases < workload.total_bases
        assert workload.mapped_bases_batch <= workload.total_bases - workload.ser_skipped_bases

    def test_estimates_charge_the_filter(self, ser_workload):
        _, workload = ser_workload
        estimate = evaluate_system("GenPIP", workload)
        assert estimate.breakdown["signal_filter"] > 0
        doubled = evaluate_system("GenPIP", workload.scaled(2.0))
        assert doubled.breakdown["signal_filter"] == pytest.approx(
            2 * estimate.breakdown["signal_filter"]
        )

    def test_no_ser_no_filter_key(self, tiny_index, backend, tiny_dataset):
        report = GenPIPPipeline(tiny_index, GenPIPConfig(), align=False).run(
            tiny_dataset.reads[:3]
        )
        workload = PipelineWorkload.from_report(report)
        assert workload.ser_screened_bases == 0
        assert "signal_filter" not in evaluate_system("GenPIP", workload).breakdown


# --- carried current --------------------------------------------------------


class TestCalibration:
    """Containers hold picoampere samples, the pore model's units, so
    carried current reaches the decoder exactly as stored."""

    def test_identity_calibration_is_a_no_op(self, backend, genomic_reads, tmp_path):
        path = tmp_path / "pa.rsig"
        write_signals(path, backend.signal_records(genomic_reads[:1]))
        read = SignalRead.from_record(next(iter_signals(path)))
        assert backend.read_signal(read) is read.signal


# --- CLI --------------------------------------------------------------------


class TestSignalERCLI:
    CLI_ARGS = [
        "--profile", "ecoli-like",
        "--scale", "0.0001",
        "--seed", "7",
        "--max-read-length", "900",
        "--basecaller", "viterbi",
        "--source", "signals",
        "--signal-er",
        "--signal-er-templates", "3",
        "--quiet",
    ]

    def test_serial_equals_parallel_byte_for_byte(self, tmp_path):
        store = tmp_path / "signals.rsig"
        serial_json = tmp_path / "serial.json"
        parallel_json = tmp_path / "parallel.json"
        base = self.CLI_ARGS + ["--store", str(store)]
        assert cli_main(base + ["--workers", "1", "--json", str(serial_json)]) == 0
        assert (
            cli_main(
                base
                + ["--workers", "2", "--batch-size", "2", "--json", str(parallel_json)]
            )
            == 0
        )
        assert serial_json.read_bytes() == parallel_json.read_bytes()
        document = json.loads(serial_json.read_text())
        assert document["run"]["signal_er"] == {"templates": 3, "threshold": 0.17}
        assert "ser_rejection_ratio" in document["summary"]
        # A sparse 3-template screen over the full reference rejects
        # most reads -- the point is that the count is now visible.
        assert document["summary"]["status_counts"].get("rejected_signal", 0) > 0
        screened = [r for r in document["reads"] if "ser" in r]
        assert screened and all("best_cost" in r["ser"] for r in screened)

    def test_segmentation_writes_gridless_container(self, tmp_path):
        store = tmp_path / "raw.rsig"
        out = tmp_path / "report.json"
        args = self.CLI_ARGS + [
            "--store", str(store), "--segmentation", "--workers", "1",
            "--json", str(out),
        ]
        assert cli_main(args) == 0
        # The container genuinely lacks grids; the report still has a
        # usable chunk accounting (grids recovered by segmentation).
        assert all(record.signal.n_bases == 0 for record in iter_signals(store))
        document = json.loads(out.read_text())
        assert document["run"]["segmentation"] is True
        assert document["summary"]["total_chunks"] > 0
        assert document["summary"]["total_bases"] > 0

    def test_segmentation_container_provenance_is_sticky(self, tmp_path):
        store = tmp_path / "raw.rsig"
        args = self.CLI_ARGS + ["--store", str(store), "--segmentation", "--workers", "1"]
        assert cli_main(args) == 0
        with pytest.raises(SystemExit):
            # Reusing a grid-less container without --segmentation must
            # be refused, not silently decoded as zero-length reads.
            cli_main(self.CLI_ARGS + ["--store", str(store), "--workers", "1"])

    def test_signal_flags_require_signal_source(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["--signal-er", "--quiet"])
        with pytest.raises(SystemExit):
            cli_main(["--segmentation", "--quiet"])

    def test_threshold_validation(self, tmp_path):
        store = tmp_path / "signals.rsig"
        with pytest.raises(SystemExit):
            cli_main(
                self.CLI_ARGS
                + ["--store", str(store), "--signal-er-threshold", "0"]
            )

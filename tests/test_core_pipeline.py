"""Integration tests for the chunk-based pipeline, ER, and dataset runs.

The heavyweight fixtures are session-scoped: one small dataset, one
index, and the reports of a few pipeline configurations shared by all
assertions.
"""

import dataclasses

import numpy as np
import pytest

from repro.basecalling import SurrogateBasecaller
from repro.basecalling.engines import ViterbiBackendConfig, ViterbiChunkBasecaller
from repro.core import (
    GenPIPConfig,
    GenPIPPipeline,
    ReadStatus,
)
from repro.mapping import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile
from repro.nanopore.read_simulator import ReadClass
from repro.nanopore.signal_read import SignalRead
from repro.signal import SignalRejectionPolicy


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(small_profile(ECOLI_LIKE, max_read_length=6_000), scale=0.0015, seed=7)


@pytest.fixture(scope="module")
def index(dataset):
    return MinimizerIndex.build(dataset.reference)


@pytest.fixture(scope="module")
def genpip_report(dataset, index):
    return GenPIPPipeline(index, GenPIPConfig(n_qs=2, n_cm=5)).run(dataset)


@pytest.fixture(scope="module")
def conventional_outcomes(dataset, index):
    pipeline = GenPIPPipeline(index, config=GenPIPConfig().conventional())
    return [pipeline.process_read(read) for read in dataset.reads]


@pytest.fixture(scope="module")
def truth(dataset):
    return {read.read_id: read for read in dataset.reads}


class TestEquivalence:
    """CP with ER off computes exactly what the conventional pipeline does."""

    def test_identical_statuses(self, dataset, index, conventional_outcomes):
        cp = GenPIPPipeline(index, GenPIPConfig(enable_qsr=False, enable_cmr=False))
        report = cp.run(dataset)
        for conv, chunked in zip(conventional_outcomes, report.outcomes, strict=True):
            assert conv.status == chunked.status

    def test_identical_mappings(self, dataset, index, conventional_outcomes):
        cp = GenPIPPipeline(index, GenPIPConfig(enable_qsr=False, enable_cmr=False))
        report = cp.run(dataset)
        for conv, chunked in zip(conventional_outcomes, report.outcomes, strict=True):
            if conv.mapping is None:
                assert chunked.mapping is None
                continue
            assert chunked.mapping is not None
            assert conv.mapping.ref_start == chunked.mapping.ref_start
            assert conv.mapping.strand == chunked.mapping.strand
            assert conv.mapping.chain_score == pytest.approx(chunked.mapping.chain_score)


class TestEarlyRejection:
    def test_qsr_targets_low_quality_reads(self, genpip_report, truth):
        rejected = [o for o in genpip_report.outcomes if o.status is ReadStatus.REJECTED_QSR]
        kept = [o for o in genpip_report.outcomes if o.status is not ReadStatus.REJECTED_QSR]
        assert rejected, "QSR must reject someone on this dataset"
        # Rejected reads are genuinely lower-quality than surviving ones
        # (FN rejections hover near the threshold, as in the paper).
        q_rejected = np.mean([truth[o.read_id].mean_true_quality for o in rejected])
        q_kept = np.mean([truth[o.read_id].mean_true_quality for o in kept])
        assert q_rejected < 8.0 < q_kept
        near_threshold = sum(
            truth[o.read_id].mean_true_quality < 8.5 for o in rejected
        )
        assert near_threshold / len(rejected) > 0.7

    def test_cmr_catches_junk_reads(self, genpip_report, truth):
        junk_ids = {rid for rid, read in truth.items() if read.read_class is ReadClass.JUNK}
        cmr_ids = {
            o.read_id
            for o in genpip_report.outcomes
            if o.status is ReadStatus.REJECTED_CMR
        }
        qsr_ids = {
            o.read_id
            for o in genpip_report.outcomes
            if o.status is ReadStatus.REJECTED_QSR
        }
        # Every junk read must be stopped early (by CMR, or QSR if it
        # also happened to be low quality).
        assert junk_ids <= (cmr_ids | qsr_ids)
        assert junk_ids & cmr_ids, "CMR must catch junk reads"

    def test_rejected_reads_save_basecalling(self, genpip_report):
        for outcome in genpip_report.outcomes:
            if outcome.status is ReadStatus.REJECTED_QSR:
                assert outcome.n_chunks_basecalled <= genpip_report.config.n_qs
            if outcome.status is ReadStatus.REJECTED_CMR:
                budget = genpip_report.config.n_qs + genpip_report.config.n_cm
                assert outcome.n_chunks_basecalled <= budget

    def test_savings_positive(self, genpip_report):
        assert genpip_report.basecall_savings > 0.1

    def test_completed_reads_fully_basecalled(self, genpip_report):
        for outcome in genpip_report.outcomes:
            if outcome.status in (ReadStatus.MAPPED, ReadStatus.UNMAPPED):
                assert outcome.n_chunks_basecalled == outcome.n_chunks_total

    def test_normal_reads_mostly_survive_and_map(self, genpip_report, truth):
        normal = [
            o
            for o in genpip_report.outcomes
            if truth[o.read_id].read_class is ReadClass.NORMAL
        ]
        mapped = sum(o.status is ReadStatus.MAPPED for o in normal)
        # Most normal reads map; the shortfall is QSR's near-threshold
        # false negatives (paper Sec. 6.3.1 accepts the same effect).
        assert mapped / len(normal) > 0.7

    def test_mapped_positions_match_truth(self, genpip_report, truth):
        for outcome in genpip_report.outcomes:
            if outcome.status is not ReadStatus.MAPPED:
                continue
            read = truth[outcome.read_id]
            if read.read_class is ReadClass.JUNK:
                continue
            assert abs(outcome.mapping.ref_start - read.ref_start) < 1_000
            assert outcome.mapping.strand == read.strand


class TestVariants:
    def test_qsr_only_variant(self, dataset, index):
        report = GenPIPPipeline(index, GenPIPConfig(enable_cmr=False)).run(dataset)
        assert report.count(ReadStatus.REJECTED_CMR) == 0
        assert report.count(ReadStatus.REJECTED_QSR) > 0

    def test_cp_only_variant_uses_read_level_qc(self, dataset, index):
        report = GenPIPPipeline(index, GenPIPConfig(enable_qsr=False, enable_cmr=False)).run(dataset)
        assert report.count(ReadStatus.REJECTED_QSR) == 0
        assert report.count(ReadStatus.REJECTED_CMR) == 0
        assert report.count(ReadStatus.FAILED_QC) > 0

    def test_cmr_only_variant_keeps_its_decision_on_failed_qc(self):
        """Every exit carries the decisions of the stages that ran before
        it: with QSR off and CMR on, a read that fails read-level QC did
        run (and pass) the CMR probe, so its record says so."""
        dataset = generate_dataset(
            small_profile(ECOLI_LIKE, max_read_length=3_000), scale=0.001, seed=3
        )
        system = GenPIPPipeline(
            MinimizerIndex.build(dataset.reference),
            GenPIPConfig(enable_qsr=False, enable_cmr=True),
            align=False,
        )
        outcomes = [system.process_read(read) for read in dataset.reads]
        failed = [o for o in outcomes if o.status is ReadStatus.FAILED_QC]
        assert failed, "this dataset must have reads that fail read-level QC"
        for outcome in failed:
            assert outcome.qsr is None
            assert outcome.n_chain_invocations == 1 and outcome.n_chunks_seeded > 0
            assert outcome.cmr is not None and not outcome.cmr.reject

    def test_savings_ordering(self, dataset, index, genpip_report):
        """Full ER saves at least as much basecalling as QSR alone."""
        qsr_only = GenPIPPipeline(index, GenPIPConfig(enable_cmr=False)).run(dataset)
        no_er = GenPIPPipeline(index, GenPIPConfig(enable_qsr=False, enable_cmr=False)).run(dataset)
        assert no_er.basecall_savings == pytest.approx(0.0)
        assert qsr_only.basecall_savings > 0
        assert genpip_report.basecall_savings >= qsr_only.basecall_savings

    def test_align_false_skips_alignment(self, dataset, index):
        report = GenPIPPipeline(index, align=False).run(dataset)
        assert all(not o.aligned for o in report.outcomes)
        assert report.mapped_ratio > 0.3


class TestChunkSizeSweep:
    @pytest.mark.parametrize("chunk_size", [300, 400, 500])
    def test_results_robust_to_chunk_size(self, dataset, index, chunk_size):
        """Fig. 10/11's observation: behaviour is stable across chunk sizes."""
        config = GenPIPConfig(chunk_size=chunk_size)
        report = GenPIPPipeline(index, config).run(dataset)
        assert 0.3 < report.mapped_ratio < 0.9
        assert report.basecall_savings > 0.05


class TestReport:
    def test_counters_consistent(self, genpip_report):
        total = sum(genpip_report.count(s) for s in ReadStatus)
        assert total == genpip_report.n_reads
        assert genpip_report.chunks_basecalled <= genpip_report.total_chunks
        assert genpip_report.bases_basecalled <= genpip_report.total_bases

    def test_mean_identity_range(self, genpip_report):
        assert 0.8 < genpip_report.mean_identity() < 1.0

    def test_outcome_properties(self, genpip_report):
        for outcome in genpip_report.outcomes:
            assert 0 < outcome.n_chunks_basecalled <= outcome.n_chunks_total
            assert 0 < outcome.n_bases_basecalled
            assert outcome.n_chunks_seeded <= outcome.n_chunks_basecalled
            assert outcome.aligned == (outcome.mapping is not None and outcome.mapping.mapped)


class TestShortReads:
    def test_single_chunk_read_skips_er(self, index, dataset):
        """Reads below min_chunks_for_er bypass sampling entirely."""
        from dataclasses import replace

        read = dataset.reads[0]
        short = replace(
            read,
            true_codes=read.true_codes[:200],
            qualities=np.full(200, 2.0),  # terrible quality
        )
        pipeline = GenPIPPipeline(index, config=GenPIPConfig(min_chunks_for_er=2))
        outcome = pipeline.process_read(short)
        # One chunk only: ER skipped, read fully processed (QSR off for
        # it), so it lands in a terminal non-ER state.
        assert outcome.n_chunks_total == 1
        assert outcome.status not in (ReadStatus.REJECTED_QSR, ReadStatus.REJECTED_CMR)


class CountingBasecaller:
    """An engine (default: the surrogate) that records every call: the
    ``(read id, indices)`` of each of its requests."""

    def __init__(self, engine=None):
        self.engine = engine or SurrogateBasecaller()
        self.calls: list[list[tuple[str, list[int]]]] = []

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def basecall_many(self, requests, chunk_size):
        self.calls.append([(read.read_id, list(indices)) for read, indices in requests])
        return self.engine.basecall_many(requests, chunk_size)


class TestOneEngineCallPerStage:
    """A unit decodes stage-major, in three engine calls at most: one
    for the QSR sample of every eligible read SER kept, one for the CMR
    merge sets of the reads QSR kept (the chunks not decoded yet), then
    one for the remainder of every read still going, in unit order."""

    @pytest.fixture(params=["qsr", "no-qsr", "ser"])
    def unit(self, request):
        """A unit's reads and the pipeline that runs them. The ``ser``
        unit is signal reads under Viterbi, screened by SER templates
        cut where the genomic reads start on the plus strand: it rejects
        some reads and keeps the others. Its reads are 2-3 chunks long,
        so QSR samples chunk 0 and CMR merges chunks 0-1, leaving the
        remainder call chunk 2."""
        if request.param != "ser":
            config = GenPIPConfig(n_qs=2, n_cm=5, enable_qsr=request.param == "qsr")
            index = request.getfixturevalue("index")
            return list(request.getfixturevalue("dataset").reads), GenPIPPipeline(index, config)
        config = GenPIPConfig(n_qs=1, n_cm=2)
        engine = ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3))
        data = generate_dataset(small_profile(ECOLI_LIKE, max_read_length=1_500), scale=0.0002, seed=7)
        policy = SignalRejectionPolicy.from_reference(
            engine.pore_model,
            data.reference.codes,
            segment_starts=[r.ref_start for r in data.reads if r.ref_start is not None and r.strand == 1],
        )
        reads = [SignalRead(read_id=r.read_id, signal=engine.synthesize_signal(r)) for r in data.reads]
        index = MinimizerIndex.build(data.reference)
        return reads, GenPIPPipeline(index, config, engine, align=False, ser_policy=policy)

    def test_calls_per_unit(self, unit):
        reads, plain = unit
        config = plain.config
        expected = [plain.process_read(read) for read in reads]
        engine = CountingBasecaller(plain.basecaller)
        pipeline = dataclasses.replace(plain, basecaller=engine)
        assert pipeline.process_batch(reads) == expected

        decoded = {read.read_id: set() for read in reads}

        def call(wanted):
            """The requests of one call: each read's chunks not decoded yet."""
            requests = []
            for outcome, indices in wanted:
                todo = [i for i in indices if i not in decoded[outcome.read_id]]
                decoded[outcome.read_id].update(todo)
                if todo:
                    requests.append((outcome.read_id, todo))
            return requests

        screened_out = {o.read_id for o in expected if o.status is ReadStatus.REJECTED_SIGNAL}
        eligible = [
            o
            for o in expected
            if o.n_chunks_total >= config.min_chunks_for_er and o.read_id not in screened_out
        ]
        probes = []
        if config.enable_qsr:
            probes.append(call((o, plain._qsr.sample_indices(o.n_chunks_total)) for o in eligible))
        kept = [o for o in eligible if o.status is not ReadStatus.REJECTED_QSR]
        probes.append(call((o, plain._cmr.merged_chunk_indices(o.n_chunks_total)) for o in kept))
        remainder = call((o, range(o.n_chunks_total)) for o in expected if not o.rejected_early)
        assert engine.calls == [*probes, remainder]
        # Every call is shared: a unit makes as many calls as it has
        # stages, whatever its read count.
        assert all(len(requests) > 1 for requests in engine.calls)
        # SER rejects before any decode: a rejected read is in no call.
        assert not screened_out & {read_id for call in engine.calls for read_id, _ in call}
        if plain.ser_policy is not None:
            kept_by_ser = [o for o in expected if o.ser is not None and not o.ser.reject]
            assert screened_out and len(kept_by_ser) > 1
        for outcome in expected:
            assert outcome.n_chunks_basecalled == sum(
                len(indices)
                for call in engine.calls
                for read_id, indices in call
                if read_id == outcome.read_id
            )

    def test_one_read_unit_makes_the_per_read_calls(self, dataset, index, genpip_report):
        """A unit of one (``process_read``, a served read) makes one call
        per stage that has chunks to decode, as a read always did."""
        calls = {
            ReadStatus.MAPPED: 3,
            ReadStatus.UNMAPPED: 3,
            ReadStatus.REJECTED_CMR: 2,
            ReadStatus.REJECTED_QSR: 1,
        }
        expected = {o.read_id: o for o in genpip_report.outcomes}
        seen = set()
        for read in dataset.reads:
            engine = CountingBasecaller()
            pipeline = GenPIPPipeline(index, basecaller=engine, config=GenPIPConfig(n_qs=2, n_cm=5))
            outcome = pipeline.process_read(read)
            assert outcome == expected[read.read_id]
            if outcome.n_chunks_total >= 7:
                assert len(engine.calls) == calls[outcome.status], outcome.status
                assert all(len(call) == 1 for call in engine.calls)
                seen.add(outcome.status)
        assert {ReadStatus.MAPPED, ReadStatus.REJECTED_CMR, ReadStatus.REJECTED_QSR} <= seen

    def test_stage_with_nothing_left_to_decode_makes_no_call(self, dataset, index, genpip_report):
        """QSR samples every chunk (``n_qs`` at least the chunk count):
        the merge set and the remainder are already decoded, so a mapped
        read costs one engine call."""
        mapped = {
            o.read_id
            for o in genpip_report.outcomes
            if o.status is ReadStatus.MAPPED and o.n_chunks_total >= 7 and o.mean_quality > 10
        }
        read = next(r for r in dataset.reads if r.read_id in mapped)
        engine = CountingBasecaller()
        config = GenPIPConfig(n_qs=engine.n_chunks(read, 300))
        outcome = GenPIPPipeline(index, basecaller=engine, config=config).process_read(read)
        assert outcome.status is ReadStatus.MAPPED
        assert engine.calls == [[(read.read_id, list(range(outcome.n_chunks_total)))]]


class TestConfigIsTheOnlyHome:
    """``GenPIPConfig`` is the one home of the ER parameters: the QSR and
    CMR policies are derived from it, so ``dataclasses.replace`` with a
    new config re-derives them rather than keeping the old ones."""

    def test_replaced_config_decides_like_a_fresh_pipeline(self, dataset, index):
        reads = dataset.reads[:40]
        first = GenPIPConfig(n_qs=2, theta_qs=7.0, n_cm=5, theta_cm=0.04)
        other = GenPIPConfig(n_qs=5, theta_qs=9.0, n_cm=3, theta_cm=0.2)
        pipeline = GenPIPPipeline(index, config=first)
        amended = dataclasses.replace(pipeline, config=other)
        fresh = GenPIPPipeline(index, config=other).process_batch(reads)
        assert amended.process_batch(reads) == fresh
        assert pipeline.process_batch(reads) != fresh

    def test_replace_rederives_both_policies(self, index):
        first = GenPIPConfig(n_qs=2, n_cm=5)
        other = GenPIPConfig(n_qs=5, n_cm=3)
        pipeline = GenPIPPipeline(index, config=first)
        amended = dataclasses.replace(pipeline, config=other)
        assert amended._qsr.config is other and amended._cmr.config is other
        assert pipeline._qsr.config is first and pipeline._cmr.config is first
        rebound = dataclasses.replace(pipeline, index=index)
        assert rebound._qsr == pipeline._qsr and rebound._cmr == pipeline._cmr

    def test_init_fields_are_the_constructor_arguments(self):
        init_fields = [f.name for f in dataclasses.fields(GenPIPPipeline) if f.init]
        assert init_fields == ["index", "config", "basecaller", "align", "ser_policy"]

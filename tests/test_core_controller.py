"""Tests for the GenPIP controller's structural model (Sec. 4.2)."""

import pytest

from repro.core import AQSCalculator, ControllerTrace, GenPIPConfig, GenPIPPipeline
from repro.core.pipeline import ReadOutcome, ReadStatus
from repro.hardware.edram import EDramBuffer
from repro.mapping import MinimizerIndex
from repro.nanopore.datasets import ECOLI_LIKE, generate_dataset, small_profile


def _outcome(status=ReadStatus.MAPPED, read_length=3_000, basecalled=3_000):
    return ReadOutcome(
        read_id="r",
        status=status,
        read_length=read_length,
        n_chunks_total=10,
        n_chunks_basecalled=10,
        n_bases_basecalled=basecalled,
        n_chunks_seeded=10,
        n_chain_invocations=1,
        aligned=True,
    )


class TestAQSCalculator:
    def test_incremental_merge_equals_batch(self):
        """Eq. 3 == Eq. 1: chunk-merged AQS equals whole-read AQS."""
        calc = AQSCalculator()
        chunks = [(900.0, 100), (450.0, 50), (2_100.0, 300)]
        for sqs, n in chunks:
            calc = calc.merged(sqs, n)
        total_q = sum(s for s, _ in chunks)
        total_n = sum(n for _, n in chunks)
        assert calc.average == pytest.approx(total_q / total_n)

    def test_empty_average(self):
        assert AQSCalculator().average == 0.0

    def test_negative_bases_rejected(self):
        with pytest.raises(ValueError):
            AQSCalculator().merged(10.0, -1)

    def test_immutable_merge(self):
        calc = AQSCalculator()
        merged = calc.merged(100.0, 10)
        assert calc.n_bases == 0
        assert merged.n_bases == 10


class TestControllerTrace:
    def test_er_signal_counting(self):
        trace = ControllerTrace()
        trace.observe_read(_outcome(ReadStatus.REJECTED_QSR))
        trace.observe_read(_outcome(ReadStatus.REJECTED_CMR))
        trace.observe_read(_outcome(ReadStatus.MAPPED))
        assert trace.n_qsr_signals == 1
        assert trace.n_cmr_signals == 1
        assert trace.er_signal_ratio == pytest.approx(2 / 3)

    def test_peak_tracking(self):
        trace = ControllerTrace()
        trace.observe_read(_outcome(read_length=1_000, basecalled=1_000))
        trace.observe_read(_outcome(read_length=5_000, basecalled=5_000))
        trace.observe_read(_outcome(read_length=2_000, basecalled=2_000))
        assert trace.peak_read_queue_bytes == 5_000 * 12
        assert trace.peak_chunk_buffer_bytes == 5_000 * 2

    def test_overflow_detection(self):
        tiny = ControllerTrace(
            read_queue=EDramBuffer("rq", 1_000), chunk_buffer=EDramBuffer("cb", 1_000)
        )
        tiny.observe_read(_outcome(read_length=10_000, basecalled=10_000))
        assert tiny.read_queue_overflows == 1
        assert tiny.chunk_buffer_overflows == 1

    def test_paper_buffers_cover_longest_reads(self):
        """The paper's 6 MB read queue / 2.3 Mbase chunk buffer hold the
        longest simulated reads with room to spare."""
        dataset = generate_dataset(small_profile(ECOLI_LIKE), scale=0.001, seed=3)
        index = MinimizerIndex.build(dataset.reference)
        report = GenPIPPipeline(index, GenPIPConfig(), align=False).run(dataset)
        trace = ControllerTrace().observe_run(report.outcomes)
        assert trace.read_queue_overflows == 0
        assert trace.chunk_buffer_overflows == 0
        assert 0.0 < trace.peak_read_queue_utilisation < 1.0
        summary = trace.summary()
        assert summary["reads"] == report.n_reads

    def test_empty_trace(self):
        trace = ControllerTrace()
        assert trace.er_signal_ratio == 0.0
        assert trace.peak_read_queue_utilisation == 0.0

"""Tests for the read simulator and dataset presets (Table 1 fidelity)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.basecalling import chunk_count
from repro.genomics.alphabet import reverse_complement
from repro.genomics.reference import ReferenceGenome
from repro.nanopore.datasets import (
    ECOLI_LIKE,
    HUMAN_LIKE,
    PRESETS,
    generate_dataset,
    small_profile,
)
from repro.nanopore.read_simulator import (
    QualityProcessConfig,
    ReadClass,
    ReadSimulator,
    SimulatorConfig,
)


@pytest.fixture(scope="module")
def simulator():
    reference = ReferenceGenome.random(150_000, seed=2)
    return ReadSimulator(reference, SimulatorConfig(), seed=3)


class TestReadSampling:
    def test_deterministic(self):
        ref = ReferenceGenome.random(50_000, seed=1)
        a = ReadSimulator(ref, SimulatorConfig(), seed=5).sample_reads(10)
        b = ReadSimulator(ref, SimulatorConfig(), seed=5).sample_reads(10)
        for ra, rb in zip(a, b, strict=True):
            assert ra.read_id == rb.read_id
            np.testing.assert_array_equal(ra.true_codes, rb.true_codes)
            np.testing.assert_allclose(ra.qualities, rb.qualities)

    def test_read_ids_unique(self, simulator):
        reads = simulator.sample_reads(50)
        assert len({r.read_id for r in reads}) == 50

    def test_mapped_reads_match_reference(self, simulator):
        for read in simulator.sample_reads(40):
            if read.read_class is ReadClass.JUNK:
                assert read.ref_start is None
                continue
            region = simulator.reference.fetch(read.ref_start, read.ref_end, read.strand)
            np.testing.assert_array_equal(read.true_codes, region)

    def test_strand_orientation(self, simulator):
        # A reverse-strand read equals the revcomp of the forward fetch.
        for read in simulator.sample_reads(60):
            if read.read_class is ReadClass.JUNK or read.strand == 1:
                continue
            fwd = simulator.reference.fetch_bases(read.ref_start, read.ref_end, 1)
            assert read.true_bases == reverse_complement(fwd)
            break
        else:
            pytest.skip("no reverse-strand mapped read sampled")

    def test_quality_track_alignment(self, simulator):
        read = simulator.sample_read()
        assert read.qualities.shape == (len(read),)
        assert read.qualities.min() >= QualityProcessConfig().floor
        assert read.qualities.max() <= QualityProcessConfig().ceiling

    def test_n_chunks(self, simulator):
        """A read's chunk grid is the shared one over its length."""
        read = simulator.sample_read()
        assert chunk_count(len(read), 300) == -(-len(read) // 300)
        assert chunk_count(len(read), 10**9) == 1
        with pytest.raises(ValueError):
            chunk_count(len(read), 0)

    def test_sample_reads_negative(self, simulator):
        with pytest.raises(ValueError):
            simulator.sample_reads(-1)

    def test_class_fractions(self):
        ref = ReferenceGenome.random(100_000, seed=4)
        config = SimulatorConfig(low_quality_fraction=0.2, junk_fraction=0.1)
        reads = ReadSimulator(ref, config, seed=6).sample_reads(800)
        junk = sum(r.read_class is ReadClass.JUNK for r in reads) / len(reads)
        low = sum(r.read_class is ReadClass.LOW_QUALITY for r in reads) / len(reads)
        assert junk == pytest.approx(0.1, abs=0.035)
        assert low == pytest.approx(0.2, abs=0.045)

    def test_quality_clusters_separate(self):
        ref = ReferenceGenome.random(60_000, seed=8)
        reads = ReadSimulator(ref, SimulatorConfig(), seed=9).sample_reads(300)
        low = [r.mean_true_quality for r in reads if r.read_class is ReadClass.LOW_QUALITY]
        high = [r.mean_true_quality for r in reads if r.read_class is ReadClass.NORMAL]
        assert np.mean(low) < 6.0 < np.mean(high)


class TestQualityProcess:
    def test_chunk_correlation(self):
        """Consecutive chunk qualities correlate (Fig. 7 behaviour)."""
        ref = ReferenceGenome.random(80_000, seed=10)
        config = SimulatorConfig(median_length=30_000, mean_length=31_000, min_length=20_000)
        reads = ReadSimulator(ref, config, seed=11).sample_reads(12)
        correlations = []
        for read in reads:
            n = len(read) // 300
            chunk_q = read.qualities[: n * 300].reshape(n, 300).mean(axis=1)
            if n > 10:
                c = np.corrcoef(chunk_q[:-1], chunk_q[1:])[0, 1]
                correlations.append(c)
        assert np.mean(correlations) > 0.2

    def test_ar1_config_validation(self):
        assert 0.0 < QualityProcessConfig(correlation_length=100.0).phi() < 1.0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("correlation_length", -50.0),
            ("correlation_length", 0.0),
            ("correlation_length", float("nan")),
            ("correlation_length", float("inf")),
            ("process_std", -1.0),
            ("process_std", float("nan")),
            ("jitter_std", -0.5),
            ("jitter_std", float("inf")),
            ("floor", 31.0),
            ("floor", float("nan")),
            ("floor", float("-inf")),
            ("floor", -1.0),
            ("ceiling", float("inf")),
            ("burst_depth", float("nan")),
            ("burst_depth", float("inf")),
            ("burst_length", 2.5),
            ("burst_length", True),
            ("correlation_length", True),
        ],
    )
    def test_invalid_process_rejected_at_construction(self, field, value):
        """A negative or zero correlation length gave all-NaN tracks or a
        ZeroDivisionError; floor > ceiling flattened every base. A
        non-finite floor, ceiling or burst depth and a fractional burst
        length were accepted and failed, or clipped every quality to one
        value, only when reads were drawn; a negative floor emits
        qualities the read frame refuses."""
        with pytest.raises(ValueError):
            QualityProcessConfig(**{field: value})

    def test_equal_floor_and_ceiling_allowed(self):
        assert QualityProcessConfig(floor=5.0, ceiling=5.0).floor == 5.0


class TestSimulatorConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("short_read_fraction", 0.5),
            ("short_read_fraction", 0.7),
            ("short_read_fraction", 1.0),
            ("short_read_fraction", -0.1),
            ("short_read_fraction", float("nan")),
            ("median_length", float("nan")),
            ("median_length", float("inf")),
            ("mean_length", float("nan")),
            ("short_read_mean", -1.0),
            ("short_read_mean", float("nan")),
            ("low_quality_fraction", float("nan")),
            ("low_quality_fraction", -0.05),
            ("low_quality_fraction", float("-inf")),
            ("junk_fraction", -1.0),
            ("junk_fraction", float("nan")),
            ("low_quality_mean", float("nan")),
            ("high_quality_mean", float("inf")),
            ("low_quality_std", float("nan")),
            ("high_quality_std", -1.0),
            ("min_length", 2.5),
            ("max_length", 5_000.0),
            ("median_length", True),
        ],
    )
    def test_invalid_config_rejected_at_construction(self, field, value):
        """Each of these used to be accepted and then fail late (NaN
        lognormal parameters, a ZeroDivisionError, numpy's "scale < 0")
        or never. A NaN or negative class fraction compares False with
        every draw, so whole classes vanished: of 300 reads (seed 3) the
        default mixture draws 57 LOW_QUALITY, NaN or -0.05 drew none, and
        ``junk_fraction=-1`` only NORMAL ones."""
        with pytest.raises(ValueError):
            SimulatorConfig(**{field: value})

    def test_no_short_reads_is_a_valid_mixture(self):
        reference = ReferenceGenome.random(50_000, seed=1)
        config = SimulatorConfig(short_read_fraction=0.0, short_read_mean=0.0)
        reads = ReadSimulator(reference, config, seed=2).sample_reads(5)
        assert all(len(read) >= config.min_length for read in reads)


class TestDatasetPresets:
    def test_presets_registered(self):
        assert set(PRESETS) == {"ecoli-like", "human-like"}

    def test_scaled_read_count(self):
        assert ECOLI_LIKE.scaled_read_count(1.0) == 58_221
        assert ECOLI_LIKE.scaled_read_count(0.001) == 58
        with pytest.raises(ValueError):
            ECOLI_LIKE.scaled_read_count(0.0)
        with pytest.raises(ValueError):
            ECOLI_LIKE.scaled_read_count(True)

    @pytest.mark.parametrize(
        "field, value",
        [("full_read_count", float("nan")), ("full_read_count", 0), ("reference_length", 2.5),
         ("reference_seed", -1), ("reference_seed", True)],
    )
    def test_invalid_profile_rejected_at_construction(self, field, value):
        """Each was accepted and failed, if at all, only when a dataset
        was generated from the profile."""
        with pytest.raises(ValueError, match=field):
            replace(ECOLI_LIKE, **{field: value})

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")])
    def test_scaled_read_count_refuses_a_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match=f"scale must be a finite number > 0, got {scale}"):
            ECOLI_LIKE.scaled_read_count(scale)

    @pytest.mark.parametrize("profile", [ECOLI_LIKE, HUMAN_LIKE], ids=lambda p: p.name)
    def test_table1_shape(self, profile):
        """Generated statistics approximate Table 1 of the paper."""
        scale = 400 / profile.full_read_count
        dataset = generate_dataset(profile, scale=scale, seed=13)
        stats = dataset.stats()
        sim = profile.simulator
        assert stats.mean_length == pytest.approx(sim.mean_length, rel=0.15)
        assert stats.median_length == pytest.approx(sim.median_length, rel=0.15)
        # Mean quality lands within one quality point of the mixture's
        # intent (Table 1 values are matched to ~10%).
        assert 0 < stats.mean_quality < 20
        assert stats.junk_fraction == pytest.approx(sim.junk_fraction, abs=0.05)

    def test_ecoli_skew_directions(self):
        """E. coli: mean length > median; quality mean < median (Table 1)."""
        dataset = generate_dataset(ECOLI_LIKE, scale=0.01, seed=14)
        stats = dataset.stats()
        assert stats.mean_length > stats.median_length
        assert stats.mean_quality < stats.median_quality

    def test_human_skew_directions(self):
        """Human: mean length < median (Table 1's left-skewed lengths)."""
        dataset = generate_dataset(HUMAN_LIKE, scale=0.0015, seed=15)
        stats = dataset.stats()
        assert stats.mean_length < stats.median_length

    def test_stats_rows(self):
        dataset = generate_dataset(small_profile(ECOLI_LIKE), scale=0.0005, seed=16)
        rows = dataset.stats().rows()
        assert [label for label, _ in rows] == [
            "Mean read length",
            "Mean read quality",
            "Median read length",
            "Median read quality",
            "Number of reads",
            "Total bases",
        ]

    def test_small_profile_caps_length(self):
        profile = small_profile(ECOLI_LIKE, max_read_length=4_000)
        dataset = generate_dataset(profile, scale=0.002, seed=17)
        assert max(len(r) for r in dataset.reads) <= 4_000

    def test_shared_reference(self):
        ref = ReferenceGenome.random(60_000, seed=18)
        dataset = generate_dataset(small_profile(ECOLI_LIKE), scale=0.0005, seed=19, reference=ref)
        assert dataset.reference is ref

    def test_generate_deterministic(self):
        a = generate_dataset(small_profile(ECOLI_LIKE), scale=0.001, seed=20)
        b = generate_dataset(small_profile(ECOLI_LIKE), scale=0.001, seed=20)
        assert [r.read_id for r in a.reads] == [r.read_id for r in b.reads]
        np.testing.assert_array_equal(a.reads[0].true_codes, b.reads[0].true_codes)

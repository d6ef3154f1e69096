"""Tests for basecalling-free signal screening: the sDTW kernel and the
SER policy that screens a read's current prefix with it."""

import numpy as np
import pytest

from repro.genomics.reference import ReferenceGenome
from repro.kernels.sdtw import sdtw_cost, znormalise
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal import RawSignal, SignalConfig, synthesize_signal
from repro.nanopore.signal_read import SignalRead
from repro.signal.rejection import SignalRejectionPolicy


@pytest.fixture(scope="module")
def pore():
    return PoreModel.synthetic(k=5, seed=7)


@pytest.fixture(scope="module")
def reference():
    return ReferenceGenome.random(60_000, seed=31)


class TestZNormalise:
    def test_zero_mean_unit_std(self):
        z = znormalise(np.array([1.0, 2.0, 3.0, 4.0]))
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0)

    def test_constant_input(self):
        np.testing.assert_array_equal(znormalise(np.full(5, 3.0)), np.zeros(5))

    def test_empty(self):
        assert znormalise(np.empty(0)).size == 0

    def test_gain_offset_invariance(self):
        x = np.array([1.0, 5.0, 2.0, 8.0])
        np.testing.assert_allclose(znormalise(x), znormalise(3.0 * x + 10.0), atol=1e-12)


class TestSubsequenceDTW:
    def test_exact_subsequence_is_cheap(self):
        # An iid reference keeps slice statistics close to global ones,
        # so the z-normalised exact subsequence costs nearly nothing.
        rng = np.random.default_rng(0)
        reference = rng.normal(size=400)
        query = reference[100:200]
        assert sdtw_cost(query, reference) < 0.01

    def test_mismatched_query_costs_more(self):
        rng = np.random.default_rng(0)
        reference = rng.normal(size=300)
        matched = reference[30:130]
        junk = rng.normal(size=100)
        assert sdtw_cost(junk, reference) > 3 * sdtw_cost(matched, reference)

    def test_warping_tolerated(self):
        # Stretch the query 2x: DTW should still find a cheap match.
        rng = np.random.default_rng(1)
        reference = rng.normal(size=300)
        stretched = np.repeat(reference[40:120], 2)
        assert sdtw_cost(stretched, reference) < 0.05

    def test_empty_query(self):
        assert sdtw_cost(np.empty(0), np.ones(10)) == 0.0

    def test_empty_reference(self):
        assert sdtw_cost(np.ones(5), np.empty(0)) == float("inf")

    def test_perfect_match_zero_cost(self):
        # Query == reference: the diagonal path has zero squared
        # difference everywhere (identical z-normalisation), so the
        # subsequence cost is exactly zero.
        rng = np.random.default_rng(7)
        reference = rng.normal(size=150)
        assert sdtw_cost(reference, reference) == 0.0
        # Same holds under any affine distortion of the query
        # (z-normalisation cancels gain and offset).
        assert sdtw_cost(3.5 * reference - 11.0, reference) == pytest.approx(0.0, abs=1e-24)

    def test_query_longer_than_reference(self):
        # A query longer than the reference is legal (DTW may dwell on
        # reference samples); a 2x-stretched copy of the whole
        # reference still matches cheaply, junk of the same length does
        # not.
        rng = np.random.default_rng(9)
        reference = rng.normal(size=120)
        stretched = np.repeat(reference, 2)
        junk = rng.normal(size=stretched.size)
        matched = sdtw_cost(stretched, reference)
        mismatched = sdtw_cost(junk, reference)
        assert np.isfinite(matched) and np.isfinite(mismatched)
        assert matched < 0.05
        assert mismatched > 3 * matched

    def test_cost_normalised_by_length(self):
        rng = np.random.default_rng(3)
        reference = rng.normal(size=300)
        short = sdtw_cost(rng.normal(size=40), reference)
        long = sdtw_cost(rng.normal(size=120), reference)
        # Per-sample normalisation keeps costs on one scale.
        assert 0.05 < short < 10.0
        assert 0.05 < long < 10.0


class TestSignalPrefilter:
    """The screen as :class:`SignalRejectionPolicy` runs it (the class
    keeps its name so the test ids stay stable)."""

    @pytest.fixture(scope="class")
    def setup(self, pore, reference):
        # Templates covering three known segments.
        starts = [5_000, 20_000, 40_000]
        policy = SignalRejectionPolicy.from_reference(
            pore, reference.codes, segment_starts=starts, segment_bases=250, prefix_bases=150
        )
        config = SignalConfig(dwell_mean=4.0, dwell_min=2, noise_std=1.5)
        return policy, config, starts

    def test_template_count(self, setup, pore, reference):
        policy, _, starts = setup
        assert policy.n_templates == len(starts)

    def test_genomic_prefix_accepted(self, setup, pore, reference):
        policy, config, starts = setup
        signal = synthesize_signal(
            reference.fetch(starts[1], starts[1] + 400), pore, config, np.random.default_rng(2)
        )
        decision = policy.decide(SignalRead("genomic", signal))
        assert not decision.reject
        assert decision.best_cost < decision.threshold

    def test_junk_prefix_rejected(self, setup, pore):
        policy, config, _ = setup
        junk_codes = np.random.default_rng(3).integers(0, 4, 400).astype(np.uint8)
        signal = synthesize_signal(junk_codes, pore, config, np.random.default_rng(4))
        assert policy.decide(SignalRead("junk", signal)).reject

    def test_junk_rejection_rate(self, setup, pore, reference):
        """Most random-signal reads are rejected without basecalling."""
        _, config, starts = setup
        policy = SignalRejectionPolicy.from_reference(
            pore, reference.codes, segment_starts=starts, prefix_bases=120
        )
        rejected = 0
        for seed in range(10):
            junk = np.random.default_rng(100 + seed).integers(0, 4, 350).astype(np.uint8)
            signal = synthesize_signal(junk, pore, config, np.random.default_rng(200 + seed))
            if policy.decide(SignalRead(f"junk-{seed}", signal)).reject:
                rejected += 1
        assert rejected >= 8

    def test_empty_signal_rejected(self, setup):
        policy, _, _ = setup
        empty = RawSignal(samples=np.empty(0, np.float32), base_starts=np.empty(0, np.int64))
        assert policy.decide(SignalRead("empty", empty)).reject

    def test_validation(self):
        with pytest.raises(ValueError):
            SignalRejectionPolicy(templates=[])
        with pytest.raises(ValueError):
            SignalRejectionPolicy(templates=[np.ones(10)], threshold=0.0)

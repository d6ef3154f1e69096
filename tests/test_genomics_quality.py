"""Tests for Phred quality-score math."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.genomics import quality

phred_arrays = st.lists(
    st.floats(min_value=0, max_value=60, allow_nan=False), min_size=1, max_size=100
)


class TestConversions:
    def test_phred_10_is_10_percent(self):
        assert quality.phred_to_error_prob(10.0) == pytest.approx(0.1)

    def test_phred_20_is_1_percent(self):
        assert quality.phred_to_error_prob(20.0) == pytest.approx(0.01)

    def test_prob_to_phred_known(self):
        assert quality.error_prob_to_phred(0.001) == pytest.approx(30.0)

    @given(st.floats(min_value=0.0, max_value=90.0))
    def test_roundtrip(self, q):
        assert quality.error_prob_to_phred(quality.phred_to_error_prob(q)) == pytest.approx(
            q, abs=1e-9
        )

    def test_prob_clipping(self):
        assert quality.error_prob_to_phred(0.0) <= quality.MAX_PHRED
        assert quality.error_prob_to_phred(2.0) == pytest.approx(0.0)


class TestAverages:
    def test_mean_quality_is_arithmetic(self):
        assert quality.mean_quality([5.0, 9.0]) == pytest.approx(7.0)

    def test_mean_quality_empty_raises(self):
        with pytest.raises(ValueError):
            quality.mean_quality([])

    def test_effective_quality_empty_raises(self):
        with pytest.raises(ValueError):
            quality.effective_quality([])

    def test_effective_equals_mean_when_uniform(self):
        assert quality.effective_quality([12.0, 12.0]) == pytest.approx(12.0)

    @given(phred_arrays)
    def test_effective_below_mean(self, values):
        # Jensen: error-domain averaging is dominated by the worst bases.
        eff = quality.effective_quality(values)
        mean = quality.mean_quality(values)
        assert eff <= mean + 1e-9

    def test_paper_threshold_semantics(self):
        # A read averaging below 7 is "low quality" per the paper.
        low = [4.0] * 100
        high = [12.0] * 100
        assert quality.mean_quality(low) < 7 <= quality.mean_quality(high)

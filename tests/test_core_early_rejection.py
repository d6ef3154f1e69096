"""Tests for QSR (Algorithm 1) and CMR policies, and read quality control."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.core.config import GenPIPConfig
from repro.core.early_rejection import CMRPolicy, QSRPolicy, qsr_sample_indices
from repro.qc import QCConfig, apply_qc, passes_qc


def _chunk(index: int, quality: float, n: int = 300) -> BasecalledChunk:
    return BasecalledChunk(index, "A" * n, np.full(n, quality), n)


def _numpy_picks(n_chunks: int, n_qs: int) -> list[int]:
    """The reference formula for QSR's picks: numpy's rounded
    ``linspace`` over ``[0, n_chunks - 1]``."""
    if n_qs == 1 or n_chunks == 1:
        return [0]
    raw = np.round(np.linspace(0, n_chunks - 1, min(n_qs, n_chunks))).astype(int)
    return sorted(set(int(i) for i in raw))


class TestQsrSampleIndices:
    def test_two_samples_are_ends(self):
        assert qsr_sample_indices(10, 2) == [0, 9]

    def test_single_sample(self):
        assert qsr_sample_indices(10, 1) == [0]

    def test_single_chunk(self):
        assert qsr_sample_indices(1, 5) == [0]

    def test_more_samples_than_chunks(self):
        assert qsr_sample_indices(3, 6) == [0, 1, 2]

    def test_even_spread(self):
        indices = qsr_sample_indices(100, 5)
        assert indices == [0, 25, 50, 74, 99]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            qsr_sample_indices(0, 2)
        with pytest.raises(ValueError):
            qsr_sample_indices(10, 0)

    def test_matches_the_numpy_formula_on_a_grid(self):
        """The plain-Python picks are numpy's, tie-breaking included, for
        every read of up to 4 000 chunks and every ``n_qs`` below 20."""
        mismatches = [
            (n_chunks, n_qs)
            for n_chunks in range(1, 4001)
            for n_qs in range(1, 20)
            if qsr_sample_indices(n_chunks, n_qs) != _numpy_picks(n_chunks, n_qs)
        ]
        assert mismatches == []

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=200))
    @settings(max_examples=300)
    def test_matches_the_numpy_formula(self, n_chunks, n_qs):
        assert qsr_sample_indices(n_chunks, n_qs) == _numpy_picks(n_chunks, n_qs)

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=40))
    @settings(max_examples=100)
    def test_samples_are_distinct_and_span_the_read(self, n_chunks, n_qs):
        """The pipeline decodes the sample as asked, so no chunk may be
        named twice; first and last chunk are in it whenever two fit."""
        indices = qsr_sample_indices(n_chunks, n_qs)
        assert indices == sorted(set(indices))
        assert 0 <= indices[0] and indices[-1] < n_chunks
        expected = 1 if n_qs == 1 or n_chunks == 1 else min(n_qs, n_chunks)
        assert len(indices) == expected
        if expected > 1:
            assert indices[0] == 0 and indices[-1] == n_chunks - 1

    @given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=10))
    @settings(max_examples=80)
    def test_properties(self, n_chunks, n_qs):
        indices = qsr_sample_indices(n_chunks, n_qs)
        # Sorted, unique, in range, at most n_qs, non-consecutive spread
        # when there is room.
        assert indices == sorted(set(indices))
        assert all(0 <= i < n_chunks for i in indices)
        assert len(indices) <= n_qs
        if n_qs >= 2 and n_chunks >= 2:
            assert indices[0] == 0
            assert indices[-1] == n_chunks - 1


class TestQSRPolicy:
    def test_rejects_low_quality(self):
        policy = QSRPolicy(GenPIPConfig(theta_qs=7.0, n_qs=2))
        decision = policy.decide([_chunk(0, 4.0), _chunk(9, 5.0)])
        assert decision.reject
        assert decision.average_quality == pytest.approx(4.5)

    def test_accepts_high_quality(self):
        policy = QSRPolicy(GenPIPConfig(theta_qs=7.0, n_qs=2))
        decision = policy.decide([_chunk(0, 11.0), _chunk(9, 12.0)])
        assert not decision.reject

    def test_boundary_inclusive_pass(self):
        policy = QSRPolicy(GenPIPConfig(theta_qs=7.0))
        assert not policy.decide([_chunk(0, 7.0)]).reject

    def test_base_weighted_average(self):
        # A 600-base chunk counts twice as much as a 300-base chunk.
        policy = QSRPolicy(GenPIPConfig(theta_qs=7.0))
        decision = policy.decide([_chunk(0, 3.0, n=600), _chunk(1, 12.0, n=300)])
        assert decision.average_quality == pytest.approx((3.0 * 600 + 12.0 * 300) / 900)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QSRPolicy(GenPIPConfig()).decide([])

    def test_records_sampled_indices(self):
        decision = QSRPolicy(GenPIPConfig()).decide([_chunk(0, 9.0), _chunk(7, 9.0)])
        assert decision.sampled_indices == (0, 7)

    def test_has_no_defaults_of_its_own(self):
        with pytest.raises(TypeError):
            QSRPolicy()
        policy = QSRPolicy(GenPIPConfig(n_qs=4, theta_qs=9.0))
        assert policy.sample_indices(10) == qsr_sample_indices(10, 4)
        assert policy.decide([_chunk(0, 8.5)]).reject


class TestCMRPolicy:
    def test_rejects_low_chain_score(self):
        policy = CMRPolicy(GenPIPConfig(theta_cm=0.15, n_cm=5))
        decision = policy.decide(chain_score=10.0, merged_bases=1500)
        assert decision.reject
        assert decision.threshold == pytest.approx(225.0)

    def test_accepts_high_chain_score(self):
        policy = CMRPolicy(GenPIPConfig(theta_cm=0.15, n_cm=5))
        assert not policy.decide(chain_score=500.0, merged_bases=1500).reject

    def test_merged_indices_continuous(self):
        policy = CMRPolicy(GenPIPConfig(n_cm=5))
        assert policy.merged_chunk_indices(20) == [0, 1, 2, 3, 4]
        assert policy.merged_chunk_indices(3) == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            CMRPolicy(GenPIPConfig()).decide(1.0, -5)

    def test_has_no_defaults_of_its_own(self):
        """The threshold is the config's theta_cm (0.04 by default), not
        a policy default of its own."""
        with pytest.raises(TypeError):
            CMRPolicy()
        decision = CMRPolicy(GenPIPConfig()).decide(chain_score=50.0, merged_bases=1000)
        assert decision.threshold == pytest.approx(GenPIPConfig().theta_cm * 1000)
        assert not decision.reject

    @given(
        st.floats(min_value=0.0, max_value=1000.0),
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_threshold_monotonicity(self, score, bases, theta):
        policy = CMRPolicy(GenPIPConfig(theta_cm=theta))
        decision = policy.decide(score, bases)
        assert decision.reject == (score < theta * bases)


class TestConfigRanges:
    """The policies check nothing themselves: every range they apply is
    checked once, when the ``GenPIPConfig`` is made."""

    @pytest.mark.parametrize(
        "field, value",
        [("theta_qs", -1.0), ("n_qs", 0), ("theta_cm", -0.1), ("n_cm", 0),
         ("chunk_size", 49), ("min_chunks_for_er", 0)],
    )
    def test_config_refuses_out_of_range_parameter(self, field, value):
        with pytest.raises(ValueError, match=field):
            GenPIPConfig(**{field: value})


_NON_FINITE = [float("nan"), float("inf")]


class TestNonFiniteOrFractionalParameters:
    """``x < nan`` is False, so a NaN threshold never rejects: on 80
    ``reject-short`` reads it turned 57 early rejections into none. A
    fractional count failed only later, deep inside a worker."""

    @pytest.mark.parametrize("field", ["theta_qs", "theta_cm"])
    @pytest.mark.parametrize("value", _NON_FINITE, ids=["nan", "inf"])
    def test_config_refuses_non_finite_threshold(self, field, value):
        with pytest.raises(ValueError, match=field):
            GenPIPConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("chunk_size", 300.5), ("chunk_size", 300.0), ("n_qs", 2.5), ("n_cm", 5.0),
         ("min_chunks_for_er", 2.5), ("n_qs", True)],
    )
    def test_config_refuses_non_integer_count(self, field, value):
        with pytest.raises(TypeError, match=field):
            GenPIPConfig(**{field: value})

    @pytest.mark.parametrize("field", ["theta_qs", "theta_cm"])
    def test_config_refuses_a_bool_threshold(self, field):
        """``True`` passed every test a number passes and ran as 1.0."""
        with pytest.raises(ValueError, match=field):
            GenPIPConfig(**{field: True})

    def test_config_accepts_numpy_integers(self):
        config = GenPIPConfig(chunk_size=np.int64(300), n_qs=np.int32(2))
        assert config.chunk_size == 300


class TestReadQC:
    def _read(self, quality: float) -> BasecalledRead:
        return BasecalledRead("r", "ACGT" * 10, np.full(40, quality), 1)

    def test_passes_above_threshold(self):
        assert passes_qc(self._read(9.0))
        assert not passes_qc(self._read(5.0))

    def test_threshold_boundary(self):
        assert passes_qc(self._read(7.0), QCConfig(theta_qs=7.0))

    def test_apply_qc_partitions(self):
        reads = [self._read(q) for q in (3.0, 8.0, 6.9, 12.0)]
        result = apply_qc(reads)
        assert len(result.passed) == 2
        assert len(result.failed) == 2
        assert result.pass_fraction == pytest.approx(0.5)

    def test_apply_qc_empty(self):
        assert apply_qc([]).pass_fraction == 0.0

    def test_calls_without_a_config_build_none(self, monkeypatch):
        """A call given no config shares one frozen default: a per-read
        ``QCConfig()`` would re-run its checks on every read."""
        built = []
        real = QCConfig.__post_init__
        monkeypatch.setattr(QCConfig, "__post_init__", lambda self: built.append(real(self)))
        reads = [self._read(q) for q in (3.0, 8.0)]
        assert [passes_qc(read) for read in reads] == [False, True]
        assert len(apply_qc(reads).passed) == 1
        assert built == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QCConfig(theta_qs=-2.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True], ids=["nan", "inf", "bool"])
    def test_config_refuses_a_threshold_that_is_not_a_finite_number(self, value):
        """``mean_quality >= nan`` is False: a NaN threshold failed every
        read, as an infinite one does."""
        with pytest.raises(ValueError, match="theta_qs"):
            QCConfig(theta_qs=value)

"""Tests for the synthetic pore model and raw-signal synthesis."""

import numpy as np
import pytest

from repro.genomics.alphabet import encode
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal import RawSignal, SignalConfig, synthesize_signal


class TestPoreModel:
    def test_deterministic(self):
        a = PoreModel.synthetic(k=5, seed=7)
        b = PoreModel.synthetic(k=5, seed=7)
        np.testing.assert_array_equal(a.levels, b.levels)

    def test_seed_changes_model(self):
        a = PoreModel.synthetic(k=5, seed=7)
        b = PoreModel.synthetic(k=5, seed=8)
        assert not np.array_equal(a.levels, b.levels)

    def test_shape(self):
        model = PoreModel.synthetic(k=4)
        assert model.levels.shape == (256,)
        assert model.spread.shape == (256,)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            PoreModel.synthetic(k=2)
        with pytest.raises(ValueError):
            PoreModel.synthetic(k=9)

    def test_levels_in_pa_range(self):
        model = PoreModel.synthetic(k=5, mean_pa=100.0, span_pa=40.0)
        assert 100.0 == pytest.approx(model.levels.mean(), abs=1.0)
        assert model.dynamic_range() > 60.0

    def test_levels_nearly_injective(self):
        # Distinct k-mers should have distinguishable levels in the vast
        # majority of cases (ties would confuse Viterbi decoding).
        model = PoreModel.synthetic(k=5)
        sorted_levels = np.sort(model.levels)
        gaps = np.diff(sorted_levels)
        assert (gaps > 1e-4).mean() > 0.95

    def test_level_of_matches_expected_levels(self):
        model = PoreModel.synthetic(k=5)
        seq = "ACGTTACGG"
        levels = model.expected_levels(encode(seq))
        assert levels[0] == pytest.approx(model.level_of(seq[:5]))
        assert levels[-1] == pytest.approx(model.level_of(seq[-5:]))

    def test_level_of_rejects_wrong_length(self):
        model = PoreModel.synthetic(k=5)
        with pytest.raises(ValueError):
            model.level_of("ACGT")

    def test_spread_positive_required(self):
        model = PoreModel.synthetic(k=4)
        with pytest.raises(ValueError):
            PoreModel(k=4, levels=model.levels, spread=np.zeros(256))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("levels", np.nan, "levels must be finite"),
            ("levels", np.inf, "levels must be finite"),
            ("spread", np.nan, "spread must be finite and positive"),
            ("spread", np.inf, "spread must be finite and positive"),
            ("k", 0, "k must be an integer >= 1"),
            ("k", 2.0, "k must be an integer >= 1"),
        ],
    )
    def test_levels_spread_and_k_must_be_usable(self, field, value, match):
        """``np.any(spread <= 0)`` is False for NaN, so a NaN or infinite
        level or spread used to build a model whose trellis scores are
        NaN; k=0 built a one-state model no trellis can fold."""
        model = PoreModel.synthetic(k=3)
        fields = {"k": 3, "levels": model.levels.copy(), "spread": model.spread.copy()}
        if field == "k":
            fields.update(k=value, levels=np.full(int(4**value), 90.0), spread=np.ones(int(4**value)))
        else:
            fields[field][5] = value
        with pytest.raises(ValueError, match=match):
            PoreModel(**fields)


class TestSignalSynthesis:
    def test_lengths_consistent(self, pore_model):
        codes = encode("ACGT" * 100)
        config = SignalConfig(dwell_mean=6.0)
        signal = synthesize_signal(codes, pore_model, config, np.random.default_rng(0))
        assert signal.n_bases == codes.size - pore_model.k + 1
        assert len(signal) >= signal.n_bases * config.dwell_min

    def test_mean_dwell_near_target(self, pore_model):
        codes = np.random.default_rng(1).integers(0, 4, size=5_000).astype(np.uint8)
        config = SignalConfig(dwell_mean=6.0)
        signal = synthesize_signal(codes, pore_model, config, np.random.default_rng(2))
        mean_dwell = len(signal) / signal.n_bases
        assert 5.0 < mean_dwell < 7.0

    def test_empty_sequence(self, pore_model):
        signal = synthesize_signal(np.empty(0, dtype=np.uint8), pore_model, SignalConfig(), np.random.default_rng(0))
        assert len(signal) == 0
        assert signal.n_bases == 0

    def test_noiseless_signal_matches_levels(self, pore_model):
        codes = encode("ACGTTACGGTAC")
        config = SignalConfig(dwell_mean=3.0, dwell_min=3, noise_std=0.0, drift_per_kilosample=0.0)
        # Intrinsic spread still applies; silence it with a clone model.
        quiet = PoreModel(k=pore_model.k, levels=pore_model.levels, spread=np.full_like(pore_model.spread, 1e-9))
        signal = synthesize_signal(codes, quiet, config, np.random.default_rng(0))
        expected = np.repeat(quiet.expected_levels(codes), 3)
        np.testing.assert_allclose(signal.samples, expected, atol=1e-3)

    def test_base_starts_monotonic(self, pore_model):
        codes = np.random.default_rng(3).integers(0, 4, size=1000).astype(np.uint8)
        signal = synthesize_signal(codes, pore_model, SignalConfig(), np.random.default_rng(4))
        assert np.all(np.diff(signal.base_starts) >= SignalConfig().dwell_min)
        assert signal.base_starts[0] == 0

    def test_slice_bases(self, pore_model):
        codes = np.random.default_rng(5).integers(0, 4, size=500).astype(np.uint8)
        signal = synthesize_signal(codes, pore_model, SignalConfig(), np.random.default_rng(6))
        part = signal.slice_bases(10, 20)
        start = signal.base_starts[10]
        end = signal.base_starts[20]
        np.testing.assert_array_equal(part, signal.samples[start:end])

    def test_slice_bases_tail(self, pore_model):
        codes = np.random.default_rng(7).integers(0, 4, size=100).astype(np.uint8)
        signal = synthesize_signal(codes, pore_model, SignalConfig(), np.random.default_rng(8))
        tail = signal.slice_bases(signal.n_bases - 5, signal.n_bases)
        assert tail.size > 0

    @pytest.mark.parametrize(
        "starts",
        [[0, 50, 500, 20], [0, 50, 20], [0, 101], [-1, 10]],
        ids=["past-and-decreasing", "decreasing", "past-the-samples", "negative"],
    )
    def test_base_starts_must_stay_ordered_inside_the_samples(self, starts):
        """A track like [0, 50, 500, 20] over 100 samples used to cut
        overlapping, empty and out-of-range per-base slices."""
        samples = np.zeros(100, dtype=np.float32)
        with pytest.raises(ValueError, match="non-decreasing within \\[0, 100\\]"):
            RawSignal(samples=samples, base_starts=np.asarray(starts))

    def test_base_starts_may_repeat_and_end_at_the_sample_count(self):
        signal = RawSignal(
            samples=np.zeros(100, dtype=np.float32), base_starts=np.asarray([0, 0, 40, 100])
        )
        assert signal.slice_bases(0, 1).size == 0
        assert signal.slice_bases(3, 4).size == 0

    def test_slice_bases_bounds(self, pore_model):
        codes = encode("ACGTACGTACGT")
        signal = synthesize_signal(codes, pore_model, SignalConfig(), np.random.default_rng(9))
        with pytest.raises(ValueError):
            signal.slice_bases(-1, 2)
        with pytest.raises(ValueError):
            signal.slice_bases(0, signal.n_bases + 1)

    def test_dwell_config_validation(self):
        with pytest.raises(ValueError):
            SignalConfig(dwell_mean=1.0, dwell_min=2)
        with pytest.raises(ValueError):
            SignalConfig(noise_std=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("dwell_mean", float("nan")), ("dwell_mean", 1_001.0), ("dwell_min", 2.5),
         ("dwell_min", True), ("noise_std", float("inf")), ("noise_std", float("nan")),
         ("drift_per_kilosample", float("nan")), ("drift_per_kilosample", float("-inf"))],
    )
    def test_dwell_and_noise_refused_at_construction(self, field, value):
        """A NaN mean dwell synthesized and decoded without complaint; a
        fractional minimum dwell, a non-finite noise or drift and a mean
        dwell that overflows the sample indices failed only at the first
        synthesized chunk, inside a worker."""
        with pytest.raises(ValueError, match=field):
            SignalConfig(**{field: value})

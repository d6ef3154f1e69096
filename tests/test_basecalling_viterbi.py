"""Tests for the HMM Viterbi basecaller (the real signal-space decoder)."""

import numpy as np
import pytest

from repro.basecalling import ViterbiBasecaller, ViterbiConfig, chunk_count, chunk_span
from repro.genomics.alphabet import decode, encode
from repro.kernels import move_predecessors, viterbi_forward, viterbi_traceback
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal import SignalConfig, synthesize_signal


def _quiet_model(pore_model, spread=0.3):
    return PoreModel(
        k=pore_model.k,
        levels=pore_model.levels,
        spread=np.full_like(pore_model.spread, spread),
    )


def _identity(a: str, b: str) -> float:
    import difflib

    return difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()


@pytest.fixture(scope="module")
def clean_setup():
    pore = PoreModel.synthetic(k=5, seed=7)
    quiet = _quiet_model(pore)
    caller = ViterbiBasecaller(quiet, ViterbiConfig(stay_prob=0.8, extra_noise_std=0.3))
    signal_config = SignalConfig(dwell_mean=5.0, dwell_min=3, noise_std=0.0, drift_per_kilosample=0.0)
    return quiet, caller, signal_config


class TestCleanSignal:
    def test_exact_recovery(self, clean_setup):
        quiet, caller, signal_config = clean_setup
        seq = decode(np.random.default_rng(0).integers(0, 4, 150).astype(np.uint8))
        signal = synthesize_signal(encode(seq), quiet, signal_config, np.random.default_rng(1))
        called = caller.basecall(signal.samples)
        assert called.bases == seq

    def test_high_quality_on_clean_signal(self, clean_setup):
        quiet, caller, signal_config = clean_setup
        seq = decode(np.random.default_rng(2).integers(0, 4, 150).astype(np.uint8))
        signal = synthesize_signal(encode(seq), quiet, signal_config, np.random.default_rng(3))
        called = caller.basecall(signal.samples)
        assert called.mean_quality > 15.0

    def test_empty_signal(self, clean_setup):
        _, caller, _ = clean_setup
        called = caller.basecall(np.empty(0))
        assert called.bases == ""
        assert called.qualities.size == 0

    def test_deterministic(self, clean_setup):
        quiet, caller, signal_config = clean_setup
        seq = decode(np.random.default_rng(4).integers(0, 4, 100).astype(np.uint8))
        signal = synthesize_signal(encode(seq), quiet, signal_config, np.random.default_rng(5))
        a = caller.basecall(signal.samples)
        b = caller.basecall(signal.samples)
        assert a.bases == b.bases
        np.testing.assert_allclose(a.qualities, b.qualities)


class TestNoiseBehaviour:
    @pytest.fixture(scope="class")
    def results_by_noise(self):
        pore = PoreModel.synthetic(k=5, seed=7)
        seq = decode(np.random.default_rng(6).integers(0, 4, 200).astype(np.uint8))
        out = {}
        for noise in (1.0, 4.0, 8.0):
            config = SignalConfig(dwell_mean=5.0, dwell_min=2, noise_std=noise, drift_per_kilosample=0.0)
            signal = synthesize_signal(encode(seq), pore, config, np.random.default_rng(7))
            caller = ViterbiBasecaller(pore, ViterbiConfig(stay_prob=0.8, extra_noise_std=noise))
            out[noise] = (seq, caller.basecall(signal.samples))
        return out

    def test_identity_degrades_with_noise(self, results_by_noise):
        identities = {
            noise: _identity(seq, called.bases) for noise, (seq, called) in results_by_noise.items()
        }
        assert identities[1.0] > 0.95
        assert identities[1.0] >= identities[8.0]

    def test_quality_decreases_with_noise(self, results_by_noise):
        qualities = [called.mean_quality for _, called in results_by_noise.values()]
        assert qualities == sorted(qualities, reverse=True)

    def test_called_length_reasonable(self, results_by_noise):
        for _, (seq, called) in results_by_noise.items():
            assert abs(len(called.bases) - len(seq)) < 0.2 * len(seq)


def _chunk_spans(n_bases: int, chunk_size: int) -> list[tuple[int, int]]:
    return [chunk_span(n_bases, chunk_size, i) for i in range(chunk_count(n_bases, chunk_size))]


class TestChunkedDecoding:
    """Chunks are cut on the shared grid and decoded independently, as
    the signal engine decodes a read's chunks."""

    def test_chunks_cover_read(self, clean_setup):
        quiet, caller, signal_config = clean_setup
        seq = decode(np.random.default_rng(8).integers(0, 4, 400).astype(np.uint8))
        signal = synthesize_signal(encode(seq), quiet, signal_config, np.random.default_rng(9))
        spans = _chunk_spans(signal.n_bases, 150)
        assert [start for start, _ in spans] == list(range(0, signal.n_bases, 150))
        assert sum(end - start for start, end in spans) == signal.n_bases
        chunks = [caller.basecall(signal.clamped_slice(start, end)) for start, end in spans]
        total = sum(len(c) for c in chunks)
        assert abs(total - len(seq)) < 0.1 * len(seq)

    def test_chunk_content_matches_truth(self, clean_setup):
        quiet, caller, signal_config = clean_setup
        seq = decode(np.random.default_rng(10).integers(0, 4, 300).astype(np.uint8))
        signal = synthesize_signal(encode(seq), quiet, signal_config, np.random.default_rng(11))
        start, end = _chunk_spans(signal.n_bases, 100)[0]
        # First chunk decodes the first ~100 bases nearly exactly.
        assert _identity(seq[:100], caller.basecall(signal.clamped_slice(start, end)).bases) > 0.9


class TestConfig:
    def test_stay_prob_bounds(self):
        with pytest.raises(ValueError):
            ViterbiConfig(stay_prob=0.0)
        with pytest.raises(ValueError):
            ViterbiConfig(stay_prob=1.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            ViterbiConfig(extra_noise_std=-1.0)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, noise):
        """A non-finite sigma used to decode a 60-base clean signal to
        3 bases at Q15, with no error."""
        with pytest.raises(ValueError, match="extra_noise_std"):
            ViterbiConfig(extra_noise_std=noise)

    @pytest.mark.parametrize("cap", [float("nan"), float("inf"), 0.5, -3.0, True])
    def test_quality_cap_must_be_a_finite_phred_above_the_floor(self, cap):
        """A NaN cap made every quality NaN; a cap below 1 put qualities
        under the Phred floor of 1; ``True`` was accepted as a cap of 1."""
        with pytest.raises(ValueError, match="max_quality"):
            ViterbiConfig(max_quality=cap)

    def test_quality_cap_of_one_gives_flat_qualities(self, clean_setup):
        quiet, _, signal_config = clean_setup
        caller = ViterbiBasecaller(quiet, ViterbiConfig(extra_noise_std=0.3, max_quality=1.0))
        seq = decode(np.random.default_rng(14).integers(0, 4, 60).astype(np.uint8))
        signal = synthesize_signal(encode(seq), quiet, signal_config, np.random.default_rng(15))
        np.testing.assert_array_equal(caller.basecall(signal.samples).qualities, 1.0)

    def test_decode_states_shape(self, clean_setup):
        """The kernel traceback yields one packed k-mer per sample."""
        quiet, caller, signal_config = clean_setup
        seq = decode(np.random.default_rng(12).integers(0, 4, 50).astype(np.uint8))
        signal = synthesize_signal(encode(seq), quiet, signal_config, np.random.default_rng(13))
        backptr, _, dp = viterbi_forward(
            signal.samples,
            quiet.levels,
            caller._sigma,
            caller._log_sigma,
            caller._log_stay,
            caller._log_move,
        )
        path = viterbi_traceback(backptr, move_predecessors(quiet.k), dp)
        assert path.shape == (len(signal),)
        assert path.min() >= 0
        assert path.max() < 4**quiet.k
        assert len(caller.basecall(signal.samples)) == quiet.k + np.count_nonzero(np.diff(path))

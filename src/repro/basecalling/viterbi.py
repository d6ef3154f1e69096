"""A real signal-space basecaller: k-mer HMM Viterbi decoding.

This is the classical HMM formulation used by early nanopore basecallers
(Nanocall, Scrappie-events): the hidden state is the k-mer occupying the
pore; at each signal sample the state either *stays* (the same base keeps
translocating) or *moves* to one of the 4 k-mers obtained by shifting in
a new base. Emissions are Gaussian around the pore model's per-k-mer
level.

The decoder is exact Viterbi over ``4**k`` states. The trellis runs in
the compiled kernel of :mod:`repro.kernels.viterbi` when it loaded (built
on first use with the system C compiler) and otherwise in that module's
numpy fold, vectorised across the state dimension; the two give the same
bytes, so nothing here depends on which ran. Per-base quality scores
derive from the emission-posterior margin of the decoded state
(confident samples give margins near 0 in log space, hence high Phred
scores), which makes quality fall monotonically with signal noise --
the property the surrogate basecaller is calibrated to and that
quality-based early rejection exploits.

On clean signal the decoder recovers the input sequence exactly (see
``tests/test_basecalling_viterbi.py``); with realistic noise it exhibits
the expected substitution/indel error mix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.basecalling.types import BasecalledRead
from repro.checks import require_finite
from repro.kernels.viterbi import move_predecessors, viterbi_forward, viterbi_traceback
from repro.nanopore.pore_model import PoreModel


@dataclass(frozen=True)
class ViterbiConfig:
    """Decoder parameters.

    Attributes
    ----------
    stay_prob:
        Prior probability that consecutive samples belong to the same
        base. Should roughly match ``1 - 1/dwell_mean`` of the signal
        generator.
    extra_noise_std:
        Measurement-noise standard deviation assumed *in addition to*
        the pore model's per-k-mer spread.
    max_quality:
        Phred cap for emitted per-base qualities; at least the floor of
        1 every quality is clipped to.
    """

    stay_prob: float = 0.8
    extra_noise_std: float = 1.0
    max_quality: float = 30.0

    def __post_init__(self) -> None:
        require_finite("stay_prob", self.stay_prob, gt=0, lt=1)
        require_finite("extra_noise_std", self.extra_noise_std, ge=0)
        require_finite("max_quality", self.max_quality, ge=1)


class ViterbiBasecaller:
    """Exact Viterbi decoding of raw signal against a pore model."""

    def __init__(self, pore_model: PoreModel, config: ViterbiConfig | None = None):
        self._model = pore_model
        self._config = config or ViterbiConfig()
        self._pred = move_predecessors(pore_model.k)
        self._sigma = np.sqrt(pore_model.spread**2 + self._config.extra_noise_std**2)
        self._log_sigma = np.log(self._sigma)
        self._log_stay = float(np.log(self._config.stay_prob))
        self._log_move = float(np.log1p(-self._config.stay_prob) - np.log(4.0))

    @property
    def pore_model(self) -> PoreModel:
        return self._model

    @property
    def config(self) -> ViterbiConfig:
        return self._config

    def _viterbi(self, observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Viterbi DP; returns (state path, full score matrix).

        Forward pass and traceback run on the shared trellis kernels
        (:func:`repro.kernels.viterbi.viterbi_forward` /
        :func:`~repro.kernels.viterbi.viterbi_traceback`); the forward
        pass scores emissions as it goes (per observation in C, per
        block in the fold), so no float64 emission matrix is built. The
        score matrix is kept (``float32[T, S]``,
        next to ``uint8[T, S]`` backpointers) so that per-base
        confidence margins can be read off during traceback; memory is
        ~5 MB per 1000 observations with k=5, i.e. this decoder is meant
        for chunk-scale signals, which is how GenPIP feeds its basecaller.
        """
        backptr, scores, dp = viterbi_forward(
            observations,
            self._model.levels,
            self._sigma,
            self._log_sigma,
            self._log_stay,
            self._log_move,
        )
        return viterbi_traceback(backptr, self._pred, dp), scores

    def basecall(self, samples: np.ndarray, read_id: str = "viterbi-read") -> BasecalledRead:
        """Basecall a raw-signal array into bases + per-base qualities."""
        path, scores = self._viterbi(samples)
        if path.size == 0:
            return BasecalledRead(read_id=read_id, codes="", qualities=np.empty(0), n_chunks=1)
        k = self._model.k

        # Collapse stays: a new base is emitted whenever the state changes.
        moved = np.concatenate(([True], path[1:] != path[:-1]))
        # The first state contributes k bases; each move contributes the
        # newly shifted-in base (bottom 2 bits of the new state).
        first_kmer = (int(path[0]) >> np.arange(2 * (k - 1), -1, -2)) & 3
        move_positions = np.nonzero(moved)[0][1:]
        codes = np.concatenate((first_kmer, path[move_positions] & 3)).astype(np.uint8)

        qualities = self._base_qualities(scores, path, move_positions, codes.size)
        return BasecalledRead(read_id=read_id, codes=codes, qualities=qualities, n_chunks=1)

    def _base_qualities(
        self,
        scores: np.ndarray,
        path: np.ndarray,
        move_positions: np.ndarray,
        n_bases: int,
    ) -> np.ndarray:
        """Per-base Phred scores from sibling path-score margins.

        When the decoder emits a base (a move into state ``s``), the
        competing hypotheses at that instant are the sibling states that
        share the same k-1 prefix but end in a different base
        (``s ^ 1, s ^ 2, s ^ 3`` in packed form). The margin between the
        decoded state's cumulative Viterbi score and the best sibling's
        is a log-odds-like confidence; mapping it through a logistic
        gives an error probability and hence a Phred score. Clean signal
        yields large margins (scores diverge fast), noise shrinks them.
        """
        k = self._model.k
        if move_positions.size:
            states = path[move_positions]
            base_ids = (states & 3).astype(np.int64)
            prefix = states & ~np.int64(3)
            siblings = prefix[:, None] | np.arange(4, dtype=np.int64)[None, :]
            sib_scores = scores[move_positions[:, None], siblings].astype(np.float64)
            own = sib_scores[np.arange(states.size), base_ids]
            sib_scores[np.arange(states.size), base_ids] = -np.inf
            margin = own - sib_scores.max(axis=1)
            # Logistic mapping: P(error) ~ 1 / (1 + e^margin).
            p_error = 1.0 / (1.0 + np.exp(np.clip(margin, 0.0, 60.0)))
            move_quality = -10.0 * np.log10(np.clip(p_error, 1e-4, 1.0))
            move_quality = np.clip(move_quality, 1.0, self._config.max_quality)
        else:
            move_quality = np.empty(0, dtype=np.float64)

        qualities = np.empty(n_bases, dtype=np.float64)
        head = move_quality.mean() if move_quality.size else self._config.max_quality / 2.0
        qualities[:k] = head
        qualities[k:] = move_quality[: n_bases - k]
        return qualities

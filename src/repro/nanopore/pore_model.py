"""Synthetic k-mer pore model.

An ONT nanopore reads ~k bases at a time; the measured ionic current is a
function of the k-mer occupying the pore. ONT publishes tables of
(k-mer -> mean current, spread); basecallers either use such tables
directly (HMM basecallers like Nanocall/Scrappie-events) or learn them
implicitly (DNN basecallers like Bonito).

This module builds a *synthetic but physically shaped* table: the level
of a k-mer is a weighted sum of per-position base contributions plus a
small pairwise interaction term, scaled into the familiar 60-140 pA
range. The construction is deterministic in the seed, injective enough
in practice to make Viterbi decoding well-posed, and fast to evaluate
for whole sequences via the vectorised rolling k-mer encoder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checks import require_integer
from repro.genomics.alphabet import kmer_codes, kmer_to_int


@dataclass(frozen=True)
class PoreModel:
    """A k-mer current model.

    Attributes
    ----------
    k:
        K-mer length (ONT R9 uses 6; the default here is 5 to keep the
        Viterbi basecaller's state space small).
    levels:
        ``float64[4**k]`` mean current (pA) per packed k-mer.
    spread:
        Per-k-mer intrinsic standard deviation (pA) of the current.
    """

    k: int
    levels: np.ndarray
    spread: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        require_integer("k", self.k, ge=1)
        levels = np.ascontiguousarray(self.levels, dtype=np.float64)
        spread = np.ascontiguousarray(self.spread, dtype=np.float64)
        if levels.shape != (4**self.k,):
            raise ValueError(f"levels must have shape (4**{self.k},)")
        if spread.shape != levels.shape:
            raise ValueError("spread must match levels shape")
        # NaN fails every comparison, so each check tests for the
        # accepted range: a NaN level or spread made NaN trellis scores.
        if not np.isfinite(levels).all():
            raise ValueError("levels must be finite")
        if not np.all((spread > 0) & (spread < np.inf)):
            raise ValueError("spread must be finite and positive")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "spread", spread)
        levels.setflags(write=False)
        spread.setflags(write=False)

    @classmethod
    def synthetic(cls, k: int = 5, seed: int = 7, mean_pa: float = 100.0, span_pa: float = 40.0) -> "PoreModel":
        """Build the deterministic synthetic pore model.

        Per-position weights make nearby bases dominate (as in real
        pores, where the central bases contribute most), and a small
        k-mer-specific residual breaks ties so distinct k-mers have
        distinct levels.
        """
        require_integer("k", k, ge=3, le=8)
        rng = np.random.default_rng(seed)
        n = 4**k
        # Per-position, per-base contributions; centre positions weighted most.
        position_weight = np.exp(-0.5 * ((np.arange(k) - (k - 1) / 2.0) / (k / 3.0)) ** 2)
        base_effect = rng.normal(0.0, 1.0, size=(k, 4))
        codes = np.arange(n, dtype=np.int64)
        levels = np.zeros(n, dtype=np.float64)
        for pos in range(k):
            shift = 2 * (k - 1 - pos)
            base_at_pos = (codes >> shift) & 3
            levels += position_weight[pos] * base_effect[pos, base_at_pos]
        # K-mer specific residual to guarantee practical injectivity.
        levels += rng.normal(0.0, 0.08, size=n)
        # Scale into a pA-like range.
        levels = mean_pa + span_pa * (levels - levels.mean()) / (levels.std() + 1e-12)
        spread = np.full(n, 1.5) + rng.random(n) * 0.8
        return cls(k=k, levels=levels, spread=spread)

    def level_of(self, kmer: str) -> float:
        """Mean current of one k-mer string."""
        if len(kmer) != self.k:
            raise ValueError(f"k-mer must have length {self.k}")
        return float(self.levels[kmer_to_int(kmer)])

    def expected_levels(self, codes: np.ndarray) -> np.ndarray:
        """Mean current for every k-mer position of a code array.

        Returns an array of length ``len(codes) - k + 1``; each entry is
        the level of the k-mer starting at that base.
        """
        packed = kmer_codes(codes, self.k)
        return self.levels[packed]

    def dynamic_range(self) -> float:
        """Spread between the lowest and highest k-mer level (pA)."""
        return float(self.levels.max() - self.levels.min())

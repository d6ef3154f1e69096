"""Basecalling-free raw-signal filtering (paper Sec. 7's extension path).

The paper's related work discusses SquiggleFilter and Read-Until-style
systems that reject reads *in signal space*, before any basecalling, by
comparing the raw squiggle against the expected signal of a target
reference. GenPIP's ER starts after a few chunks are basecalled; a
signal-space pre-filter is the natural extension that would push
rejection even earlier -- the paper's "ideally even before they go
through basecalling" (Sec. 2.3).

This module implements that extension: a subsequence dynamic time
warping (sDTW) kernel that scores a raw-signal prefix against the
expected pore-model signal of reference segments, plus a
:class:`SignalPrefilter` that classifies reads as plausibly-genomic or
junk from their first ~few hundred samples. The DTW is banded and
z-normalised, the standard squiggle-matching recipe.

The DTW arithmetic itself is :func:`repro.kernels.sdtw.sdtw_cost`: an
anti-diagonal wavefront that evaluates each band diagonal as one numpy
vector op (tests check it bit-for-bit against the original row-major
scalar recurrence, ``sdtw_cost_scalar``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.sdtw import sdtw_cost, znormalise
from repro.nanopore.pore_model import PoreModel
from repro.nanopore.signal import RawSignal

__all__ = [
    "PrefilterDecision",
    "SignalPrefilter",
    "subsequence_dtw",
    "znormalise",
]


def subsequence_dtw(
    query: np.ndarray,
    reference: np.ndarray,
    band: int | None = None,
    reference_normalized: bool = False,
) -> float:
    """Subsequence DTW cost of ``query`` against any span of ``reference``.

    Classic sDTW: the query must be consumed in full, but may start and
    end anywhere in the reference (first row initialised to zero, answer
    is the minimum of the last row). Costs are squared differences of
    z-normalised samples, averaged over the query length so thresholds
    are length-independent.

    Parameters
    ----------
    query, reference:
        1-D sample arrays (the query is typically a signal prefix, the
        reference an expected-signal template).
    band:
        Optional Sakoe-Chiba band half-width around the *global*
        diagonal. Note a band constrains the match to span the whole
        reference, which defeats the free-start/free-end property --
        useful only when query and reference cover the same region.
        The pre-filter therefore matches unbanded.
    reference_normalized:
        Declares ``reference`` is already z-normalised (a screening
        caller normalises each fixed template once instead of per
        query); bit-identical to normalising again.
    """
    return sdtw_cost(query, reference, band=band, reference_normalized=reference_normalized)


@dataclass(frozen=True)
class PrefilterDecision:
    """Outcome of the signal-space pre-filter for one read."""

    accept: bool
    best_cost: float
    threshold: float


class SignalPrefilter:
    """Reject junk reads from raw signal alone (no basecalling).

    The filter holds expected-signal templates of sampled reference
    segments; a read's signal prefix is sDTW-matched against each, and
    the read is accepted if any template matches below the cost
    threshold. Genomic reads match their originating segment (or run
    close to some homologous one); uniform-random junk does not.

    This is deliberately a *screening* filter: at small template counts
    it accepts genomic reads with high probability only if their prefix
    overlaps a template, so production use would index the whole genome
    (as SquiggleFilter does for small viral references). The tests and
    the demo therefore measure the junk-rejection side, with templates
    covering the demo reads' origins.
    """

    def __init__(
        self,
        pore_model: PoreModel,
        templates: list[np.ndarray],
        threshold: float = 0.17,
    ):
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if not templates:
            raise ValueError("at least one template is required")
        self._model = pore_model
        self._templates = [np.asarray(t, dtype=np.float64) for t in templates]
        # Templates are fixed for the filter's lifetime while every read
        # brings a new query: z-normalise each template exactly once and
        # tell the kernel so (bit-identical -- znormalise is
        # deterministic -- but the per-read template passes disappear).
        self._normalized_templates = [znormalise(t) for t in self._templates]
        self._threshold = threshold

    @classmethod
    def from_reference_segments(
        cls,
        pore_model: PoreModel,
        reference_codes: np.ndarray,
        segment_starts: list[int],
        segment_bases: int = 250,
        threshold: float = 0.17,
    ) -> "SignalPrefilter":
        """Build templates from reference segments' expected signals."""
        templates = []
        for start in segment_starts:
            segment = reference_codes[start : start + segment_bases]
            levels = pore_model.expected_levels(segment)
            if levels.size:
                templates.append(levels)
        return cls(pore_model, templates, threshold=threshold)

    @property
    def n_templates(self) -> int:
        return len(self._templates)

    def classify_prefix(self, samples: np.ndarray) -> PrefilterDecision:
        """Accept/reject a raw-signal prefix.

        The prefix is event-compressed (consecutive samples averaged in
        pairs) to roughly one value per base-dwell before matching,
        keeping the DTW cheap.
        """
        samples = np.asarray(samples, dtype=np.float64)
        if samples.size >= 2:
            trimmed = samples[: samples.size - samples.size % 2]
            compressed = trimmed.reshape(-1, 2).mean(axis=1)
        else:
            compressed = samples
        best = float("inf")
        for template in self._normalized_templates:
            cost = subsequence_dtw(compressed, template, reference_normalized=True)
            best = min(best, cost)
            if best < self._threshold:
                break
        return PrefilterDecision(
            accept=best < self._threshold, best_cost=best, threshold=self._threshold
        )

    def classify_signal(self, signal: RawSignal, prefix_bases: int = 150) -> PrefilterDecision:
        """Classify a read from its first ``prefix_bases`` of signal."""
        end = min(prefix_bases, signal.n_bases)
        if end == 0:
            return PrefilterDecision(accept=False, best_cost=float("inf"), threshold=self._threshold)
        return self.classify_prefix(signal.slice_bases(0, end))

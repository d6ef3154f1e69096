"""Early rejection (ER): QSR and CMR policies (paper Sec. 3.2).

ER predicts, from a handful of basecalled chunks, whether a read will be
useless downstream -- either low-quality (QSR) or unmappable (CMR) --
and stops the pipeline for such reads before the remaining (tens to
hundreds of) chunks are basecalled.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.basecalling.types import BasecalledChunk
from repro.core.config import GenPIPConfig


def qsr_sample_indices(n_chunks: int, n_qs: int) -> list[int]:
    """Indices of the ``n_qs`` chunks QSR samples (paper Algorithm 1).

    Algorithm 1 samples chunks "evenly distributed in a read"; the
    printed index formula (``floor(i / (N_qs - 1)) * floor(N / C)``)
    collapses to the first and last chunk only, so -- following the
    stated intent and Fig. 7's non-consecutive-sampling rationale -- we
    spread the samples uniformly across ``[0, n_chunks - 1]``, first and
    last chunk included.

    The picks are ``np.round(np.linspace(0, n_chunks - 1, m))`` for
    ``m = min(n_qs, n_chunks)``, computed in plain Python because this
    runs once per read and numpy's call overhead is ~8x the arithmetic:
    ``linspace`` makes the same IEEE multiply ``i * step`` and pins its
    last value to the stop, and ``round`` breaks ties half-to-even as
    ``np.round`` does.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be positive")
    if n_qs < 1:
        raise ValueError("n_qs must be positive")
    if n_qs == 1 or n_chunks == 1:
        return [0]
    m = min(n_qs, n_chunks)
    step = (n_chunks - 1) / (m - 1)
    return sorted({round(i * step) for i in range(m - 1)} | {n_chunks - 1})


@dataclass(frozen=True)
class QSRDecision:
    """Outcome of a quality-score rejection check."""

    reject: bool
    average_quality: float
    sampled_indices: tuple[int, ...]


@dataclass(frozen=True)
class QSRPolicy:
    """Quality-Score-based Rejection (paper Sec. 3.2.1, Algorithm 1).

    Averages the chunk quality scores of ``config.n_qs`` evenly-spaced
    chunks and rejects the read when that average falls below
    ``config.theta_qs``.
    """

    config: GenPIPConfig

    def sample_indices(self, n_chunks: int) -> list[int]:
        return qsr_sample_indices(n_chunks, self.config.n_qs)

    def decide(self, sampled_chunks: list[BasecalledChunk]) -> QSRDecision:
        """Apply the threshold to the sampled chunks' mean quality.

        The average is computed base-weighted (total SQS over total
        bases), matching what the PIM-CQS unit + AQS calculator compute
        in hardware: chunk SQS sums divided by the base count.
        """
        if not sampled_chunks:
            raise ValueError("QSR needs at least one sampled chunk")
        total_quality = sum(c.sum_quality for c in sampled_chunks)
        total_bases = sum(len(c) for c in sampled_chunks)
        average = total_quality / total_bases if total_bases else 0.0
        return QSRDecision(
            reject=average < self.config.theta_qs,
            average_quality=average,
            sampled_indices=tuple(c.chunk_index for c in sampled_chunks),
        )


@dataclass(frozen=True)
class CMRDecision:
    """Outcome of a chunk-mapping rejection check."""

    reject: bool
    chain_score: float
    merged_bases: int
    threshold: float


@dataclass(frozen=True)
class CMRPolicy:
    """Chunk-Mapping-based Rejection (paper Sec. 3.2.2).

    Merges the first ``config.n_cm`` consecutive chunks into one large chunk,
    chains it against the reference, and rejects the read when the
    chaining score falls below the threshold. Individual ~300-base
    chunks produce too many spurious candidate loci (the paper's
    motivation for merging); ~1500 merged bases chain decisively.

    The threshold is ``config.theta_cm`` *per merged base* so that one
    value is meaningful across chunk sizes and ``n_cm`` values.
    """

    config: GenPIPConfig

    def merged_chunk_indices(self, n_chunks: int) -> list[int]:
        """The first ``n_cm`` chunks (continuous, per the paper)."""
        return list(range(min(self.config.n_cm, n_chunks)))

    def decide(self, chain_score: float, merged_bases: int) -> CMRDecision:
        """Apply the per-base chaining-score threshold."""
        if merged_bases < 0:
            raise ValueError("merged_bases must be non-negative")
        threshold = self.config.theta_cm * merged_bases
        return CMRDecision(
            reject=chain_score < threshold,
            chain_score=chain_score,
            merged_bases=merged_bases,
            threshold=threshold,
        )

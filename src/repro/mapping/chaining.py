"""Colinear chaining of anchors (minimap2's chain DP; paper Fig. 1(c)).

Chaining assigns a score to ordered subsets of anchors that are
consistent with one alignment: both coordinates increasing, gaps
bounded, and large diagonal drift penalised. The recurrence (Li 2018,
Eq. 1-2) is

.. code-block:: text

    f(i) = max( w_i,  max_{j in lookback} f(j) + a(j, i) - g(j, i) )
    a(j, i) = min(y_i - y_j, x_i - x_j, k)          # new matching bases
    g(j, i) = 0.01 * k * |dd| + 0.5 * log2(|dd|)    # gap cost, dd = drift

where ``dd = (y_i - y_j) - (x_i - x_j)``. This is the
dynamic-programming kernel that PARC (and GenPIP's DP units) execute
in-memory; the chain *score* is also what GenPIP's ER-CMR thresholds to
predict unmappable reads early.

The implementation is the standard O(n * h) heuristic with a bounded
lookback window. Where the C kernel ``chain.c`` loaded, a read's whole
chain stage -- gathering both strands' anchors, the DP, the chain walk
of :func:`chain_anchors` and the primary/secondary pick of
:func:`best_chain` -- runs in one call of it
(:func:`repro.kernels.chain.chain_read`, made by
``IncrementalChunkMapper.chain_prefix``). The functions here are that
stage in Python: its fallback, and the reference the tests check it
against bit for bit. Their DP is
:func:`repro.kernels.chain.chain_scores`, the scalar reference
``chain_scores_scalar``: the scores, parents and tie-breaks ``chain.c``'s
DP gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.kernels.chain as chain_kernels
from repro.checks import require_finite, require_integer


#: Largest ``max_gap`` a :class:`ChainingConfig` takes (one ``float64``
#: ``log2`` table entry per gap, 8 MiB at this bound).
MAX_GAP_LIMIT = 2**20

#: Chains :func:`chain_anchors` reports per strand by default, and so per
#: strand for :func:`best_chain`.
MAX_CHAINS = 5


@dataclass(frozen=True)
class ChainingConfig:
    """Chain DP parameters (defaults follow minimap2's map-ont preset).

    The k-mer size is not one of them: the chain stage takes ``k`` from
    the index that seeded the anchors, the one place it is said. The
    counts are integers: the C kernel takes them as ``int64``.
    ``max_gap`` is at most :data:`MAX_GAP_LIMIT`, which bounds the C
    kernel's ``log2`` table at 8 MiB. ``lookback`` is unbounded: the
    kernel never scans past the first anchor.
    """

    max_gap: int = 5_000
    lookback: int = 50
    min_chain_score: float = 20.0
    min_anchors: int = 3

    def __post_init__(self) -> None:
        # 2.5 or True would reach the C kernel as a ctypes error or another integer.
        require_integer("max_gap", self.max_gap, ge=1, le=MAX_GAP_LIMIT)
        require_integer("lookback", self.lookback, ge=1)
        require_integer("min_anchors", self.min_anchors, ge=1)
        # A NaN threshold compares False both ways: skipping the ends
        # with ``score < threshold`` would keep every end, keeping those
        # with ``score >= threshold`` none.
        require_finite("min_chain_score", self.min_chain_score)


@dataclass(frozen=True)
class Chain:
    """One chain of anchors.

    Attributes
    ----------
    score:
        Chaining score (higher = more alignment-consistent coverage).
    anchors:
        ``int64[n, 2]`` of (ref_pos, read_pos), ascending.
    strand:
        +1 / -1 relative strand of the chained anchors.
    """

    score: float
    anchors: np.ndarray
    strand: int

    @property
    def n_anchors(self) -> int:
        return int(self.anchors.shape[0])

    @property
    def ref_span(self) -> tuple[int, int]:
        """Reference interval covered: (first anchor start, last anchor start)."""
        return int(self.anchors[0, 0]), int(self.anchors[-1, 0])

    @property
    def read_span(self) -> tuple[int, int]:
        return int(self.anchors[0, 1]), int(self.anchors[-1, 1])


def chain_scores(
    anchors: np.ndarray, kmer_size: int, config: ChainingConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Run the chain DP over sorted anchors.

    Parameters
    ----------
    anchors:
        ``int64[n, 2]`` of (ref_pos, read_pos), sorted by (ref, read).
    kmer_size:
        The ``k`` of the index that seeded the anchors: an integer in
        ``[1, MAX_GAP_LIMIT]``, which keeps it exact where the DP compares
        a ``float64`` score with it.
    config:
        DP parameters.

    Returns
    -------
    (scores, parents):
        Best chain score ending at each anchor, and the predecessor
        index (-1 for chain starts).
    """
    require_integer("kmer_size", kmer_size, ge=1, le=MAX_GAP_LIMIT)
    return chain_kernels.chain_scores(anchors, kmer_size, config.max_gap, config.lookback)


def chain_anchors(
    anchors: np.ndarray,
    kmer_size: int,
    config: ChainingConfig,
    strand: int = 1,
    max_chains: int = MAX_CHAINS,
) -> list[Chain]:
    """Find the best chains among sorted anchors of one strand.

    Chains are extracted greedily by descending end-score, and among
    ends of equal score the later anchor first; anchors used by a
    reported chain are not reused by later ones (minimap2's primary /
    secondary chain separation).
    """
    n = anchors.shape[0]
    if n == 0:
        return []
    scores, parents = chain_scores(anchors, kmer_size, config)
    # Stable, so the order of tied scores (sums of integer-valued gains
    # tie often) is defined, not left to numpy's introsort.
    order = np.argsort(scores, kind="stable")[::-1]
    # The descending order puts every end scoring at least the threshold
    # first: the walk stops where the first one below it would stand.
    n_ends = int(np.count_nonzero(scores >= config.min_chain_score))
    score_of = scores.tolist()
    parent_of = parents.tolist()
    used = [False] * n
    chains: list[Chain] = []
    for end in order[:n_ends].tolist():
        if len(chains) >= max_chains:
            break
        if used[end]:
            continue
        chain_idx = []
        node = end
        while node != -1 and not used[node]:
            chain_idx.append(node)
            node = parent_of[node]
        if len(chain_idx) < config.min_anchors:
            continue
        chain_idx.reverse()
        for node in chain_idx:
            used[node] = True
        chains.append(Chain(score=score_of[end], anchors=anchors[chain_idx], strand=strand))
    return chains


def best_chain(
    anchors_by_strand: dict[int, np.ndarray], kmer_size: int, config: ChainingConfig
) -> tuple[Chain | None, Chain | None]:
    """The primary and best-secondary chain across both strands.

    The secondary is the best chain at a *different* locus (used for
    MAPQ estimation).
    """
    all_chains: list[Chain] = []
    for strand, anchors in anchors_by_strand.items():
        all_chains.extend(chain_anchors(anchors, kmer_size, config, strand=strand))
    if not all_chains:
        return None, None
    all_chains.sort(key=lambda c: c.score, reverse=True)
    primary = all_chains[0]
    secondary = None
    for chain in all_chains[1:]:
        # A different locus: no reference overlap with the primary.
        lo, hi = primary.ref_span
        c_lo, c_hi = chain.ref_span
        if c_hi < lo or c_lo > hi or chain.strand != primary.strand:
            secondary = chain
            break
    return primary, secondary

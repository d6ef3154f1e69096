"""Chain kernels: a read's whole chain stage, the chain DP, its reference.

The minimap2 chain recurrence (Li 2018, Eq. 1-2; the DP GenPIP's
read-mapping units execute in-memory, paper Fig. 1(c)) scores each
anchor against a bounded lookback window of predecessors:

.. code-block:: text

    f(i) = max( w_i,  max_{j in lookback} f(j) + a(j, i) - g(j, i) )

Production chains a read with :func:`chain_read`: when the C kernel
``chain.c`` loaded (``native.kernel("chain")``: built on first use by
:mod:`repro.kernels.native`, once per process, never at import),
``IncrementalChunkMapper.chain_prefix`` makes one call of it per chain
stage. It merges, flips, sorts and de-duplicates both strands' seeded
anchors, runs the DP over each, walks out each strand's chains and
picks the primary and the secondary, all in C. Otherwise -- no
compiler, or a build or load that failed -- the mapper's ``_gathered``
and :func:`repro.mapping.chaining.best_chain` run: the same chains,
with the DP in :func:`chain_scores_scalar`. ``native.backend("chain")``
says which.

:func:`chain_scores` is the DP alone over one strand's sorted anchors,
the fallback's: :func:`chain_scores_scalar`. ``chain.c``'s DP runs
only inside :func:`chain_read`; per anchor, per window slot, it runs
the scalar reference's expression, in its order, and its ``log2`` is a
table numpy computed (:func:`_log2_table`), because libm's ``log2`` and
numpy's differ in the last bit at some integers. The tests check the
two DPs through the stage: compiled ``chain_prefix`` against its
fallback.

**Bit-identity.** The scalar reference evaluates, per anchor,
``(scores[window] + gain) - gap`` and masks invalid slots to ``-inf``
before a first-index ``argmax``. The C kernel performs the same float64
operations in the same order, skips invalid slots and keeps the first
strict maximum, which is that ``argmax``; so scores, parents and
tie-breaks are bit-identical, not merely close.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from repro.kernels.mapping_ops import record_mapping_ops

if TYPE_CHECKING:
    from types import SimpleNamespace


@functools.cache
def _log2_table(max_gap: int) -> np.ndarray:
    """``np.log2(d)`` for ``0 <= d < max_gap`` (``d = 0`` reads as 1,
    never used): the gap cost's ``log2`` for the C kernel, the same bits
    the scalar reference's ``np.log2`` gives. Read-only: every call
    shares it."""
    table = np.log2(np.maximum(np.arange(max_gap), 1))
    table.flags.writeable = False
    return table


def chain_candidate_count(n_anchors: int, lookback: int) -> int:
    """Predecessor candidates the DP evaluates for ``n_anchors`` anchors.

    Anchor ``i`` scans ``min(i, lookback)`` predecessors; this closed
    form is what both kernels charge to the mapping-ops ledger: the
    *evaluated band*, the work a DP unit performs, whether or not a
    slot turns out valid.
    """
    n = int(n_anchors)
    h = int(lookback)
    if n <= 1:
        return 0
    full_rows = max(0, n - 1 - h)
    ramp_rows = n - 1 - full_rows
    return full_rows * h + ramp_rows * (ramp_rows + 1) // 2


def chain_scores_scalar(
    anchors: np.ndarray, kmer_size: int, max_gap: int, lookback: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row-major scalar reference (the original interpreted recurrence).

    The ground truth the compiled DP is checked against (through the
    chain stage), and what :func:`chain_scores` runs. The per-anchor
    Python iteration recomputes the band geometry (masks, gains, gap
    costs) inside the loop. Charges its candidates to the mapping-ops
    ledger.
    """
    n = anchors.shape[0]
    k = kmer_size
    scores = np.full(n, float(k))
    parents = np.full(n, -1, dtype=np.int64)
    if n <= 1:
        return scores, parents
    record_mapping_ops("chain-candidate", chain_candidate_count(n, lookback))
    x = anchors[:, 0].astype(np.float64)
    y = anchors[:, 1].astype(np.float64)
    for i in range(1, n):
        j0 = max(0, i - lookback)
        dx = x[i] - x[j0:i]
        dy = y[i] - y[j0:i]
        valid = (dx > 0) & (dy > 0) & (dx < max_gap) & (dy < max_gap)
        if not np.any(valid):
            continue
        overlap_gain = np.minimum(np.minimum(dx, dy), k)
        dd = np.abs(dy - dx)
        gap_cost = np.where(dd > 0, 0.01 * k * dd + 0.5 * np.log2(np.maximum(dd, 1)), 0.0)
        candidate = scores[j0:i] + overlap_gain - gap_cost
        candidate = np.where(valid, candidate, -np.inf)
        best = int(np.argmax(candidate))
        if candidate[best] > k:
            scores[i] = candidate[best]
            parents[i] = j0 + best
    return scores, parents


def chain_scores(
    anchors: np.ndarray, kmer_size: int, max_gap: int, lookback: int
) -> tuple[np.ndarray, np.ndarray]:
    """The chain DP over sorted ``int64[n, 2]`` anchors:
    :func:`chain_scores_scalar`, after checking the shape. The DP of the
    chain stage's Python fallback; charges its candidates to the
    mapping-ops ledger."""
    if anchors.ndim != 2 or anchors.shape[1] != 2:
        raise ValueError(f"anchors must be an [n, 2] array, got shape {anchors.shape}")
    return chain_scores_scalar(anchors, kmer_size, max_gap, lookback)


def chain_read(
    library: SimpleNamespace,
    plus: np.ndarray,
    minus: np.ndarray,
    flip: int,
    kmer_size: int,
    max_gap: int,
    lookback: int,
    min_chain_score: float,
    min_anchors: int,
    max_chains: int,
) -> tuple[tuple[float, np.ndarray, int] | None, tuple[float, np.ndarray, int] | None]:
    """The whole chain stage of one read in one call of ``chain.c``.

    ``library`` is ``native.kernel("chain")``, loaded. ``plus`` and
    ``minus`` are each strand's seeded ``int64[n, 2]`` (ref, read) rows,
    in any order and with repeats; the minus strand's read positions are
    raw, and become ``flip - read``. Returns the primary and the
    secondary chain as ``(score, anchors, strand)``, ``None`` where
    there is none: what ``best_chain`` returns for the rows ``_gathered``
    makes of these, and it charges the ledger the same candidates.
    """
    for rows in (plus, minus):
        if rows.ndim != 2 or rows.shape[1] != 2:
            raise ValueError(f"anchors must be an [n, 2] array, got shape {rows.shape}")
    total = plus.shape[0] + minus.shape[0]
    if total == 0:
        return None, None
    rows = np.empty((total, 2), dtype=np.int64)
    scores = np.empty(2)
    info = np.empty(6, dtype=np.int64)
    # Past the rows there are, lookback and min_anchors mean the same as
    # at any larger value, so they are clamped to fit the kernel's int64.
    found = library.chain_read(
        plus, plus.shape[0], minus, minus.shape[0], flip, kmer_size, max_gap,
        min(lookback, total), float(min_chain_score), min(min_anchors, total + 1), max_chains,
        _log2_table(max_gap), rows, scores, info,
    )  # fmt: skip
    if found < 0:
        raise MemoryError("chain.c could not allocate its scratch buffers")
    n_primary, n_secondary, primary_strand, secondary_strand, n_plus, n_minus = info.tolist()
    for n in (n_plus, n_minus):
        if n > 1:
            record_mapping_ops("chain-candidate", chain_candidate_count(n, lookback))
    primary_score, secondary_score = scores.tolist()
    primary = (primary_score, rows[:n_primary], primary_strand) if found else None
    secondary = (
        (secondary_score, rows[n_primary : n_primary + n_secondary], secondary_strand)
        if found == 2
        else None
    )
    return primary, secondary

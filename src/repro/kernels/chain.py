"""Chain DP kernels: scalar reference and the hoisted/blocked formulation.

The minimap2 chain recurrence (Li 2018, Eq. 1-2; the DP GenPIP's
read-mapping units execute in-memory, paper Fig. 1(c)) scores each
anchor against a bounded lookback window of predecessors:

.. code-block:: text

    f(i) = max( w_i,  max_{j in lookback} f(j) + a(j, i) - g(j, i) )

Unlike sDTW, the dependency structure does not fall onto independent
anti-diagonals: ``f(i)`` reads ``f(j)`` for *every* ``j`` in the
window, so some sequential combine is irreducible. What the blocked
kernel removes is everything else: the geometric part of the band --
``dx``, ``dy``, the validity mask, the overlap gain ``a(j, i)`` and the
gap cost ``g(j, i)`` (with its ``log2``) -- depends only on the anchor
coordinates, never on the scores, so it is hoisted out of the loop and
computed as full ``(rows x lookback)`` matrices in a handful of numpy
passes per block. The remaining per-anchor work is three vector ops
(add, subtract, argmax) over the window, and anchors whose window has
no valid predecessor (the common case for junk reads on the ER-CMR
path) skip the loop entirely via a precomputed row mask.

**Bit-identity.** The scalar reference evaluates, per anchor,
``(scores[window] + gain) - gap`` and masks invalid slots to ``-inf``
before a first-index ``argmax``. The blocked kernel performs the same
elementwise float64 operations in the same association order -- the
gain matrix carries ``-inf`` at invalid slots, which propagates through
the add/subtract to exactly the ``-inf`` the scalar mask writes -- so
scores, parents, and tie-breaks are bit-identical, not merely close.
Production runs the blocked kernel (:func:`repro.mapping.chaining.chain_scores`
calls it directly); the scalar reference is what tests and
``bench_kernels.py`` import to check it against.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.mapping_ops import record_mapping_ops

#: Rows of hoisted band matrices computed per pass; bounds peak memory
#: at ``~6 x BLOCK x lookback x 8`` bytes without affecting results.
_BLOCK_ROWS = 4096


def chain_candidate_count(n_anchors: int, lookback: int) -> int:
    """Predecessor candidates the DP evaluates for ``n_anchors`` anchors.

    Anchor ``i`` scans ``min(i, lookback)`` predecessors; this closed
    form is what both kernels charge to the mapping-ops ledger (the
    blocked kernel skips rows without valid predecessors, but the
    *evaluated band* -- the work a DP unit performs -- is the same).
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

    Kept as the ground truth the blocked kernel is checked against; the
    per-anchor Python iteration recomputes the full band geometry
    (masks, gains, gap costs) inside the loop.
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


def chain_scores_blocked(
    anchors: np.ndarray, kmer_size: int, max_gap: int, lookback: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hoisted/blocked chain DP: band geometry vectorised, combine slim.

    Phase 1 computes, for a block of anchors at once, the full
    ``(rows x h)`` band matrices -- ``dx``, ``dy``, the validity mask,
    the masked overlap gain, and the gap cost -- plus a per-row
    "any valid predecessor" mask. Phase 2 walks only the rows that
    mask admits, and per row does exactly
    ``(scores[window] + gain) - gap`` followed by ``argmax`` -- the
    scalar reference's association order, with the precomputed ``-inf``
    gains standing in for its validity ``where``.
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
    h = min(lookback, n - 1)
    neg_inf = -np.inf

    # Window column t of row i holds predecessor j = i - h + t; rows
    # near the start pad with a huge finite sentinel so dx/dy go very
    # negative (invalid) while every elementwise op stays finite.
    sentinel = 1e18
    xp = np.concatenate((np.full(h, sentinel), x))
    yp = np.concatenate((np.full(h, sentinel), y))

    for row0 in range(1, n, _BLOCK_ROWS):
        row1 = min(n, row0 + _BLOCK_ROWS)
        rows = np.arange(row0, row1)
        # Window start for row i is xp[i : i + h] == x[i - h : i] after
        # the h-element pad, so sliding_window_view indexes by i itself.
        wx = np.lib.stride_tricks.sliding_window_view(xp, h)[rows]
        wy = np.lib.stride_tricks.sliding_window_view(yp, h)[rows]
        dx = x[rows, None] - wx
        dy = y[rows, None] - wy
        valid = (dx > 0) & (dy > 0) & (dx < max_gap) & (dy < max_gap)
        has_pred = valid.any(axis=1)
        if not has_pred.any():
            continue
        overlap_gain = np.minimum(np.minimum(dx, dy), k)
        dd = np.abs(dy - dx)
        gap_cost = np.where(dd > 0, 0.01 * k * dd + 0.5 * np.log2(np.maximum(dd, 1)), 0.0)
        # -inf at invalid slots: (score + -inf) - finite == -inf, the
        # exact value the scalar reference's mask writes.
        gain = np.where(valid, overlap_gain, neg_inf)

        for bi in np.nonzero(has_pred)[0]:
            i = row0 + int(bi)
            j0 = i - h if i >= h else 0
            t0 = h - (i - j0)
            candidate = (scores[j0:i] + gain[bi, t0:]) - gap_cost[bi, t0:]
            best = int(np.argmax(candidate))
            if candidate[best] > k:
                scores[i] = candidate[best]
                parents[i] = j0 + best
    return scores, parents

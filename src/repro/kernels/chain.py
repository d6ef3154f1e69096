"""Chain DP kernels: scalar reference, the compiled DP, and the blocked fold.

The minimap2 chain recurrence (Li 2018, Eq. 1-2; the DP GenPIP's
read-mapping units execute in-memory, paper Fig. 1(c)) scores each
anchor against a bounded lookback window of predecessors:

.. code-block:: text

    f(i) = max( w_i,  max_{j in lookback} f(j) + a(j, i) - g(j, i) )

Production runs :func:`chain_scores_blocked`. It makes one call of the
C kernel ``chain.c`` for all of a call's anchors when it loaded
(:func:`_native_chain`: built on first use by
:mod:`repro.kernels.native`, once per process, never at import): per
anchor, per window slot, the scalar reference's expression, in its
order. Its ``log2`` is a table numpy computed (:func:`_log2_table`),
because libm's ``log2`` and numpy's differ in the last bit at some
integers. Otherwise -- no compiler, or a build or load that failed --
the blocked numpy fold runs. :func:`chain_backend` says which.

Unlike sDTW, the dependency structure does not fall onto independent
anti-diagonals: ``f(i)`` reads ``f(j)`` for *every* ``j`` in the
window, so the combine is sequential in the row index. The blocked
fold splits the work in two phases:

* **Geometry, vectorised.** ``dx``, ``dy``, the validity mask, the
  overlap gain ``a(j, i)`` and the gap cost ``g(j, i)`` (with its
  ``log2``) depend only on the anchor coordinates, never on the scores,
  so they are computed as full ``(rows x lookback)`` matrices in a
  handful of numpy passes per block. Anchors whose window has no valid
  predecessor (the common case for junk reads on the ER-CMR path) are
  final at ``w_i`` and skip the combine.
* **Combine, speculated.** Calling numpy once per anchor costs more
  than the arithmetic, so the remaining rows are not combined one by
  one. Each row's parent is guessed (first: its nearest valid
  predecessor, which it is for most rows of a mapped read), the scores
  along the guesses are folded in one pure-Python pass, and all rows
  are verified at once with the reference's expression. Every row up
  to the first disagreement is final; the rest are re-guessed from the
  verifier's argmax and folded again. A bounded number of rounds
  (``_SPEC_ROUNDS``) precedes a per-row fallback, so the worst case
  stays close to one vector combine per row.

**Bit-identity.** The scalar reference evaluates, per anchor,
``(scores[window] + gain) - gap`` and masks invalid slots to ``-inf``
before a first-index ``argmax``. The fold's verifier performs the same
elementwise float64 operations in the same association order -- the
gain matrix carries ``-inf`` at invalid slots, which propagates through
the add/subtract to exactly the ``-inf`` the scalar mask writes -- and
the fold's ``(s[p] + gain) - gap`` on Python floats is the same pair of
IEEE double operations. A row is committed only once the verifier has
recomputed it from final predecessors, so scores, parents, and
tie-breaks are bit-identical, not merely close, for any round count or
block size. The C kernel skips invalid slots and keeps the first
strict maximum, which is that ``argmax``. The scalar reference is what
the tests import to check both against.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from repro.kernels.mapping_ops import record_mapping_ops

if TYPE_CHECKING:
    import ctypes

#: Rows of hoisted band matrices computed per pass; bounds peak memory
#: at ``~6 x BLOCK x lookback x 8`` bytes without affecting results.
_BLOCK_ROWS = 4096

#: Speculate-and-verify rounds per block before the remaining rows fall
#: back to one vector combine each; bounds the worst case without
#: affecting results.
_SPEC_ROUNDS = 8


@functools.cache
def _native_chain() -> ctypes.CDLL | None:
    """The compiled ``chain.c``, or ``None`` (the blocked fold runs);
    resolved once per process, on the first DP over two or more
    anchors. The loader and ctypes are imported here too, so importing
    this module pays for neither."""
    import ctypes

    from repro.kernels.native import load_library

    library = load_library("chain")
    if library is None:
        return None
    f64, i64 = (
        np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS") for dtype in (np.float64, np.int64)
    )
    size = ctypes.c_int64
    library.chain_dp.argtypes = [i64, size, size, size, size, f64, f64, i64]
    library.chain_dp.restype = None
    return library


def chain_backend() -> str:
    """``"native"`` when the compiled chain DP runs in this process,
    else ``"numpy"`` (resolving it if nothing has yet)."""
    return "numpy" if _native_chain() is None else "native"


@functools.cache
def _log2_table(max_gap: int) -> np.ndarray:
    """``np.log2(d)`` for ``0 <= d < max_gap`` (``d = 0`` reads as 1,
    never used): the gap cost's ``log2`` for the C kernel, the same
    bits the fold's ``np.log2`` gives. Read-only: every call shares it."""
    table = np.log2(np.maximum(np.arange(max_gap), 1))
    table.flags.writeable = False
    return table


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
    """The production chain DP over sorted ``int64[n, 2]`` anchors.

    One call of the compiled ``chain.c`` when it loaded, else the
    blocked fold (:func:`_fold_blocked`); both give the scalar
    reference's scores and parents, bit for bit. The candidates the DP
    evaluates are charged to the mapping-ops ledger first, whichever
    runs.
    """
    if anchors.ndim != 2 or anchors.shape[1] != 2:
        raise ValueError(f"anchors must be an [n, 2] array, got shape {anchors.shape}")
    n = anchors.shape[0]
    k = kmer_size
    if n <= 1:
        return np.full(n, float(k)), np.full(n, -1, dtype=np.int64)
    record_mapping_ops("chain-candidate", chain_candidate_count(n, lookback))
    library = _native_chain()
    if library is None:
        return _fold_blocked(anchors, k, max_gap, lookback)
    scores = np.full(n, float(k))
    parents = np.full(n, -1, dtype=np.int64)
    library.chain_dp(
        np.ascontiguousarray(anchors, dtype=np.int64), n, k, max_gap, lookback,
        _log2_table(max_gap), scores, parents,
    )  # fmt: skip
    return scores, parents


def _fold_blocked(
    anchors: np.ndarray, k: int, max_gap: int, lookback: int
) -> tuple[np.ndarray, np.ndarray]:
    """Hoisted/blocked chain DP: band geometry vectorised, combine speculated.

    Phase 1 computes, for a block of anchors at once, the full
    ``(rows x h)`` band matrices -- ``dx``, ``dy``, the validity mask,
    the masked overlap gain, and the gap cost -- plus a per-row
    "any valid predecessor" mask. Phase 2 (:func:`_combine_rows`)
    resolves only the rows that mask admits, with the scalar
    reference's ``(scores[window] + gain) - gap`` and first-index
    ``argmax``; the precomputed ``-inf`` gains stand in for its
    validity ``where``.
    """
    n = anchors.shape[0]
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
    # Scores use the same layout, padded with a finite k: window[i] is
    # scores[i - h : i], and (k + -inf) - gap is -inf at pad slots.
    padded = np.full(n + h, float(k))
    scores = padded[h:]
    window = np.lib.stride_tricks.sliding_window_view(padded, h)
    parents = np.full(n, -1, dtype=np.int64)

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

        live = np.flatnonzero(has_pred)
        _combine_rows(
            scores, parents, window, row0 + live, gain[live], gap_cost[live], valid[live], k
        )
    return scores, parents


def _combine_rows(
    scores: np.ndarray,
    parents: np.ndarray,
    window: np.ndarray,
    rows: np.ndarray,
    gain: np.ndarray,
    gap: np.ndarray,
    valid: np.ndarray,
    k: int,
) -> None:
    """Resolve ``rows`` (ascending, each with a valid predecessor) in place.

    Speculate, then verify. Guess each row's parent column (first: its
    nearest valid predecessor), fold the scores along the guesses in one
    Python pass -- ``(s[p] + gain) - gap``, the same IEEE double ops in
    the same order -- then check every row at once with the reference's
    expression. A row whose predecessors all hold final scores verifies
    to its final value, so by induction on the row index every row up to
    and including the first disagreement is final. The rest are re-guessed
    from the verifier's argmax and folded again; after ``_SPEC_ROUNDS``
    rounds the remainder falls back to one vector combine per row.
    """
    h = gain.shape[1]
    m = rows.size
    lanes = np.arange(m)
    guess = (h - 1) - np.argmax(valid[:, ::-1], axis=1)
    kf = float(k)
    folded_scores = scores.tolist()
    start = 0
    for _ in range(_SPEC_ROUNDS):
        at = rows[start:]
        cols = guess[start:]
        pred = at - h + cols
        folded = []
        for i, p, g, c in zip(
            at.tolist(),
            pred.tolist(),
            gain[lanes[start:], cols].tolist(),
            gap[lanes[start:], cols].tolist(),
        ):
            value = (folded_scores[p] + g) - c
            if value <= k:
                value = kf
            folded_scores[i] = value
            folded.append(value)
        folded = np.array(folded)
        scores[at] = folded

        candidate = (window[at] + gain[start:]) - gap[start:]
        best = candidate.argmax(axis=1)
        best_value = candidate[lanes[: m - start], best]
        chained = best_value > k
        final_scores = np.where(chained, best_value, kf)
        final_parents = np.where(chained, at - h + best, -1)
        # Scores alone decide: a row verified from final predecessor
        # scores has its final parent too, whatever parent was guessed.
        wrong = final_scores != folded
        if not wrong.any():
            parents[at] = final_parents
            return
        bad = int(wrong.argmax())
        parents[at[: bad + 1]] = final_parents[: bad + 1]
        scores[at[bad]] = folded_scores[at[bad]] = float(final_scores[bad])
        guess[start + bad + 1 :] = best[bad + 1 :]
        start += bad + 1

    at = rows[start:]
    # Drop the stale guesses: the fallback writes only chained rows.
    scores[at] = kf
    for lane, i in zip(range(start, m), at.tolist()):
        candidate = (window[i] + gain[lane]) - gap[lane]
        best = int(candidate.argmax())
        if candidate[best] > k:
            scores[i] = candidate[best]
            parents[i] = i - h + best

"""Subsequence DTW kernels: scalar reference and anti-diagonal wavefront.

The recurrence ``D[i, j] = cost(i, j) + min(D[i-1, j-1], D[i-1, j],
D[i, j-1])`` carries a dependency on the cell to the *left*, so a
row-major evaluation cannot vectorise the inner loop -- which is why the
scalar reference walks each banded row sample-by-sample in Python. On an **anti-diagonal** ``d = i
+ j``, however, every dependency lives on diagonals ``d-1`` (up, left)
and ``d-2`` (diag): cells on one diagonal are mutually independent and
the whole diagonal evaluates as one numpy expression.

Production calls the wavefront under the one name :func:`sdtw_cost`;
:func:`sdtw_cost_scalar` is the reference tests and ``bench_kernels.py``
import. Both perform the *same float64 operations per cell* -- the same
squared difference, the same three-way ``min`` (exact regardless of
association order), the same final add -- so their costs are
**bit-identical**, not merely close. ``tests/test_kernels.py`` and CI's
kernel-equivalence lane assert exact equality on random inputs, band
edge cases, and degenerate shapes.

Semantics (shared by both; the SER screen,
:class:`~repro.signal.rejection.SignalRejectionPolicy`, calls
:func:`sdtw_cost` directly): the query must be
consumed in full but may start and end anywhere in the reference (first
row zero, answer is the minimum of the last row), costs are squared
differences of z-normalised samples averaged over the query length, and
an optional Sakoe-Chiba ``band`` constrains each row to a half-width
around the global diagonal.
"""

from __future__ import annotations

import numpy as np


def znormalise(values: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance normalisation (squiggle matching's
    standard preprocessing; gain/offset differences cancel)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values
    std = values.std()
    if std == 0:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def _band_bounds(i: int, n: int, m: int, band: int | None) -> tuple[int, int]:
    """Banded column span ``[lo, hi]`` of row ``i`` (1-indexed, inclusive)."""
    if band is None:
        return 1, m
    centre = int(round(i * m / n))
    return max(1, centre - band), min(m, centre + band)


def sdtw_cost_scalar(
    query: np.ndarray,
    reference: np.ndarray,
    band: int | None = None,
    reference_normalized: bool = False,
) -> float:
    """Row-major scalar reference (the original interpreted recurrence).

    Kept as the ground truth :func:`sdtw_cost` is checked against; the
    inner left-to-right loop is the dependency the wavefront
    reorganisation removes.
    """
    q = znormalise(query)
    r = (
        np.asarray(reference, dtype=np.float64)
        if reference_normalized
        else znormalise(reference)
    )
    n, m = q.size, r.size
    if n == 0:
        return 0.0
    if m == 0:
        return float("inf")
    inf = np.inf
    prev = np.zeros(m + 1)
    for i in range(1, n + 1):
        row = np.full(m + 1, inf)
        lo, hi = _band_bounds(i, n, m, band)
        cost = (q[i - 1] - r[lo - 1 : hi]) ** 2
        # row[j] = cost + min(prev[j-1], prev[j], row[j-1]), evaluated
        # left-to-right over the banded span only.
        diag_or_up = np.minimum(prev[lo - 1 : hi], prev[lo : hi + 1])
        left = inf
        for k in range(hi - lo + 1):
            value = cost[k] + min(diag_or_up[k], left)
            row[lo + k] = value
            left = value
        prev = row
    return float(prev[1:].min() / n)


def sdtw_cost(
    query: np.ndarray,
    reference: np.ndarray,
    band: int | None = None,
    reference_normalized: bool = False,
) -> float:
    """Subsequence DTW cost of ``query`` against any span of ``reference``.

    Anti-diagonal wavefront evaluation: one vector op per diagonal.
    ``reference_normalized=True`` declares that ``reference`` is
    already the output of :func:`znormalise` (a caller screening many
    queries against fixed templates normalises each template once);
    since ``znormalise`` is deterministic, skipping the redundant pass
    is bit-identical, not merely close.

    Diagonals are indexed by the row coordinate ``i``; cell ``(i, j)``
    of diagonal ``d = i + j`` reads ``(i-1, j)`` and ``(i, j-1)`` from
    diagonal ``d-1`` (indices ``i-1`` and ``i``) and ``(i-1, j-1)``
    from diagonal ``d-2`` (index ``i-1``), so each diagonal is one
    fused numpy expression over its valid row range. Out-of-band cells
    hold ``inf`` exactly as the scalar kernel leaves them unwritten.
    """
    q = znormalise(query)
    r = (
        np.asarray(reference, dtype=np.float64)
        if reference_normalized
        else znormalise(reference)
    )
    n, m = q.size, r.size
    if n == 0:
        return 0.0
    if m == 0:
        return float("inf")
    inf = np.inf
    if band is not None:
        rows = np.arange(n + 1)
        centre = np.round(rows * m / n).astype(np.int64)
        band_lo = np.maximum(1, centre - band)
        band_hi = np.minimum(m, centre + band)
    # Diagonal buffers indexed by i in [0, n]; d=0 holds only D[0, 0]=0.
    prev2 = np.full(n + 1, inf)
    prev1 = np.full(n + 1, inf)
    prev1[0] = 0.0
    # Last-row collector: D[n, j] lives on diagonal d = n + j.
    last_row = np.full(m + 1, inf)
    for d in range(1, n + m + 1):
        cur = np.full(n + 1, inf)
        if d <= m:
            cur[0] = 0.0  # free start: D[0, j] = 0
        i_lo = max(1, d - m)
        i_hi = min(n, d - 1)  # j = d - i >= 1
        if i_lo <= i_hi:
            i = np.arange(i_lo, i_hi + 1)
            j = d - i
            cost = (q[i - 1] - r[j - 1]) ** 2
            best = np.minimum(np.minimum(prev1[i - 1], prev1[i]), prev2[i - 1])
            values = cost + best
            if band is not None:
                inside = (j >= band_lo[i]) & (j <= band_hi[i])
                values = np.where(inside, values, inf)
            cur[i_lo : i_hi + 1] = values
        if 1 <= d - n <= m:
            last_row[d - n] = cur[n]
        prev2, prev1 = prev1, cur
    return float(last_row[1:].min() / n)

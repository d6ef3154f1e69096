"""Subsequence DTW kernels: scalar reference and anti-diagonal wavefront.

The recurrence ``D[i, j] = cost(i, j) + min(D[i-1, j-1], D[i-1, j],
D[i, j-1])`` carries a dependency on the cell to the *left*, so a
row-major evaluation cannot vectorise the inner loop -- which is why the
scalar reference walks each row sample-by-sample in Python. On an
**anti-diagonal** ``d = i + j``, however, every dependency lives on
diagonals ``d-1`` (up, left) and ``d-2`` (diag): cells on one diagonal
are mutually independent and the whole diagonal evaluates as one numpy
expression.

Production calls the wavefront under the one name :func:`sdtw_cost`;
:func:`sdtw_cost_scalar` is the reference the tests import. Both perform
the *same float64 operations per cell* -- the same squared difference,
the same three-way ``min`` (exact regardless of association order), the
same final add -- so their costs are **bit-identical**, not merely
close. ``tests/test_kernels.py`` asserts exact equality on random
inputs, synthesized shapes and degenerate ones.

Semantics (shared by both; the SER screen,
:class:`~repro.signal.rejection.SignalRejectionPolicy`, calls
:func:`sdtw_cost` directly): the query must be
consumed in full but may start and end anywhere in the reference (first
row zero, answer is the minimum of the last row), and costs are squared
differences of z-normalised samples averaged over the query length.
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


def sdtw_cost_scalar(
    query: np.ndarray,
    reference: np.ndarray,
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
        cost = (q[i - 1] - r) ** 2
        # row[j] = cost + min(prev[j-1], prev[j], row[j-1]), evaluated
        # left-to-right.
        diag_or_up = np.minimum(prev[:m], prev[1:])
        left = inf
        for k in range(m):
            value = cost[k] + min(diag_or_up[k], left)
            row[1 + k] = value
            left = value
        prev = row
    return float(prev[1:].min() / n)


def sdtw_cost(
    query: np.ndarray,
    reference: np.ndarray,
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
    fused numpy expression over its valid row range.
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
            cur[i_lo : i_hi + 1] = cost + best
        if 1 <= d - n <= m:
            last_row[d - n] = cur[n]
        prev2, prev1 = prev1, cur
    return float(last_row[1:].min() / n)

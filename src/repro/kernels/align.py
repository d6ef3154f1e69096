"""Affine-gap (Gotoh) alignment kernels: scalar reference and wavefront.

The inter-anchor fill stage of piecewise alignment (paper Fig. 1(d);
the DP GenPIP's alignment units execute in-memory) solves a global
affine-gap alignment per segment. The cell recurrence is

.. code-block:: text

    E[i,j] = max(E[i,j-1] + ge, H[i,j-1] + go + ge)   # gap in ref
    V[i,j] = max(V[i-1,j] + ge, H[i-1,j] + go + ge)   # gap in read
    H[i,j] = max(H[i-1,j-1] + sub(i,j), E[i,j], V[i,j])

Every dependency of cell ``(i, j)`` lies on the two previous
anti-diagonals (``E``/``V`` need ``d - 1``, the substitution diagonal
needs ``d - 2``), so -- exactly like the PR 6 sDTW wavefront -- whole
anti-diagonals are computed as single vectorised numpy expressions
with no intra-diagonal dependencies.

**Bit-identity.** The wavefront kernel performs the same float64
operations in the same association order as the scalar reference
(``H + go + ge`` stays left-to-right; boundaries use ``go + ge * j``;
the three-way max associates ``max(max(diag, E), V)`` as Python's
``max`` does), and both run the same value-comparing traceback over the
completed tables -- so scores, tracebacks, and CIGARs are bit-identical
for *any* scoring configuration, not only the representable-integer
defaults. Tests and ``bench_kernels.py`` check the wavefront against the
scalar reference; :func:`repro.mapping.alignment.align_banded` picks
between the two (and its own row pipeline) from the segment's cell
count.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.mapping_ops import record_mapping_ops

def merge_cigar(parts: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Merge adjacent runs of the same op and drop zero-length runs."""
    merged: list[tuple[str, int]] = []
    for op, length in parts:
        if length <= 0:
            continue
        if merged and merged[-1][0] == op:
            merged[-1] = (op, merged[-1][1] + length)
        else:
            merged.append((op, length))
    return tuple(merged)


def _traceback_tables(h, e, v, n: int, m: int, ge: float) -> tuple[tuple[str, int], ...]:
    """Value-comparing traceback over completed H/E/V tables.

    Works on list-of-lists and 2-D numpy tables alike; because both
    kernels fill bit-identical tables, this shared walk yields
    bit-identical CIGARs.
    """
    parts: list[tuple[str, int]] = []
    i, j = n, m
    state = "H"
    while i > 0 or j > 0:
        if state == "H":
            if j == 0:
                state = "V"
            elif i == 0 or h[i][j] == e[i][j]:
                state = "E"
            elif h[i][j] == v[i][j]:
                state = "V"
            else:
                parts.append(("M", 1))
                i -= 1
                j -= 1
        elif state == "E":
            parts.append(("I", 1))
            if e[i][j] != e[i][j - 1] + ge:
                state = "H"
            j -= 1
        else:
            parts.append(("D", 1))
            if v[i][j] != v[i - 1][j] + ge:
                state = "H"
            i -= 1
    parts.reverse()
    return merge_cigar(parts)


def gotoh_scalar(
    a: np.ndarray,
    b: np.ndarray,
    match: float,
    mismatch: float,
    gap_open: float,
    gap_extend: float,
) -> tuple[float, tuple[tuple[str, int], ...]]:
    """Pure-Python Gotoh reference; returns ``(score, raw 'M'-run cigar)``.

    Kept as the ground truth the wavefront kernel is checked against
    (and the faster choice below the dispatch crossover, where numpy
    call overhead dominates the handful of cells).
    """
    n, m = int(a.size), int(b.size)
    if n and m:
        record_mapping_ops("align-cell", n * m)
    av = a.tolist()
    bv = b.tolist()
    go, ge = gap_open, gap_extend
    neg = -1e18

    h = [[0.0] * (m + 1) for _ in range(n + 1)]
    e = [[neg] * (m + 1) for _ in range(n + 1)]
    v = [[neg] * (m + 1) for _ in range(n + 1)]
    for j in range(1, m + 1):
        e[0][j] = go + ge * j
        h[0][j] = e[0][j]
    for i in range(1, n + 1):
        v[i][0] = go + ge * i
        h[i][0] = v[i][0]
    for i in range(1, n + 1):
        ai = av[i - 1]
        hi = h[i]
        hp = h[i - 1]
        ei = e[i]
        vi = v[i]
        vp = v[i - 1]
        for j in range(1, m + 1):
            ei[j] = max(ei[j - 1] + ge, hi[j - 1] + go + ge)
            vi[j] = max(vp[j] + ge, hp[j] + go + ge)
            diag = hp[j - 1] + (match if ai == bv[j - 1] else mismatch)
            hi[j] = max(diag, ei[j], vi[j])

    cigar = _traceback_tables(h, e, v, n, m, ge)
    return float(h[n][m]), cigar


def gotoh_wavefront(
    a: np.ndarray,
    b: np.ndarray,
    match: float,
    mismatch: float,
    gap_open: float,
    gap_extend: float,
) -> tuple[float, tuple[tuple[str, int], ...]]:
    """Anti-diagonal vectorised Gotoh; bit-identical to :func:`gotoh_scalar`.

    Fills full ``(n+1) x (m+1)`` H/E/V float64 tables one anti-diagonal
    at a time: every cell on diagonal ``d`` reads only diagonals
    ``d - 1`` (gap arms) and ``d - 2`` (substitution), so each diagonal
    is a handful of elementwise ops with no sequential inner loop. The
    tables live as flat 1-D buffers because the anti-diagonal's flat
    index collapses to ``i * m + d`` -- a single slice-plus-add per
    diagonal, and every dependency is that vector minus a constant --
    which keeps per-diagonal overhead low enough to beat the scalar
    loop from roughly 2.5 k cells up (the measured table is in
    :mod:`repro.mapping.alignment`). The traceback then walks the same
    tables the scalar reference builds.
    """
    n, m = int(a.size), int(b.size)
    if n and m:
        record_mapping_ops("align-cell", n * m)
    go, ge = gap_open, gap_extend
    neg = -1e18
    width = m + 1

    h = np.zeros((n + 1) * width)
    e = np.full((n + 1) * width, neg)
    v = np.full((n + 1) * width, neg)
    # Boundaries mirror the scalar reference's expressions exactly
    # (go + ge * j, elementwise) so inexact scoring configs still agree.
    e[1:width] = go + ge * np.arange(1, m + 1)
    h[1:width] = e[1:width]
    v[width::width] = go + ge * np.arange(1, n + 1)
    h[width::width] = v[width::width]

    if n and m:
        # Substitution scores, padded to table coordinates so cell
        # (i, j) reads sub at its own flat index.
        sub = np.zeros((n + 1) * width)
        sub.reshape(n + 1, width)[1:, 1:] = np.where(
            np.asarray(a)[:, None] == np.asarray(b)[None, :], match, mismatch
        )
        im = np.arange(n + 1) * m  # flat(i, d - i) = i*(m+1) + (d-i) = i*m + d
        for d in range(2, n + m + 1):
            ilo = 1 if d - m < 1 else d - m
            ihi = n if d - 1 > n else d - 1
            fi = im[ilo : ihi + 1] + d
            # Same association order as the scalar loop: (H + go) + ge.
            e_new = np.maximum(e[fi - 1] + ge, h[fi - 1] + go + ge)
            v_new = np.maximum(v[fi - width] + ge, h[fi - width] + go + ge)
            diag = h[fi - width - 1] + sub[fi]
            e[fi] = e_new
            v[fi] = v_new
            h[fi] = np.maximum(np.maximum(diag, e_new), v_new)

    h2 = h.reshape(n + 1, width)
    cigar = _traceback_tables(h2, e.reshape(n + 1, width), v.reshape(n + 1, width), n, m, ge)
    return float(h2[n, m]), cigar

"""Affine-gap (Gotoh) alignment: the scalar reference of the lane fill.

The inter-anchor fill stage of piecewise alignment (paper Fig. 1(d);
the DP GenPIP's alignment units execute in-memory) solves a global
affine-gap alignment per segment. The cell recurrence is

.. code-block:: text

    E[i,j] = max(E[i,j-1] + ge, H[i,j-1] + go + ge)   # gap in ref
    V[i,j] = max(V[i-1,j] + ge, H[i-1,j] + go + ge)   # gap in read
    H[i,j] = max(H[i-1,j-1] + sub(i,j), E[i,j], V[i,j])

:func:`gotoh_scalar` fills it cell by cell and defines *the* alignment
of a segment, or, with ``free_ref_tail``, of a head/tail extension: its
score and, through :func:`_traceback_tables`, which of the co-optimal
paths becomes the CIGAR. A mapped read is aligned in one call of the
compiled kernel ``gotoh.c`` when it loaded (``native.kernel("gotoh")``:
built on first use by :mod:`repro.kernels.native`, once per process,
never at import), else by the Python stitch of
:mod:`repro.mapping.alignment`, whose lane fill runs this loop on each
lane. The compiled fill computes in int64 cells and fills a segment in
a certified diagonal band (widened once where the first band cannot be
certified), so it fills fewer cells than this loop; the tests check
each of its lanes against it, score and CIGAR, for every
integer-valued scoring, whatever its lane mates, lanes whose path
leaves the first band included. ``native.backend("gotoh")`` says which
one runs.

:func:`merge_cigar` is how the pieces of a chain become one CIGAR: the
Python stitch merges its runs with it, and ``gotoh.c``'s
``align_chain`` merges them as it does (the tests compare the two).
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

    The tie-break order every Gotoh fill in the repo follows: where
    ``H`` is reached equally well several ways the walk prefers ``E``
    (gap in ref), then ``V`` (gap in read), then the diagonal; inside a
    gap it prefers extending the gap over opening it.
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
    free_ref_tail: bool = False,
) -> tuple[float, tuple[tuple[str, int], ...]]:
    """Pure-Python Gotoh reference; returns ``(score, raw 'M'-run cigar)``.

    The ground truth the compiled lane fill is checked against, and what
    the fill runs where that did not load. Takes any float scoring.
    With ``free_ref_tail`` the alignment may stop before consuming all
    of ``a`` (trailing reference bases are free): it ends on the first
    row where ``H``'s last column is largest. Charges its cells to the
    mapping-ops ledger.
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

    end = n
    if free_ref_tail:
        last_column = [row[m] for row in h]
        end = last_column.index(max(last_column))
    cigar = _traceback_tables(h, e, v, end, m, ge)
    return float(h[end][m]), cigar

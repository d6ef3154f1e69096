"""Sequence alignment (paper Fig. 1(d)): affine-gap DP with CIGAR output.

Two layers:

* :func:`align_banded` -- exact global alignment of two short segments
  under affine gap costs (Gotoh's algorithm), with an optional band
  restriction around the expected diagonal. Rows are vectorised with the
  "lazy-E" trick: the within-row horizontal-gap recurrence collapses to
  a running maximum of ``H[j] + j * gap_extend`` because re-opening a
  gap is never cheaper than extending one.
* :func:`align_chain` -- piecewise alignment along a chain of anchors,
  exactly as minimap2 closes the gaps between chained minimizer hits:
  anchor k-mers are exact matches by construction (the minimizer hash is
  invertible), so only the short inter-anchor segments need DP. Head and
  tail are aligned up to a capped extension and soft-clipped beyond it.

Unbanded segments below ``_ROW_PIPELINE_MIN_CELLS`` cells run through
the scalar loop in :mod:`repro.kernels.align` instead, which is faster
there and bit-identical, score and CIGAR, to the row pipeline: the
crossover is a speed constant and no output byte depends on it.

Scoring defaults follow minimap2's map-ont preset (match +2, mismatch
-4, gap open -4, gap extend -2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.align import gotoh_scalar, merge_cigar
from repro.kernels.mapping_ops import record_mapping_ops

#: CIGAR operation codes used throughout: match, mismatch, insertion
#: (read-only base), deletion (reference-only base), soft clip.
CIGAR_OPS = ("=", "X", "I", "D", "S")

# Gotoh is filled two ways, picked from the segment's cell count n * m:
# ``gotoh_scalar`` below _ROW_PIPELINE_MIN_CELLS, the numpy row pipeline
# (``_align_core``) from there up -- and for every banded segment and
# head/tail extension, whatever its size. Both return the same score and
# CIGAR (``tests/test_kernels_mapping.py``), so the value decides speed
# and nothing else. Measured per call (us, median per cell-count bucket;
# the 1 924 inter-anchor segments of 120 ``ecoli-align`` reads, seed 7,
# PR 22):
#
#      cells   scalar  row pipeline
#         33       30           112
#        225      161           259
#        462      293           356
#        650      403           426
#        756      466           463
#        869      533           496
#      1 088      671           571
#      1 560    1 013           664
#      2 756    1 733           918
#      6 847    4 398         1 507
#     43 361   32 873         5 800
_ROW_PIPELINE_MIN_CELLS = 800


@dataclass(frozen=True)
class AlignmentConfig:
    """Alignment scoring and piecewise-alignment limits."""

    match: float = 2.0
    mismatch: float = -4.0
    gap_open: float = -4.0
    gap_extend: float = -2.0
    #: Maximum head/tail length aligned by DP; longer ends are soft-clipped.
    max_end_extension: int = 400
    #: Safety cap on inter-anchor segment DP size (cells).
    max_segment_cells: int = 4_000_000

    def __post_init__(self) -> None:
        if self.match <= 0:
            raise ValueError("match score must be positive")
        if self.mismatch >= 0 or self.gap_open >= 0 or self.gap_extend >= 0:
            raise ValueError("penalties must be negative")
        scores = (self.match, self.mismatch, self.gap_open, self.gap_extend)
        if not all(float(value).is_integer() for value in scores):
            # The row pipeline prices a gap as open + j * extend where the
            # scalar loop adds extend j times: the same number only when
            # the arithmetic is exact.
            raise ValueError(
                "match, mismatch, gap_open and gap_extend must be integer-valued: "
                "under float rounding a segment's score and CIGAR would depend "
                "on which Gotoh fill ran"
            )


@dataclass(frozen=True)
class AlignmentResult:
    """An alignment of a read (segment) against a reference segment.

    ``cigar`` is a tuple of ``(op, length)`` with ops from
    :data:`CIGAR_OPS`; reference-consuming ops are ``=``, ``X``, ``D``;
    read-consuming ops are ``=``, ``X``, ``I``, ``S``.
    """

    score: float
    cigar: tuple[tuple[str, int], ...]

    @property
    def n_matches(self) -> int:
        return sum(n for op, n in self.cigar if op == "=")

    @property
    def n_mismatches(self) -> int:
        return sum(n for op, n in self.cigar if op == "X")

    @property
    def n_insertions(self) -> int:
        return sum(n for op, n in self.cigar if op == "I")

    @property
    def n_deletions(self) -> int:
        return sum(n for op, n in self.cigar if op == "D")

    @property
    def n_clipped(self) -> int:
        return sum(n for op, n in self.cigar if op == "S")

    @property
    def ref_consumed(self) -> int:
        return sum(n for op, n in self.cigar if op in "=XD")

    @property
    def read_consumed(self) -> int:
        return sum(n for op, n in self.cigar if op in "=XIS")

    @property
    def identity(self) -> float:
        """Matches over aligned columns (clips excluded)."""
        columns = self.n_matches + self.n_mismatches + self.n_insertions + self.n_deletions
        if columns == 0:
            return 0.0
        return self.n_matches / columns


def cigar_to_string(cigar: tuple[tuple[str, int], ...]) -> str:
    """Render a CIGAR tuple as the usual compact string (e.g. ``12=1X3I``)."""
    return "".join(f"{length}{op}" for op, length in cigar)


def align_banded(
    ref: np.ndarray,
    read: np.ndarray,
    config: AlignmentConfig | None = None,
    band: int | None = None,
) -> AlignmentResult:
    """Exact global affine-gap alignment of two code arrays.

    Parameters
    ----------
    ref, read:
        2-bit code arrays (reference consumes ``D``, read consumes ``I``).
    config:
        Scoring parameters.
    band:
        Optional half-width of the band around the length-interpolated
        diagonal; cells outside are unreachable. ``None`` = unbanded
        (exact). A band at least as wide as the true alignment's drift
        gives the exact result; one too narrow for any path to stay
        inside it raises ``ValueError``.
    """
    config = config or AlignmentConfig()
    a = np.asarray(ref)
    b = np.asarray(read)
    if band is None and a.size * b.size < _ROW_PIPELINE_MIN_CELLS:
        raw = AlignmentResult(
            *gotoh_scalar(a, b, config.match, config.mismatch, config.gap_open, config.gap_extend)
        )
    else:
        raw = _align_core(a, b, config, band)
    return AlignmentResult(score=raw.score, cigar=_classify_diagonals(raw.cigar, ref, read))


def _align_core(
    ref: np.ndarray,
    read: np.ndarray,
    config: AlignmentConfig,
    band: int | None = None,
    free_ref_tail: bool = False,
) -> AlignmentResult:
    """Gotoh DP; returns a CIGAR with raw 'M' (match-or-mismatch) runs.

    With ``free_ref_tail`` the alignment may stop before consuming the
    whole reference (semi-global: trailing reference bases are free) --
    used for head/tail extension where the true reference span is
    unknown.
    """
    a = np.asarray(ref, dtype=np.int16)
    b = np.asarray(read, dtype=np.int16)
    n, m = a.size, b.size
    if n == 0 and m == 0:
        return AlignmentResult(score=0.0, cigar=())
    if n == 0:
        return AlignmentResult(
            score=config.gap_open + m * config.gap_extend, cigar=(("I", m),)
        )
    if m == 0:
        if free_ref_tail:
            return AlignmentResult(score=0.0, cigar=())
        return AlignmentResult(
            score=config.gap_open + n * config.gap_extend, cigar=(("D", n),)
        )

    record_mapping_ops("align-cell", int(n) * int(m))
    neg = -1e18
    open_ext = config.gap_open + config.gap_extend
    ext = config.gap_extend

    # H: best score; V: gap-in-read (vertical, consumes ref); E: gap-in-ref.
    h_prev = np.empty(m + 1)
    h_prev[0] = 0.0
    h_prev[1:] = config.gap_open + ext * np.arange(1, m + 1)
    if band is not None:
        h_prev[band + 1 :] = neg  # row 0's band is centred on column 0
    v_prev = np.full(m + 1, neg)

    # Traceback tables (a byte per cell and table; see ``_traceback``).
    ptr_h = np.zeros((n + 1, m + 1), dtype=np.uint8)
    ptr_e = np.zeros((n + 1, m + 1), dtype=np.uint8)
    ptr_v = np.zeros((n + 1, m + 1), dtype=np.uint8)
    ptr_h[0, 1:] = 1
    ptr_e[0, 2:] = 1

    cols = np.arange(m + 1)
    j_scaled = cols * ext
    last_col = np.empty(n + 1)
    last_col[0] = h_prev[m]

    for i in range(1, n + 1):
        sub = np.where(b == a[i - 1], config.match, config.mismatch)
        diag = h_prev[:-1] + sub  # candidate H[i, 1:] via diagonal

        v_open = h_prev + open_ext
        v_extend = v_prev + ext
        v_curr = np.maximum(v_open, v_extend)
        ptr_v[i] = v_extend >= v_open

        # First pass for H without horizontal gaps.
        g = np.empty(m + 1)
        g[0] = config.gap_open + ext * i  # all-deletions start of row
        g[1:] = np.maximum(diag, v_curr[1:])
        from_v = np.zeros(m + 1, dtype=bool)
        from_v[1:] = v_curr[1:] >= diag

        if band is not None:
            center = int(round(i * m / n))
            mask = (cols < center - band) | (cols > center + band)
            g[mask] = neg
            v_curr[mask] = neg

        # Lazy-E: E[j] = max_{j' < j} (H[j'] + j'*(-ext)) ... computed as a
        # running max of g[j'] - j'*ext, because a second gap opening can
        # never beat extending the first.
        shifted = g - j_scaled
        run = np.maximum.accumulate(shifted)
        e_curr = np.full(m + 1, neg)
        e_curr[1:] = run[:-1] + j_scaled[1:] + config.gap_open
        if band is not None:
            e_curr[mask] = neg
        h_curr = np.maximum(g, e_curr)

        ptr_h[i] = np.where(e_curr >= g, 1, np.where(from_v, 2, 0))
        ptr_h[i, 0] = 2  # column 0 reached only by deletions
        # E extends iff the running max did not restart at j-1 (a tie
        # extends): E[j-1] + ext >= g[j-1] + open + ext.
        ptr_e[i, 2:] = run[:-2] >= shifted[1:-1]

        h_prev = h_curr
        v_prev = v_curr
        last_col[i] = h_curr[m]

    if free_ref_tail:
        end_row = int(np.argmax(last_col))
        cigar = _traceback(ptr_h, ptr_e, ptr_v, end_row, m)
        return AlignmentResult(score=float(last_col[end_row]), cigar=cigar)
    if band is not None and h_prev[m] < neg / 2:
        raise ValueError(f"band {band} is too narrow for {n} x {m}: no path stays inside it")
    cigar = _traceback(ptr_h, ptr_e, ptr_v, n, m)
    return AlignmentResult(score=float(h_prev[m]), cigar=cigar)


def _traceback(ptr_h, ptr_e, ptr_v, n: int, m: int) -> tuple[tuple[str, int], ...]:
    """Walk the row pipeline's pointer tables back from ``(n, m)``.

    ``ptr_h``: 0 diagonal, 1 from E (left), 2 from V (up); ``ptr_e`` /
    ``ptr_v``: 1 = the gap extends, 0 = it opened here. Ties were
    resolved when the tables were filled, in the order
    :func:`repro.kernels.align._traceback_tables` states.
    """
    parts: list[tuple[str, int]] = []
    i, j = n, m
    state = "H"
    while i > 0 or j > 0:
        if state == "H":
            choice = ptr_h[i, j]
            if j == 0:
                choice = 2
            elif i == 0:
                choice = 1
            if choice == 0:
                parts.append(("M", 1))
                i -= 1
                j -= 1
            else:
                state = "E" if choice == 1 else "V"
        elif state == "E":
            parts.append(("I", 1))
            if ptr_e[i, j] == 0:
                state = "H"
            j -= 1
        else:  # V
            parts.append(("D", 1))
            if ptr_v[i, j] == 0:
                state = "H"
            i -= 1
    parts.reverse()
    return merge_cigar(parts)


def _classify_diagonals(
    cigar: tuple[tuple[str, int], ...], ref: np.ndarray, read: np.ndarray
) -> tuple[tuple[str, int], ...]:
    """Split 'M' runs into '='/'X' by comparing the sequences."""
    out: list[tuple[str, int]] = []
    i = j = 0
    for op, length in cigar:
        if op == "M":
            equal = np.asarray(ref[i : i + length]) == np.asarray(read[j : j + length])
            start = 0
            for idx in range(1, length + 1):
                if idx == length or equal[idx] != equal[start]:
                    out.append(("=" if equal[start] else "X", idx - start))
                    start = idx
            i += length
            j += length
        elif op in ("D",):
            out.append((op, length))
            i += length
        else:
            out.append((op, length))
            j += length
    return merge_cigar(out)


def _align_extension(
    ref_window: np.ndarray,
    read_segment: np.ndarray,
    config: AlignmentConfig,
    reverse: bool,
) -> AlignmentResult:
    """Semi-global extension alignment for a read head or tail.

    The read segment must be fully consumed; the reference window is
    consumed only as far as the best alignment reaches. ``reverse=True``
    extends leftwards (for the head): both inputs are reversed, aligned
    with a free reference tail, and the CIGAR is flipped back.
    """
    a = ref_window[::-1] if reverse else ref_window
    b = read_segment[::-1] if reverse else read_segment
    raw = _align_core(a, b, config, free_ref_tail=True)
    cigar = _classify_diagonals(raw.cigar, a, b)
    if reverse:
        cigar = tuple(reversed(cigar))
    return AlignmentResult(score=raw.score, cigar=cigar)


def align_chain(
    reference_codes: np.ndarray,
    read_codes: np.ndarray,
    anchors: np.ndarray,
    kmer_size: int,
    config: AlignmentConfig | None = None,
) -> tuple[AlignmentResult, int, int]:
    """Piecewise alignment along a chain (minimap2's fill-between-anchors).

    Parameters
    ----------
    reference_codes:
        Full reference code array.
    read_codes:
        The read, *already oriented* to the chain's strand.
    anchors:
        ``int64[n, 2]`` (ref_pos, read_pos) of the chain, ascending; the
        anchor k-mers are exact matches by construction.
    kmer_size:
        Anchor k-mer length.
    config:
        Scoring parameters.

    Returns
    -------
    (alignment, ref_start, ref_end):
        The stitched alignment and the reference interval it consumes.
    """
    config = config or AlignmentConfig()
    if anchors.shape[0] == 0:
        raise ValueError("cannot align an empty chain")
    k = kmer_size

    # Keep a non-overlapping subset of anchors (>= k apart on both axes).
    kept = [0]
    for idx in range(1, anchors.shape[0]):
        prev = anchors[kept[-1]]
        cur = anchors[idx]
        if cur[0] >= prev[0] + k and cur[1] >= prev[1] + k:
            kept.append(idx)
    sel = anchors[kept]

    parts: list[tuple[str, int]] = []
    score = 0.0

    # --- head: extend up to max_end_extension bases before the first
    # anchor, semi-global (unused leading reference is free).
    first_ref, first_read = int(sel[0, 0]), int(sel[0, 1])
    head_read = min(first_read, config.max_end_extension)
    clip_head = first_read - head_read
    if clip_head:
        parts.append(("S", clip_head))
    ref_start = first_ref
    if head_read:
        window = min(first_ref, int(head_read * 1.5) + 16)
        head = _align_extension(
            reference_codes[first_ref - window : first_ref],
            read_codes[first_read - head_read : first_read],
            config,
            reverse=True,
        )
        parts.extend(head.cigar)
        score += head.score
        ref_start = first_ref - head.ref_consumed

    # --- anchors and inter-anchor segments.
    rx, ry = first_ref, first_read
    for a_ref, a_read in sel:
        a_ref, a_read = int(a_ref), int(a_read)
        dx, dy = a_ref - rx, a_read - ry
        if dx or dy:
            if dx * dy > 0 and dx == dy and np.array_equal(
                reference_codes[rx:a_ref], read_codes[ry:a_read]
            ):
                parts.append(("=", dx))
                score += config.match * dx
            else:
                if dx * dy > config.max_segment_cells:
                    # Degenerate huge gap inside a chain: score as indels.
                    parts.append(("D", dx))
                    parts.append(("I", dy))
                    score += 2 * config.gap_open + (dx + dy) * config.gap_extend
                else:
                    seg = align_banded(
                        reference_codes[rx:a_ref], read_codes[ry:a_read], config
                    )
                    parts.extend(seg.cigar)
                    score += seg.score
        parts.append(("=", k))
        score += config.match * k
        rx, ry = a_ref + k, a_read + k

    # --- tail: extend up to max_end_extension bases after the last
    # anchor, semi-global (unused trailing reference is free).
    read_len = int(np.asarray(read_codes).size)
    tail_read = min(read_len - ry, config.max_end_extension)
    clip_tail = read_len - ry - tail_read
    ref_end = rx
    if tail_read:
        window = min(len(reference_codes) - rx, int(tail_read * 1.5) + 16)
        tail = _align_extension(
            reference_codes[rx : rx + window], read_codes[ry : ry + tail_read], config,
            reverse=False,
        )
        parts.extend(tail.cigar)
        score += tail.score
        ref_end = rx + tail.ref_consumed
    if clip_tail:
        parts.append(("S", clip_tail))

    result = AlignmentResult(score=score, cigar=merge_cigar(parts))
    return result, ref_start, ref_end

"""Sequence alignment (paper Fig. 1(d)): affine-gap DP with CIGAR output.

Two layers:

* :func:`align_global` -- exact global alignment of two segments under
  affine gap costs (Gotoh's algorithm).
* :func:`align_chain` -- piecewise alignment along a chain of anchors,
  exactly as minimap2 closes the gaps between chained minimizer hits:
  anchor k-mers are exact matches by construction (the minimizer hash is
  invertible), so only the short inter-anchor segments need DP. Head and
  tail are aligned up to a capped extension and soft-clipped beyond it.

Both run every DP through one *lane fill* (:func:`_fill_lanes`): a row
pipeline over a ``(lanes x columns)`` array in which each lane is one
independent alignment, the way GenPIP's in-memory DP units each work on
many cells at once. :func:`align_chain` first gathers all of a chain's
DP inputs -- every inter-anchor segment, the reversed head window and
the tail window -- then fills them together and stitches the CIGAR in
chain order; :func:`align_global` is a one-lane fill. Rows are
vectorised with the "lazy-E" trick: the within-row horizontal-gap
recurrence collapses to a running maximum of ``H[j] + j * gap_extend``
because re-opening a gap is never cheaper than extending one. Every
lane gets the same float64 operations per cell, so its score and CIGAR
equal :func:`repro.kernels.align.gotoh_scalar`'s whatever its lane mates.

Scoring defaults follow minimap2's map-ont preset (match +2, mismatch
-4, gap open -4, gap extend -2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.kernels.align import merge_cigar
from repro.kernels.mapping_ops import record_mapping_ops

#: CIGAR operation codes used throughout: match, mismatch, insertion
#: (read-only base), deletion (reference-only base), soft clip.
CIGAR_OPS = ("=", "X", "I", "D", "S")

# Lanes are grouped by power-of-two row count, and a group's padded
# cells (lanes x rows x columns) stay within ``max_segment_cells``, the
# size one segment may already reach. Fill rate per bucket of that
# grouping, in Mcells/s of real cells, traceback included: the 2 077 DP
# inputs of 81 aligned ``ecoli-align`` reads (seed 7, 4 slices), one
# segment per call before (``gotoh_scalar`` under 800 cells, a
# one-segment row pipeline above), one group per call after (median of
# 5 passes, 2-vCPU Xeon container, Python 3.11, numpy 2.4):
#
#     rows       lanes  cells (k)  before  after
#     1             12       0.02    0.17   0.02
#     2-3           54       0.37    0.47   0.08
#     4-7          180       5.8     0.93   0.52
#     8-15         418      58.5     1.33   2.27
#     16-31        576     279       1.45   5.16
#     32-63        435     823       2.56   8.68
#     64-127       239   1 765       5.01  11.44
#     128-255      120   3 619       8.79  17.26
#     256-511       37   4 168      15.72  24.06
#     512-1023       6   2 142      22.23  29.18
#     all        2 077  12 862       7.61  16.03
#
# Lanes under 8 rows lose (a group of them still pays ~16 numpy calls a
# row), but they hold 0.05 % of the cells: 17 ms of the 0.80 s (7 ms of
# the 1.69 s before).


@dataclass(frozen=True)
class AlignmentConfig:
    """Alignment scoring and piecewise-alignment limits."""

    match: float = 2.0
    mismatch: float = -4.0
    gap_open: float = -4.0
    gap_extend: float = -2.0
    #: Maximum head/tail length aligned by DP; longer ends are soft-clipped.
    max_end_extension: int = 400
    #: Safety cap on inter-anchor segment DP size (cells), and on the
    #: padded cells of one lane-fill group.
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
        if self.max_end_extension < 0 or self.max_segment_cells < 0:
            # A negative extension clips more read than there is; a
            # negative cell cap turns every segment into D+I.
            raise ValueError("max_end_extension and max_segment_cells must be >= 0")


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


def align_global(
    ref: np.ndarray,
    read: np.ndarray,
    config: AlignmentConfig | None = None,
) -> AlignmentResult:
    """Exact global affine-gap alignment of two code arrays.

    ``ref`` and ``read`` are 2-bit code arrays (reference consumes
    ``D``, read consumes ``I``); ``config`` holds the scoring.
    """
    config = config or AlignmentConfig()
    a = np.asarray(ref)
    b = np.asarray(read)
    (raw,) = _fill_lanes([(a, b, False)], config)
    return AlignmentResult(score=raw.score, cigar=_classify_diagonals(raw.cigar, a, b))


#: One DP input: ``(ref, read, free_ref_tail)``. With ``free_ref_tail``
#: the alignment may stop before consuming the whole reference
#: (semi-global: trailing reference bases are free) -- used for head/tail
#: extension where the true reference span is unknown.
Lane = tuple[np.ndarray, np.ndarray, bool]


def _fill_lanes(lanes: list[Lane], config: AlignmentConfig) -> list[AlignmentResult]:
    """Gotoh DP of every lane; results in lane order, with raw 'M'
    (match-or-mismatch) runs in their CIGARs.

    Lanes with an empty side are closed-form; the rest are filled in the
    groups :func:`_lane_groups` forms, one row pipeline per group.
    """
    results: list[AlignmentResult | None] = [None] * len(lanes)
    filled = []
    for index, (ref, read, free_ref_tail) in enumerate(lanes):
        n, m = ref.size, read.size
        if n and m:
            filled.append(index)
        elif n == 0 and m == 0:
            results[index] = AlignmentResult(score=0.0, cigar=())
        elif n == 0:
            results[index] = AlignmentResult(
                score=config.gap_open + m * config.gap_extend, cigar=(("I", m),)
            )
        elif free_ref_tail:
            results[index] = AlignmentResult(score=0.0, cigar=())
        else:
            results[index] = AlignmentResult(
                score=config.gap_open + n * config.gap_extend, cigar=(("D", n),)
            )
    shapes = [(int(lanes[index][0].size), int(lanes[index][1].size)) for index in filled]
    for group in _lane_groups(shapes, config.max_segment_cells):
        members = [filled[member] for member in group]
        for index, result in zip(members, _fill_group([lanes[i] for i in members], config), strict=True):
            results[index] = result
    return results


def _lane_groups(shapes: list[tuple[int, int]], max_cells: int) -> list[list[int]]:
    """Group lane indices by power-of-two row count (``n.bit_length()``).

    Within a bucket, lanes join a group in order while its padded cells
    (lanes x most rows x most columns) stay within ``max_cells``; a lane
    alone always forms a group.
    """
    buckets: dict[int, list[int]] = {}
    for index, (n, _) in enumerate(shapes):
        buckets.setdefault(n.bit_length(), []).append(index)
    groups = []
    for key in sorted(buckets):
        group: list[int] = []
        rows = cols = 0
        for index in buckets[key]:
            n, m = shapes[index]
            grown_rows, grown_cols = max(rows, n), max(cols, m)
            if group and (len(group) + 1) * grown_rows * grown_cols > max_cells:
                groups.append(group)
                group, grown_rows, grown_cols = [], n, m
            group.append(index)
            rows, cols = grown_rows, grown_cols
        groups.append(group)
    return groups


def _fill_group(lanes: list[Lane], config: AlignmentConfig) -> list[AlignmentResult]:
    """One row pipeline over lanes that each have both sides non-empty.

    A lane shorter than the group is padded below and to the right; a
    cell depends only on cells above it and to its left, so padding
    never reaches a lane's own cells or its traceback.
    """
    count = len(lanes)
    ns = [int(ref.size) for ref, _, _ in lanes]
    ms = [int(read.size) for _, read, _ in lanes]
    rows, width = max(ns), max(ms) + 1
    record_mapping_ops("align-cell", sum(n * m for n, m in zip(ns, ms, strict=True)))
    ref_rows = np.zeros((rows, count, 1), dtype=np.int16)
    reads = np.zeros((count, width - 1), dtype=np.int16)
    for lane, (ref, read, _) in enumerate(lanes):
        ref_rows[: ns[lane], lane, 0] = ref
        reads[lane, : ms[lane]] = read
    equal = reads == ref_rows  # [row - 1, lane, column - 1]: the bases match

    neg = -1e18
    go, ext = config.gap_open, config.gap_extend
    open_ext = go + ext
    j_scaled = np.arange(width) * ext
    j_tail = j_scaled[1:]

    # Traceback flags, one byte per cell and table, indexed [row, lane,
    # column] (see ``_traceback``). Row 0 is all insertions.
    from_e, from_v, e_extends, v_extends = (
        np.zeros((rows + 1, count, width), dtype=bool) for _ in range(4)
    )
    e_extends[0, :, 2:] = True

    # H: best score; V: gap-in-read (vertical, consumes ref); E: gap-in-ref.
    h_prev = np.empty((count, width))
    h_prev[:, 0] = 0.0
    h_prev[:, 1:] = go + ext * np.arange(1, width)
    v_prev = np.full((count, width), neg)
    h_curr, v_curr, v_open, v_ext, g, shifted, run, e_curr = (
        np.empty((count, width)) for _ in range(8)
    )
    e_curr[:, 0] = neg
    diag = np.empty((count, width - 1))
    # Views sliced once, not per row.
    h_prev_head, h_curr_head = h_prev[:, :-1], h_curr[:, :-1]
    v_prev_tail, v_curr_tail = v_prev[:, 1:], v_curr[:, 1:]
    g_tail, e_tail = g[:, 1:], e_curr[:, 1:]
    run_head, run_head2, shifted_mid = run[:, :-1], run[:, :-2], shifted[:, 1:-1]
    from_v_tail, e_extends_tail = from_v[:, :, 1:], e_extends[:, :, 2:]
    match, mismatch = config.match, config.mismatch

    # H in each lane's last column: on every row when a free-tail lane
    # may end on any of them, else on the rows where some lane ends.
    corner = np.arange(count) * width + np.asarray(ms)
    last_col = np.empty((rows + 1, count))
    h_prev.take(corner, out=last_col[0])
    capture = range(rows + 1) if any(free for _, _, free in lanes) else set(ns)

    for i in range(1, rows + 1):
        sub = np.where(equal[i - 1], match, mismatch)
        np.add(h_prev_head, sub, out=diag)  # candidate H[i, 1:] via diagonal

        np.add(h_prev, open_ext, out=v_open)
        np.add(v_prev, ext, out=v_ext)
        np.maximum(v_open, v_ext, out=v_curr)
        np.greater_equal(v_ext, v_open, out=v_extends[i])

        # First pass for H without horizontal gaps.
        g[:, 0] = go + ext * i  # all-deletions start of row
        np.maximum(diag, v_curr_tail, out=g_tail)
        np.greater_equal(v_curr_tail, diag, out=from_v_tail[i])

        # Lazy-E: E[j] = max_{j' < j} (H[j'] + j'*(-ext)) ... computed as a
        # running max of g[j'] - j'*ext, because a second gap opening can
        # never beat extending the first.
        np.subtract(g, j_scaled, out=shifted)
        np.maximum.accumulate(shifted, axis=1, out=run)
        np.add(run_head, j_tail, out=e_tail)
        np.add(e_tail, go, out=e_tail)
        np.maximum(g, e_curr, out=h_curr)
        np.greater_equal(e_curr, g, out=from_e[i])
        # E extends iff the running max did not restart at j-1 (a tie
        # extends): E[j-1] + ext >= g[j-1] + open + ext.
        np.greater_equal(run_head2, shifted_mid, out=e_extends_tail[i])

        if i in capture:
            h_curr.take(corner, out=last_col[i])
        h_prev, h_curr, h_prev_head, h_curr_head = h_curr, h_prev, h_curr_head, h_prev_head
        v_prev, v_curr, v_prev_tail, v_curr_tail = v_curr, v_prev, v_curr_tail, v_prev_tail

    results = []
    for lane, (n, m, (_, _, free_ref_tail)) in enumerate(zip(ns, ms, lanes, strict=True)):
        column = last_col[: n + 1, lane]
        end = int(np.argmax(column)) if free_ref_tail else n
        tables = (table[: end + 1, lane, : m + 1] for table in (from_e, from_v, e_extends, v_extends))
        cigar = _traceback(*tables, end, m)
        results.append(AlignmentResult(score=float(column[end]), cigar=cigar))
    return results


def _traceback(from_e, from_v, e_extends, v_extends, n: int, m: int) -> tuple[tuple[str, int], ...]:
    """Walk one lane's flag tables back from ``(n, m)``.

    ``from_e`` / ``from_v``: ``H`` came from E (left) / V (up), E taking
    precedence, else from the diagonal; ``e_extends`` / ``v_extends``:
    the gap extends here rather than opening. Ties were resolved when
    the tables were filled, in the order
    :func:`repro.kernels.align._traceback_tables` states.
    """
    width = m + 1
    from_e, from_v, e_extends, v_extends = (
        table.tobytes() for table in (from_e, from_v, e_extends, v_extends)
    )
    ops: list[str] = []
    i, j = n, m
    state = "H"
    while i > 0 or j > 0:
        at = i * width + j
        if state == "H":
            if j == 0:
                state = "V"
            elif i == 0 or from_e[at]:
                state = "E"
            elif from_v[at]:
                state = "V"
            else:
                ops.append("M")
                i -= 1
                j -= 1
        elif state == "E":
            ops.append("I")
            if not e_extends[at]:
                state = "H"
            j -= 1
        else:  # V
            ops.append("D")
            if not v_extends[at]:
                state = "H"
            i -= 1
    ops.reverse()
    return tuple((op, len(list(run))) for op, run in groupby(ops))


def _classify_diagonals(
    cigar: tuple[tuple[str, int], ...], ref: np.ndarray, read: np.ndarray
) -> tuple[tuple[str, int], ...]:
    """Split 'M' runs into '='/'X' by comparing the sequences."""
    out: list[tuple[str, int]] = []
    i = j = 0
    for op, length in cigar:
        if op == "M":
            equal = np.asarray(ref[i : i + length]) == np.asarray(read[j : j + length])
            out.extend(
                ("=" if same else "X", len(list(run))) for same, run in groupby(equal.tolist())
            )
            i += length
            j += length
        elif op in ("D",):
            out.append((op, length))
            i += length
        else:
            out.append((op, length))
            j += length
    return merge_cigar(out)


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
    read_codes = np.asarray(read_codes)
    k = kmer_size

    # Keep a non-overlapping subset of anchors (>= k apart on both axes).
    kept = [0]
    for idx in range(1, anchors.shape[0]):
        prev = anchors[kept[-1]]
        cur = anchors[idx]
        if cur[0] >= prev[0] + k and cur[1] >= prev[1] + k:
            kept.append(idx)
    sel = anchors[kept]

    # The chain in order: each piece is a scored CIGAR run or the index
    # of the lane whose alignment goes there. Lanes are filled together
    # once every one is known.
    lanes: list[Lane] = []
    pieces: list[tuple[tuple[str, int], float] | int] = []

    # --- head: extend up to max_end_extension bases before the first
    # anchor, semi-global (unused leading reference is free): the
    # reversed window and read head, with a free reference tail.
    first_ref, first_read = int(sel[0, 0]), int(sel[0, 1])
    head_read = min(first_read, config.max_end_extension)
    clip_head = first_read - head_read
    pieces.append((("S", clip_head), 0.0))
    head_lane = None
    if head_read:
        window = min(first_ref, int(head_read * 1.5) + 16)
        head_lane = len(lanes)
        pieces.append(head_lane)
        lanes.append(
            (
                reference_codes[first_ref - window : first_ref][::-1],
                read_codes[first_read - head_read : first_read][::-1],
                True,
            )
        )

    # --- anchors and inter-anchor segments.
    rx, ry = first_ref, first_read
    for a_ref, a_read in sel:
        a_ref, a_read = int(a_ref), int(a_read)
        dx, dy = a_ref - rx, a_read - ry
        if dx or dy:
            if dx * dy > 0 and dx == dy and np.array_equal(
                reference_codes[rx:a_ref], read_codes[ry:a_read]
            ):
                pieces.append((("=", dx), config.match * dx))
            elif dx * dy > config.max_segment_cells:
                # Degenerate huge gap inside a chain: score as indels.
                pieces.append((("D", dx), 0.0))
                pieces.append((("I", dy), 2 * config.gap_open + (dx + dy) * config.gap_extend))
            else:
                pieces.append(len(lanes))
                lanes.append((reference_codes[rx:a_ref], read_codes[ry:a_read], False))
        pieces.append((("=", k), config.match * k))
        rx, ry = a_ref + k, a_read + k

    # --- tail: extend up to max_end_extension bases after the last
    # anchor, semi-global (unused trailing reference is free).
    read_len = int(read_codes.size)
    tail_read = min(read_len - ry, config.max_end_extension)
    clip_tail = read_len - ry - tail_read
    tail_lane = None
    if tail_read:
        window = min(len(reference_codes) - rx, int(tail_read * 1.5) + 16)
        tail_lane = len(lanes)
        pieces.append(tail_lane)
        lanes.append((reference_codes[rx : rx + window], read_codes[ry : ry + tail_read], True))
    pieces.append((("S", clip_tail), 0.0))

    raws = _fill_lanes(lanes, config)
    parts: list[tuple[str, int]] = []
    score = 0.0
    ref_start, ref_end = first_ref, rx
    for piece in pieces:
        if isinstance(piece, int):
            ref, read, _ = lanes[piece]
            raw = raws[piece]
            cigar = _classify_diagonals(raw.cigar, ref, read)
            consumed = sum(n for op, n in cigar if op in "=XD")
            if piece == head_lane:
                cigar = tuple(reversed(cigar))
                ref_start = first_ref - consumed
            elif piece == tail_lane:
                ref_end = rx + consumed
            parts.extend(cigar)
            score += raw.score
        else:
            run, run_score = piece
            parts.append(run)
            score += run_score

    result = AlignmentResult(score=score, cigar=merge_cigar(parts))
    return result, ref_start, ref_end

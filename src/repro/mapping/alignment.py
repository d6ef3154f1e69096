"""Sequence alignment (paper Fig. 1(d)): affine-gap DP with CIGAR output.

Two layers:

* :func:`align_global` -- exact global alignment of two segments under
  affine gap costs (Gotoh's algorithm).
* :func:`align_chain` -- piecewise alignment along a chain of anchors,
  exactly as minimap2 closes the gaps between chained minimizer hits:
  anchor k-mers are exact matches by construction (the minimizer hash is
  invertible), so only the short inter-anchor segments need DP. Head and
  tail are aligned up to a capped extension and soft-clipped beyond it.
  :func:`align_chain_native` is the same stitch in compiled code.

Every DP is a *lane*, one independent alignment, the way GenPIP's
in-memory DP units each work on many cells at once. :func:`_fill_lanes`
fills a list of lanes: :func:`align_global` is a one-lane fill, and
:func:`align_chain` gathers all of a chain's DP inputs -- every
inter-anchor segment, the reversed head window and the tail window --
fills them in one call and stitches the CIGAR in chain order.

**One output.** A mapped read is aligned in one call of the C kernel
``gotoh.c`` when it loaded (``repro.kernels.native.kernel("gotoh")``;
:func:`align_chain_native`, which the mapper's ``finalize`` calls): its
``align_chain`` thins the anchors, emits the exact runs, fills each lane
as it reaches it and merges the runs into the finished CIGAR. There and
in a ``_fill_lanes`` call (``gotoh_fill``, every lane at once) a lane
goes through one compiled fill: per cell it runs
:func:`~repro.kernels.align.gotoh_scalar`'s recurrence in int64 (exact,
as the scoring is integral and within +-2**20), keeps its four
traceback comparisons in one flag byte, and walks back to the
``=``/``X``/``I``/``D`` runs. A segment lane is filled first in a band
of diagonals around its two corners, and again, wider, only when the
band's score does not beat the best any path leaving the band can
reach; the head/tail extensions, which may end on any reference row,
are filled whole. Otherwise -- no compiler, or a build or load that
failed -- the mapper runs the Python :func:`align_chain`, whose fill
runs ``gotoh_scalar`` itself on each lane. The two stitches refuse the
same inputs and give the same alignment and reference span, and every
lane the score and CIGAR ``gotoh_scalar`` gives it, whatever its lane
mates, for every integer-valued scoring; nothing chooses between them
but availability. The mapping-ops ledger charges every lane its whole
``n * m`` problem on every path, banded or not.

Scoring defaults follow minimap2's map-ont preset (match +2, mismatch
-4, gap open -4, gap extend -2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import TYPE_CHECKING

import numpy as np

from repro.checks import ConfigError, require_finite, require_integer
from repro.kernels.align import gotoh_scalar, merge_cigar
from repro.kernels.mapping_ops import record_mapping_ops

if TYPE_CHECKING:
    from types import SimpleNamespace

#: CIGAR operation codes used throughout: match, mismatch, insertion
#: (read-only base), deletion (reference-only base), soft clip.
CIGAR_OPS = ("=", "X", "I", "D", "S")

#: What both chain stitches say when a lane's code is not a base, and
#: when a kept anchor's k-mer lies outside the reference or the read.
_NOT_BASES = "lane codes must be 2-bit base codes (0-3)"
_OUTSIDE = "chain anchors must lie inside the reference and the read"

#: Largest magnitude of any one scoring value. A lane of up to 2**32
#: steps then scores within 2**52: exact in ``gotoh_scalar``'s float64
#: and ``gotoh.c``'s int64 cells, and far above their -1e18 sentinel.
_MAX_SCORE = 2**20


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
        # Within +-2**20 every reachable score is exact in float64 and far
        # from the fills' -1e18 sentinel for minus infinity.
        require_finite("match", self.match, gt=0, le=_MAX_SCORE)
        for name in ("mismatch", "gap_open", "gap_extend"):
            require_finite(name, getattr(self, name), ge=-_MAX_SCORE, lt=0)
        scores = (self.match, self.mismatch, self.gap_open, self.gap_extend)
        if not all(float(value).is_integer() for value in scores):
            # With integer scores every reachable score is an exact
            # float64 integer, so the traceback's equality tests decide
            # ties exactly, not by the rounding of a sum's order.
            raise ConfigError(
                "match, mismatch, gap_open and gap_extend must be integer-valued: "
                "under float rounding, ties between co-optimal paths would be "
                "decided by rounding error"
            )
        # 10.5 fails later as a slice index, a NaN cap compares False both
        # ways (no segment too large, no end too long), a negative extension
        # clips more read than there is, a negative cell cap makes every segment D+I.
        require_integer("max_end_extension", self.max_end_extension, ge=0)
        require_integer("max_segment_cells", self.max_segment_cells, ge=0)


@dataclass(frozen=True)
class AlignmentResult:
    """An alignment of a read (segment) against a reference segment.

    ``cigar`` is a tuple of ``(op, length)`` with ops from
    :data:`CIGAR_OPS`; reference-consuming ops are ``=``, ``X``, ``D``;
    read-consuming ops are ``=``, ``X``, ``I``, ``S``.
    """

    score: float
    cigar: tuple[tuple[str, int], ...]
    #: ``(matches, aligned columns)`` of ``cigar`` where its maker
    #: counted them; :attr:`identity` counts them itself otherwise.
    counts: tuple[int, int] | None = field(default=None, compare=False, repr=False)

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
        if self.counts is None:
            matches = columns = 0
            for op, n in self.cigar:
                if op in "=XID":
                    columns += n
                    if op == "=":
                        matches += n
        else:
            matches, columns = self.counts
        return matches / columns if columns else 0.0


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
    (result,) = _fill_lanes([(np.asarray(ref), np.asarray(read), False)], config)
    return result


#: One DP input: ``(ref, read, free_ref_tail)``. With ``free_ref_tail``
#: the alignment may stop before consuming the whole reference
#: (semi-global: trailing reference bases are free) -- used for head/tail
#: extension where the true reference span is unknown.
Lane = tuple[np.ndarray, np.ndarray, bool]


def _fill_lanes(lanes: list[Lane], config: AlignmentConfig) -> list[AlignmentResult]:
    """Gotoh DP of every lane; results in lane order, with finished
    ``=``/``X``/``I``/``D`` CIGARs.

    Lanes with an empty side are closed-form. The rest run in one call
    of the compiled fill when it loaded (:func:`_fill_native`), else one
    by one through ``gotoh_scalar``, which charges the mapping-ops
    ledger itself. Every code must be a 2-bit base code (0-3): the
    compiled fill compares them as uint8.
    """
    sides = [side for ref, read, _ in lanes for side in (ref, read)]
    codes = np.concatenate(sides) if sides else np.empty(0, dtype=np.uint8)
    if codes.size and not (0 <= codes.min() and codes.max() <= 3):
        raise ValueError(_NOT_BASES)
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
    if not filled:
        return results
    import repro.kernels.native as native

    library = native.kernel("gotoh")
    if library is None:
        scoring = (config.match, config.mismatch, config.gap_open, config.gap_extend)
        for index in filled:
            ref, read, free_ref_tail = lanes[index]
            score, cigar = gotoh_scalar(ref, read, *scoring, free_ref_tail=free_ref_tail)
            results[index] = AlignmentResult(score=score, cigar=_classify_diagonals(cigar, ref, read))
        return results
    shapes = [(int(lanes[index][0].size), int(lanes[index][1].size)) for index in filled]
    record_mapping_ops("align-cell", sum(n * m for n, m in shapes))
    offsets = list(accumulate((side.size for side in sides), initial=0))
    starts = [offsets[2 * index + side] for index in filled for side in (0, 1)]
    free = [lanes[index][2] for index in filled]
    native = _fill_native(library, codes, starts, shapes, free, config)
    for index, result in zip(filled, native, strict=True):
        results[index] = result
    return results


def _fill_native(
    library: SimpleNamespace,
    codes: np.ndarray,
    starts: list[int],
    shapes: list[tuple[int, int]],
    free: list[bool],
    config: AlignmentConfig,
) -> list[AlignmentResult]:
    """Every lane in one call of the compiled ``gotoh.c``.

    ``codes`` holds every lane's sides back to back; ``starts`` the
    offsets of each filled lane's reference and read in it, ``shapes``
    their sizes (both non-zero). One flag table, sized for the largest
    lane, serves them all; a banded lane writes only its band's bytes.
    """
    width = max(m for _, m in shapes) + 1
    capacity = sum(n + m for n, m in shapes)
    scores = np.empty(len(shapes))
    run_ops = np.empty(capacity, dtype=np.uint8)
    run_lengths = np.empty(capacity, dtype=np.int64)
    run_counts = np.empty(len(shapes), dtype=np.int64)
    library.gotoh_fill(
        codes.astype(np.uint8, copy=False),
        np.array(starts, dtype=np.int64),
        np.array(shapes, dtype=np.int64).ravel(),
        np.array(free, dtype=np.uint8),
        len(shapes), int(config.match), int(config.mismatch), int(config.gap_open),
        int(config.gap_extend),
        np.empty(max((n + 1) * (m + 1) for n, m in shapes), dtype=np.uint8),
        np.empty(2 * width, dtype=np.int64), width, scores, run_ops, run_lengths, run_counts,
    )  # fmt: skip
    counts = run_counts.tolist()
    total = sum(counts)
    ops = run_ops[:total].tobytes().decode("ascii")
    lengths = run_lengths[:total].tolist()
    results = []
    at = 0
    for score, count in zip(scores.tolist(), counts, strict=True):
        cigar = tuple(zip(ops[at : at + count], lengths[at : at + count], strict=True))
        results.append(AlignmentResult(score=score, cigar=cigar))
        at += count
    return results


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
    reference_codes, read_codes = _chain_inputs(reference_codes, read_codes, anchors, kmer_size)
    k = kmer_size

    # Keep a non-overlapping subset of anchors (>= k apart on both axes).
    kept = [0]
    for idx in range(1, anchors.shape[0]):
        prev = anchors[kept[-1]]
        cur = anchors[idx]
        if cur[0] >= prev[0] + k and cur[1] >= prev[1] + k:
            kept.append(idx)
    sel = anchors[kept]
    # Kept anchors ascend on both axes: the first and the last bound them all.
    if sel[0].min() < 0 or sel[-1, 0] + k > reference_codes.size or sel[-1, 1] + k > read_codes.size:
        raise ValueError(_OUTSIDE)

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

    filled = _fill_lanes(lanes, config)
    parts: list[tuple[str, int]] = []
    score = 0.0
    ref_start, ref_end = first_ref, rx
    for piece in pieces:
        if isinstance(piece, int):
            aligned = filled[piece]
            cigar = aligned.cigar
            if piece == head_lane:
                cigar = tuple(reversed(cigar))
                ref_start = first_ref - aligned.ref_consumed
            elif piece == tail_lane:
                ref_end = rx + aligned.ref_consumed
            parts.extend(cigar)
            score += aligned.score
        else:
            run, run_score = piece
            parts.append(run)
            score += run_score

    result = AlignmentResult(score=score, cigar=merge_cigar(parts))
    return result, ref_start, ref_end


def _chain_inputs(
    reference_codes: np.ndarray, read_codes: np.ndarray, anchors: np.ndarray, kmer_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """What both chain stitches refuse before any work, and the codes as
    the contiguous ``uint8`` arrays both read.

    The anchors must be a non-empty C-contiguous ``int64[n, 2]`` array
    (``TypeError`` for the dtype or the layout, ``ValueError`` for the
    shape) and ``k`` an integer >= 1. A code that is no byte value is
    refused wherever it lies; a byte above 3 only where a lane reads it.
    """
    if not (
        isinstance(anchors, np.ndarray) and anchors.dtype == np.int64 and anchors.flags.c_contiguous
    ):
        got = type(anchors).__name__
        if isinstance(anchors, np.ndarray):
            got = f"a {anchors.dtype} array with strides {anchors.strides}"
        raise TypeError(f"chain anchors must be a C-contiguous int64 array, got {got}")
    if anchors.ndim != 2 or anchors.shape[1] != 2:
        raise ValueError(f"chain anchors must be an [n, 2] array, got shape {anchors.shape}")
    if anchors.shape[0] == 0:
        raise ValueError("cannot align an empty chain")
    require_integer("kmer_size", kmer_size, ge=1)
    return _byte_codes(reference_codes), _byte_codes(read_codes)


def _byte_codes(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.dtype == np.uint8:
        return np.ascontiguousarray(codes)
    as_bytes = codes.astype(np.uint8)
    if not np.array_equal(as_bytes, codes):
        raise ValueError(_NOT_BASES)
    return as_bytes


#: What ``gotoh.c``'s ``align_chain`` returns instead of a run count.
_REFUSALS = {
    -1: (MemoryError, "gotoh.c could not allocate its scratch buffers"),
    -2: (ValueError, _NOT_BASES),
    -3: (ValueError, _OUTSIDE),
    -4: (RuntimeError, "gotoh.c's stitched CIGAR outgrew its bound"),
}


def align_chain_native(
    library: SimpleNamespace,
    reference_codes: np.ndarray,
    read_codes: np.ndarray,
    anchors: np.ndarray,
    kmer_size: int,
    config: AlignmentConfig | None = None,
) -> tuple[AlignmentResult, int, int]:
    """:func:`align_chain` in one call of ``gotoh.c``'s ``align_chain``.

    ``library`` is ``native.kernel("gotoh")``, loaded. Same arguments,
    same refusals, same alignment, reference span and ``align-cell``
    charge as :func:`align_chain`, which runs where the library did not
    load.
    """
    config = config or AlignmentConfig()
    reference_codes, read_codes = _chain_inputs(reference_codes, read_codes, anchors, kmer_size)
    n_read = read_codes.size
    # A merged CIGAR alternates ops and every run but D consumes a read
    # base, so it has at most 2 * n_read + 1 runs.
    capacity = 2 * n_read + 1
    ops = np.empty(capacity, dtype=np.uint8)
    lengths = np.empty(capacity, dtype=np.int64)
    info = np.empty(6, dtype=np.int64)
    # Past the read's length, the extension cap and k mean what they do
    # at it (the whole end; no anchor fits), so both fit the kernel's int64.
    runs = library.align_chain(
        reference_codes, reference_codes.size, read_codes, n_read, anchors, anchors.shape[0],
        min(kmer_size, n_read + 1), int(config.match), int(config.mismatch),
        int(config.gap_open), int(config.gap_extend), min(config.max_end_extension, n_read),
        min(config.max_segment_cells, 2**63 - 1), ops, lengths, capacity, info,
    )  # fmt: skip
    if runs < 0:
        error, message = _REFUSALS[runs]
        raise error(message)
    score, ref_start, ref_end, matches, columns, cells = info.tolist()
    if cells:
        record_mapping_ops("align-cell", cells)
    cigar = tuple(zip(ops[:runs].tobytes().decode("ascii"), lengths[:runs].tolist(), strict=False))
    return AlignmentResult(float(score), cigar, counts=(matches, columns)), ref_start, ref_end

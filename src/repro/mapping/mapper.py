"""The read-level mapper facade and the incremental chunk mapper.

:class:`Mapper` is the software equivalent of minimap2's query path:
seed -> chain -> align, producing a :class:`MappingResult`.

:class:`IncrementalChunkMapper` is the GenPIP-specific interface: the
chunk-based pipeline (CP) feeds basecalled chunks as they appear, the
mapper accumulates anchors in global read coordinates, and chaining can
be (re)run at any prefix of the read -- which is precisely what ER-CMR
does when it checks the chaining score of the first ``N_cm`` chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.checks import require_finite
from repro.genomics import alphabet
from repro.kernels.chain import chain_read
from repro.mapping.alignment import AlignmentConfig, AlignmentResult, align_chain, align_chain_native
from repro.mapping.chaining import MAX_CHAINS, Chain, ChainingConfig, best_chain
from repro.mapping.index import MinimizerIndex
from repro.mapping.seeding import collect_anchor_arrays
from repro.obs.trace import active_tracer


@dataclass(frozen=True)
class MapperConfig:
    """End-to-end mapping parameters."""

    chaining: ChainingConfig = field(default_factory=ChainingConfig)
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)
    #: Minimum alignment identity for a read to count as mapped.
    min_identity: float = 0.55
    #: Minimum fraction of the read covered by the primary chain.
    min_read_coverage: float = 0.25

    def __post_init__(self) -> None:
        # A NaN threshold compares False against every read, so every
        # read would come back unmapped; one outside [0, 1] keeps all
        # reads or none.
        require_finite("min_identity", self.min_identity, ge=0, le=1)
        require_finite("min_read_coverage", self.min_read_coverage, ge=0, le=1)


#: Shared (it is frozen) by every mapper given no config: one is made per read.
_DEFAULT_CONFIG = MapperConfig()

#: A strand that seeded nothing.
_NO_ANCHORS = np.empty((0, 2), dtype=np.int64)


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """A strand's seeded blocks as one array, copied only when there
    are several."""
    if len(blocks) > 1:
        return np.concatenate(blocks)
    return blocks[0] if blocks else _NO_ANCHORS


@dataclass(frozen=True)
class MappingResult:
    """Outcome of mapping one read.

    Attributes
    ----------
    read_id:
        Identifier of the mapped read.
    mapped:
        True if a chain passed score/coverage/identity thresholds.
    ref_start, ref_end:
        Reference interval of the alignment (0 when unmapped).
    strand:
        +1 / -1 (0 when unmapped).
    chain_score:
        Score of the primary chain (0.0 when no chain was found).
    alignment:
        Base-level alignment of the primary chain (None when unmapped
        or when alignment was skipped).
    mapq:
        Mapping quality in [0, 60], minimap2-style estimate from the
        primary/secondary chain-score ratio.
    """

    read_id: str
    mapped: bool
    ref_start: int = 0
    ref_end: int = 0
    strand: int = 0
    chain_score: float = 0.0
    alignment: AlignmentResult | None = None
    mapq: int = 0

    @property
    def identity(self) -> float:
        return self.alignment.identity if self.alignment is not None else 0.0


def _mapq(primary: Chain, secondary: Chain | None) -> int:
    """minimap2-flavoured MAPQ from the chain-score ratio."""
    if primary.score <= 0:
        return 0
    ratio = (secondary.score / primary.score) if secondary is not None else 0.0
    anchors_factor = min(1.0, primary.n_anchors / 10.0)
    return int(np.clip(40.0 * (1.0 - ratio) * anchors_factor * 1.5, 0, 60))


class Mapper:
    """Map whole basecalled reads against a reference index."""

    def __init__(self, index: MinimizerIndex, config: MapperConfig | None = None):
        self._index = index
        self._config = config

    @property
    def index(self) -> MinimizerIndex:
        return self._index

    def map_read(self, bases: str, read_id: str = "read", align: bool = True) -> MappingResult:
        """Seed, chain, and (optionally) align one basecalled read."""
        codes = alphabet.encode(bases)
        mapper = IncrementalChunkMapper(self._index, len(codes), config=self._config)
        mapper.add_chunk(codes, read_offset=0)
        return mapper.finalize(read_id=read_id, read_codes=codes, align=align)


class IncrementalChunkMapper:
    """Anchor accumulation and chaining over a growing prefix of a read.

    The GenPIP read-mapping module's seeding unit pushes per-chunk
    anchors here; ``chain_prefix()`` answers ER-CMR's question ("does the
    merged chunk chain anywhere?") and ``finalize()`` produces the final
    read mapping once all chunks arrived.
    """

    def __init__(self, index: MinimizerIndex, read_length: int, config: MapperConfig | None = None):
        self._index = index
        self._config = config or _DEFAULT_CONFIG
        self._read_length = int(read_length)
        # Raw read coordinates are stored; reverse-strand flipping happens
        # at gather time against the *current* read length, because the
        # basecalled length is only final when the last chunk arrives.
        self._anchor_blocks: dict[int, list[np.ndarray]] = {1: [], -1: []}
        # Called bases :meth:`seed_prefix` has seeded, from the read's start.
        self._seeded_bases = 0

    def set_read_length(self, read_length: int) -> None:
        """Fix the final basecalled read length before :meth:`finalize`."""
        if read_length < 0:
            raise ValueError("read_length must be non-negative")
        self._read_length = int(read_length)

    def add_chunk(self, chunk_codes: np.ndarray, read_offset: int) -> int:
        """Seed one chunk, or one run of consecutive chunks, of the read.

        ``read_offset`` is where ``chunk_codes`` starts in the read, in
        called bases. Returns the number of anchors contributed.
        """
        with active_tracer().span("seed"):
            grouped = collect_anchor_arrays(self._index, chunk_codes, read_offset=read_offset)
        added = 0
        for strand, rows in grouped.items():
            if rows.size:
                self._anchor_blocks[strand].append(rows)
                added += rows.shape[0]
        return added

    def seed_prefix(self, prefix_codes: np.ndarray) -> int:
        """Seed the not-yet-seeded run of a called prefix in one
        :meth:`add_chunk` call.

        ``prefix_codes`` are the called bases of the read's first chunks,
        of which earlier calls seeded a shorter prefix; this one becomes
        the seeded prefix. The run goes in with the ``k + w - 2`` bases
        before it prepended -- ``k - 1`` for the k-mers across the
        boundary, ``w - 1`` for the windows across it -- so every
        w-window of k-mers lies inside one run, and the union of run
        anchors equals the whole prefix's anchors. The rows that overlap
        seeds twice are dropped where the chain stage gathers a strand.
        Returns the number of anchors contributed.
        """
        overlap = self._index.config.k + self._index.config.w - 2
        start = max(self._seeded_bases - overlap, 0)
        self._seeded_bases = int(prefix_codes.size)
        return self.add_chunk(prefix_codes[start:], read_offset=start)

    def _gathered(self) -> dict[int, np.ndarray]:
        """Each strand's seeded rows in chaining coordinates: the minus
        strand's read positions flipped against the current read length,
        sorted by (ref, read), repeats dropped."""
        k = self._index.config.k
        out = {}
        for strand, blocks in self._anchor_blocks.items():
            if blocks:
                arr = np.concatenate(blocks, axis=0)
                if strand == -1:
                    arr[:, 1] = self._read_length - k - arr[:, 1]
                # Rows in (ref_pos, read_pos) order, which chaining
                # requires, with overlap-seeded duplicates dropped:
                # ``np.unique(arr, axis=0)``'s array, without its
                # structured-dtype sort.
                arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
                keep = np.ones(arr.shape[0], dtype=bool)
                keep[1:] = (arr[1:] != arr[:-1]).any(axis=1)
                out[strand] = arr[keep]
            else:
                out[strand] = _NO_ANCHORS
        return out

    def chain_prefix(self) -> tuple[Chain | None, Chain | None]:
        """Chain all anchors accumulated so far (primary, secondary).

        One call of the compiled ``chain.c`` (``chain_read``) when it
        loaded; else :meth:`_gathered` and :func:`best_chain`, which
        give the same chains. Either chains with the index's ``k``.
        """
        import repro.kernels.native as native

        k = self._index.config.k
        chaining = self._config.chaining
        with active_tracer().span("chain"):
            library = native.kernel("chain")
            if library is None:
                return best_chain(self._gathered(), k, chaining)
            plus, minus = (_joined(self._anchor_blocks[strand]) for strand in (1, -1))
            found = chain_read(
                library, plus, minus, self._read_length - k, k, chaining.max_gap,
                chaining.lookback, chaining.min_chain_score, chaining.min_anchors, MAX_CHAINS,
            )  # fmt: skip
            primary, secondary = (None if chain is None else Chain(*chain) for chain in found)
            return primary, secondary

    def finalize(
        self, read_id: str, read_codes: np.ndarray, align: bool = True
    ) -> MappingResult:
        """Chain + align the complete read and apply mapped thresholds.

        The alignment is one call of the compiled ``gotoh.c``
        (:func:`align_chain_native`) when it loaded, else the Python
        :func:`align_chain`; the same alignment either way."""
        primary, secondary = self.chain_prefix()
        if primary is None:
            return MappingResult(read_id=read_id, mapped=False)

        read_len = int(np.asarray(read_codes).size)
        span_lo, span_hi = primary.read_span
        coverage = (span_hi - span_lo + self._index.config.k) / max(read_len, 1)
        mapq = _mapq(primary, secondary)

        if not align:
            lo, hi = primary.ref_span
            mapped = coverage >= self._config.min_read_coverage
            return MappingResult(
                read_id=read_id,
                mapped=mapped,
                ref_start=lo,
                ref_end=hi + self._index.config.k,
                strand=primary.strand,
                chain_score=primary.score,
                mapq=mapq,
            )

        import repro.kernels.native as native

        oriented = read_codes if primary.strand == 1 else alphabet.reverse_complement(read_codes)
        chain = (self._index.reference.codes, oriented, primary.anchors, self._index.config.k)
        with active_tracer().span("align"):
            library = native.kernel("gotoh")
            if library is None:
                alignment, ref_start, ref_end = align_chain(*chain, self._config.alignment)
            else:
                alignment, ref_start, ref_end = align_chain_native(
                    library, *chain, self._config.alignment
                )
        mapped = (
            coverage >= self._config.min_read_coverage
            and alignment.identity >= self._config.min_identity
        )
        return MappingResult(
            read_id=read_id,
            mapped=mapped,
            ref_start=ref_start,
            ref_end=ref_end,
            strand=primary.strand,
            chain_score=primary.score,
            alignment=alignment,
            mapq=mapq,
        )

"""Surrogate basecaller: ground truth + calibrated error/quality process.

Dataset-scale experiments (hundreds of reads x thousands of chunks)
cannot afford full Viterbi decoding in Python, and -- as for the paper's
own evaluation -- the *pipeline-level* results only depend on the
statistical behaviour of the basecaller: which bases come out, with what
errors, and with what quality scores. The surrogate reproduces exactly
that:

* error probabilities per base derive from the simulator's quality track
  (``p = 10^(-q/10)``), so low-quality stretches genuinely carry more
  substitution/indel errors;
* emitted per-base quality is the underlying track value plus bounded
  jitter, so chunk quality scores (SQS/CQS) inherit the AR(1)
  correlation structure of Fig. 7;
* every (read, chunk) pair is decoded with its own deterministic RNG
  stream, which makes the output *independent of processing order*: the
  chunk-based pipeline, the conventional pipeline, and any early-
  rejection policy see byte-identical basecalls for the chunks they do
  process. Integration tests rely on this property.

Chunks are decoded in batches, and a batch may span many reads
(:meth:`SurrogateBasecaller.basecall_many`: the pipeline decodes a work
unit's QSR samples in one call, its CMR merge sets in the next and the
remainders of its reads still going in a third).
Each chunk makes its own draws, on its own stream -- seeded from its
read's seed, the chunk size and its index -- and in a fixed order, and
everything else -- error probabilities, the error model's apply step,
the quality gather, jitter and clipping -- is elementwise, so each
chunk gets the bytes it would get alone, whatever its batch mates and
whichever reads they belong to. The error probabilities, and the
refusal of a NaN or out-of-range one, run once over the batch's
concatenated spans in numpy. The rest runs in one call of the C kernel
``surrogate.c`` when it loaded (``native.kernel("surrogate")``: built on
first use, linked against numpy's own C distributions): chunk by chunk,
each with its own entropy prefix, it replays the exact ``Generator``
stream the numpy path opens, draw for draw, and applies the errors and
the jitter as it goes. Otherwise -- no compiler, no ``libnpyrandom.a``,
a build that failed -- the numpy path runs read by read: a
``default_rng`` per chunk, and the apply step, gather, jitter and clip
once over the read's chunks. Both give the same bytes;
``native.backend("surrogate")`` says which ran.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, pairwise
from typing import TYPE_CHECKING

import numpy as np

from repro.basecalling.chunked import chunk_count, chunk_span, reassemble_chunks
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.checks import require_finite
from repro.genomics.mutate import (
    ErrorDraws,
    ErrorProfile,
    apply_drawn_errors,
    check_error_probs,
    draw_errors,
)
from repro.genomics.quality import phred_to_error_prob
from repro.nanopore.read_simulator import SimulatedRead

if TYPE_CHECKING:
    from types import SimpleNamespace


@dataclass(frozen=True)
class SurrogateConfig:
    """Calibration of the surrogate basecaller.

    Attributes
    ----------
    error_scale:
        Multiplier on the quality-implied error probability. 1.0 means
        the emitted qualities are perfectly calibrated; values > 1 model
        an over-confident basecaller.
    quality_jitter:
        Std-dev of white noise added to emitted per-base qualities.
    max_error_prob:
        Upper clip for per-base error probability (keeps pathological
        quality-1 stretches decodable).
    profile:
        Substitution/insertion/deletion mix.
    """

    error_scale: float = 1.0
    quality_jitter: float = 0.7
    #: ONT basecallers bottom out around ~72% identity even on terrible
    #: signal; the cap keeps low-quality reads *marginally* chainable,
    #: which is what makes CMR's near-zero false-negative threshold
    #: meaningful (Fig. 13).
    max_error_prob: float = 0.28
    profile: ErrorProfile = field(default_factory=ErrorProfile)

    def __post_init__(self) -> None:
        require_finite("error_scale", self.error_scale, gt=0)
        require_finite("quality_jitter", self.quality_jitter, ge=0)
        require_finite("max_error_prob", self.max_error_prob, gt=0, le=1)


class SurrogateBasecaller:
    """Chunk-level basecaller driven by simulator ground truth.

    Implements the chunk-basecaller contract used by the core pipeline:
    ``n_chunks(read, chunk_size)`` and
    ``basecall_many(requests, chunk_size)``, through which
    ``basecall_chunks``, ``basecall_chunk`` and ``basecall_read`` decode
    too.
    """

    def __init__(self, config: SurrogateConfig | None = None):
        if config is not None and not isinstance(config, SurrogateConfig):
            raise TypeError(
                f"SurrogateBasecaller expects a SurrogateConfig, got {type(config).__name__}"
            )
        self._config = config or SurrogateConfig()

    @property
    def config(self) -> SurrogateConfig:
        return self._config

    def n_chunks(self, read: SimulatedRead, chunk_size: int) -> int:
        """Number of chunks the read splits into."""
        return chunk_count(len(read), chunk_size)

    def basecall_many(
        self, requests: Sequence[tuple[SimulatedRead, Sequence[int]]], chunk_size: int
    ) -> list[list[BasecalledChunk]]:
        """Basecall each request's chunks ``indices`` of its ``read``, in
        the order given: one list of chunks per request.

        Each chunk is deterministic in ``(read.seed, chunk_size, index)``
        and its own codes and quality track, and independent of every
        other chunk requested with it, of its read or another: only the
        random draws are made chunk by chunk, on the chunk's own stream,
        and the arithmetic runs once over the concatenated spans. The
        compiled decode takes every request in one call -- a work unit
        makes at most three, its QSR samples, its CMR merge sets and its
        remainders --; the numpy path decodes request by request. The
        returned chunks are views of the call's arrays.
        """
        import repro.kernels.native as native

        library = native.kernel("surrogate")
        if library is None:
            return [self._decode_numpy(read, indices, chunk_size) for read, indices in requests]
        return _decode_native(library, self._config, requests, chunk_size)

    def _decode_numpy(
        self, read: SimulatedRead, indices: Sequence[int], chunk_size: int
    ) -> list[BasecalledChunk]:
        """One read's chunks on the numpy path: a ``default_rng`` per
        chunk, then the apply step, gather, jitter and clip once over
        the read's spans."""
        indices = list(indices)
        lengths, true_codes, track = _gather(read, indices, chunk_size)
        if not lengths:
            return []
        cfg = self._config
        seed = read.seed & 0x7FFFFFFF
        rngs = [np.random.default_rng([seed, chunk_size, index]) for index in indices]
        draws = [draw_errors(rng, n) for rng, n in zip(rngs, lengths, strict=True)]
        mutated = apply_drawn_errors(
            true_codes,
            _error_probs(cfg, track),
            ErrorDraws(*(_joined(part) for part in zip(*draws, strict=True))),
            cfg.profile,
        )
        # source_index is non-decreasing, so chunk i's output ends
        # where the first base sourced past its span would go.
        source = mutated.source_index
        inner = list(accumulate(lengths[:-1]))
        ends = (np.searchsorted(source, inner).tolist() if inner else []) + [source.size]

        # Each emitted base inherits the quality of the true base it
        # came from (insertions inherit their left neighbour's), plus
        # jitter drawn on the chunk's own stream after its error
        # draws. source_index is in [0, track.size) by construction.
        quality = track[source]
        quality += _joined(
            [
                rng.normal(0.0, cfg.quality_jitter, size=end - start)
                for rng, start, end in zip(rngs, [0, *ends[:-1]], ends, strict=True)
            ]
        )
        np.maximum(quality, 1.0, out=quality)
        np.minimum(quality, 40.0, out=quality)
        return _chunks(indices, lengths, mutated.codes, quality, 0, ends)

    def basecall_chunks(
        self, read: SimulatedRead, indices: Sequence[int], chunk_size: int
    ) -> list[BasecalledChunk]:
        """Basecall the chunks ``indices`` of one read, in the order
        given (see :meth:`basecall_many`)."""
        return self.basecall_many([(read, indices)], chunk_size)[0]

    def basecall_chunk(self, read: SimulatedRead, index: int, chunk_size: int) -> BasecalledChunk:
        """Basecall one chunk of a read (see :meth:`basecall_many`)."""
        return self.basecall_chunks(read, (index,), chunk_size)[0]

    def basecall_read(self, read: SimulatedRead, chunk_size: int) -> BasecalledRead:
        """Basecall every chunk of the read and reassemble."""
        n_chunks = self.n_chunks(read, chunk_size)
        chunks = self.basecall_chunks(read, range(n_chunks), chunk_size)
        return reassemble_chunks(read.read_id, chunks)


def _gather(
    read: SimulatedRead, indices: list[int], chunk_size: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The chunks' lengths, and their true codes and quality track back
    to back (a slice of the read's own arrays where the spans abut).
    An index out of range raises ``ValueError`` here."""
    n_bases = len(read)
    spans = [chunk_span(n_bases, chunk_size, index) for index in indices]
    if not spans:
        return [], read.true_codes[:0], read.qualities[:0]
    if all(a[1] == b[0] for a, b in pairwise(spans)):
        true_codes = read.true_codes[spans[0][0] : spans[-1][1]]
        track = read.qualities[spans[0][0] : spans[-1][1]]
    else:
        true_codes = _joined([read.true_codes[start:end] for start, end in spans])
        track = _joined([read.qualities[start:end] for start, end in spans])
    return [end - start for start, end in spans], true_codes, track


def _error_probs(cfg: SurrogateConfig, track: np.ndarray) -> np.ndarray:
    """Each base's error probability from its quality, clipped."""
    # minimum(maximum(...)) is np.clip's result for finite input,
    # without its per-call wrapper cost.
    return np.minimum(
        np.maximum(phred_to_error_prob(track) * cfg.error_scale, 0.0), cfg.max_error_prob
    )


def _chunks(
    indices: list[int],
    lengths: list[int],
    codes: np.ndarray,
    quality: np.ndarray,
    first: int,
    ends: list[int],
) -> list[BasecalledChunk]:
    """The chunks whose output runs from ``first`` to ``ends[0]``, then
    from each end to the next, as views of ``codes`` and ``quality``
    (none for no ``ends``)."""
    starts = [first, *ends[:-1]] if ends else []
    return [
        BasecalledChunk(
            chunk_index=index,
            codes=codes[start:end],
            qualities=quality[start:end],
            n_true_bases=n,
        )
        for index, n, start, end in zip(indices, lengths, starts, ends, strict=True)
    ]


def _decode_native(
    library: SimpleNamespace,
    cfg: SurrogateConfig,
    requests: Sequence[tuple[SimulatedRead, Sequence[int]]],
    chunk_size: int,
) -> list[list[BasecalledChunk]]:
    """Every request's chunks from one call of ``surrogate.c``, which
    replays each chunk's ``Generator`` stream draw for draw from the
    chunk's own entropy prefix (its read's seed and ``chunk_size``): the
    numpy path's bytes. The probabilities are refused here, before it
    runs, as ``apply_drawn_errors`` refuses them."""
    # A chunk's prefix is its read's seed -- masked to 31 bits, so one
    # word -- then the words of the chunk size: one width for the call.
    size_words = _entropy_words(chunk_size)
    width = 1 + len(size_words)
    gathered, codes_parts, track_parts, lengths, indices, prefixes = [], [], [], [], [], []
    for read, wanted in requests:
        read_lengths, true_codes, track = _gather(read, wanted, chunk_size)
        gathered.append((wanted, read_lengths))
        if read_lengths:
            codes_parts.append(true_codes)
            track_parts.append(track)
            lengths += read_lengths
            indices += wanted
            prefixes += [read.seed & 0x7FFFFFFF, *size_words] * len(read_lengths)
    n_chunks = len(lengths)
    if not n_chunks:
        return [[] for _ in gathered]
    true_codes, track = _joined(codes_parts), _joined(track_parts)
    error_prob = _error_probs(cfg, track)
    check_error_probs(error_prob)
    codes = np.empty(2 * true_codes.size, dtype=np.uint8)
    quality = np.empty(2 * true_codes.size)
    ends = np.empty(n_chunks, dtype=np.int64)
    # The chunk table's rows: lengths, indices and prefix ends.
    table = np.array([*lengths, *indices, *range(width, width * n_chunks + 1, width)], dtype=np.int64)
    emitted = library.surrogate_decode(
        true_codes, track, error_prob, table, n_chunks, np.array(prefixes, dtype=np.uint32),
        *cfg.profile.shares(), cfg.quality_jitter, codes, quality, ends,
    )  # fmt: skip
    if emitted < 0:
        raise MemoryError("surrogate.c could not allocate its scratch buffers")
    ends = ends.tolist()
    decoded, done = [], 0
    for wanted, read_lengths in gathered:
        first, done = done, done + len(read_lengths)
        decoded.append(
            _chunks(wanted, read_lengths, codes, quality, ends[first - 1] if first else 0,
                    ends[first:done])
        )  # fmt: skip
    return decoded


def _entropy_words(value: int) -> list[int]:
    """``value`` as ``SeedSequence`` splits an int of its entropy list:
    its little-endian 32-bit words, 0 as one word."""
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts concatenated along their last axis; a lone part as is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)

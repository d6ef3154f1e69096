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

Chunks are decoded in batches (one call per early-rejection stage): each
chunk makes its own draws, on its own stream and in a fixed order, and
everything else -- error probabilities, the error model's apply step,
the quality gather, jitter and clipping -- is elementwise, so it runs
once over the batch's concatenated spans and yields the bytes each chunk
would get alone, whatever its batch mates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, pairwise

import numpy as np

from repro.basecalling.chunked import chunk_count, chunk_span, reassemble_chunks
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.checks import require_finite
from repro.genomics.mutate import ErrorDraws, ErrorProfile, apply_drawn_errors, draw_errors
from repro.genomics.quality import phred_to_error_prob
from repro.nanopore.read_simulator import SimulatedRead


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
    ``basecall_chunks(read, indices, chunk_size)``, through which
    ``basecall_chunk`` and ``basecall_read`` decode too.
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

    def basecall_chunks(
        self, read: SimulatedRead, indices: Sequence[int], chunk_size: int
    ) -> list[BasecalledChunk]:
        """Basecall the chunks ``indices`` of a read, in the order given.

        Each chunk is deterministic in ``(read.seed, chunk_size, index)``
        and independent of the others requested with it: only the random
        draws are made chunk by chunk, on the chunk's own stream, and the
        arithmetic runs once over the concatenated spans. The returned
        chunks are views of the batch's arrays.
        """
        n_bases = len(read)
        spans = [chunk_span(n_bases, chunk_size, index) for index in indices]
        if not spans:
            return []
        if all(a[1] == b[0] for a, b in pairwise(spans)):
            true_codes = read.true_codes[spans[0][0] : spans[-1][1]]
            track = read.qualities[spans[0][0] : spans[-1][1]]
        else:
            true_codes = np.concatenate([read.true_codes[start:end] for start, end in spans])
            track = np.concatenate([read.qualities[start:end] for start, end in spans])
        lengths = [end - start for start, end in spans]

        seed = read.seed & 0x7FFFFFFF
        rngs = [np.random.default_rng([seed, chunk_size, index]) for index in indices]
        draws = [draw_errors(rng, n) for rng, n in zip(rngs, lengths, strict=True)]
        cfg = self._config
        # minimum(maximum(...)) is np.clip's result for finite input,
        # without its per-call wrapper cost.
        error_prob = np.minimum(
            np.maximum(phred_to_error_prob(track) * cfg.error_scale, 0.0), cfg.max_error_prob
        )
        mutated = apply_drawn_errors(
            true_codes,
            error_prob,
            ErrorDraws(*(_joined(part) for part in zip(*draws, strict=True))),
            cfg.profile,
        )
        # source_index is non-decreasing, so chunk i's output ends where
        # the first base sourced past its span would go.
        source = mutated.source_index
        inner = list(accumulate(lengths[:-1]))
        ends = (np.searchsorted(source, inner).tolist() if inner else []) + [source.size]
        starts = [0, *ends[:-1]]

        # Each emitted base inherits the quality of the true base it came
        # from (insertions inherit their left neighbour's), plus jitter
        # drawn on the chunk's own stream after its error draws.
        # source_index is in [0, track.size) by construction.
        quality = track[source]
        quality += _joined(
            [
                rng.normal(0.0, cfg.quality_jitter, size=end - start)
                for rng, start, end in zip(rngs, starts, ends, strict=True)
            ]
        )
        np.maximum(quality, 1.0, out=quality)
        np.minimum(quality, 40.0, out=quality)

        codes = mutated.codes
        return [
            BasecalledChunk(
                chunk_index=index,
                codes=codes[start:end],
                qualities=quality[start:end],
                n_true_bases=n,
            )
            for index, n, start, end in zip(indices, lengths, starts, ends, strict=True)
        ]

    def basecall_chunk(self, read: SimulatedRead, index: int, chunk_size: int) -> BasecalledChunk:
        """Basecall one chunk of a read (see :meth:`basecall_chunks`)."""
        return self.basecall_chunks(read, (index,), chunk_size)[0]

    def basecall_read(self, read: SimulatedRead, chunk_size: int) -> BasecalledRead:
        """Basecall every chunk of the read and reassemble."""
        n_chunks = self.n_chunks(read, chunk_size)
        chunks = self.basecall_chunks(read, range(n_chunks), chunk_size)
        return reassemble_chunks(read.read_id, chunks)


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    """The parts concatenated along their last axis; a lone part as is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.basecalling.chunked import chunk_count, chunk_span, reassemble_chunks
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.genomics.mutate import ErrorProfile, apply_errors
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
        if not (math.isfinite(self.error_scale) and self.error_scale > 0):
            raise ValueError("error_scale must be positive and finite")
        if not (math.isfinite(self.quality_jitter) and self.quality_jitter >= 0):
            raise ValueError("quality_jitter must be non-negative and finite")
        if not 0 < self.max_error_prob <= 1:
            raise ValueError("max_error_prob must be in (0, 1]")


class SurrogateBasecaller:
    """Chunk-level basecaller driven by simulator ground truth.

    Implements the chunk-basecaller contract used by the core pipeline:
    ``n_chunks(read, chunk_size)`` and
    ``basecall_chunk(read, index, chunk_size)``.
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

    def basecall_chunk(self, read: SimulatedRead, index: int, chunk_size: int) -> BasecalledChunk:
        """Basecall one chunk of a read.

        Deterministic in ``(read.seed, chunk_size, index)`` and
        independent of any other chunk.
        """
        start, end = chunk_span(len(read), chunk_size, index)
        true_codes = read.true_codes[start:end]
        track = read.qualities[start:end]

        rng = np.random.default_rng([read.seed & 0x7FFFFFFF, chunk_size, index])
        cfg = self._config
        # minimum(maximum(...)) is np.clip's result for finite input,
        # without its per-call wrapper cost.
        error_prob = np.minimum(
            np.maximum(phred_to_error_prob(track) * cfg.error_scale, 0.0), cfg.max_error_prob
        )
        mutated = apply_errors(true_codes, error_prob, rng, cfg.profile)

        # Each emitted base inherits the quality of the true base it came
        # from (insertions inherit their left neighbour's), plus jitter.
        # source_index is in [0, track.size) by construction.
        emitted_quality = track[mutated.source_index]
        emitted_quality += rng.normal(0.0, cfg.quality_jitter, size=emitted_quality.size)
        np.maximum(emitted_quality, 1.0, out=emitted_quality)
        np.minimum(emitted_quality, 40.0, out=emitted_quality)

        return BasecalledChunk(
            chunk_index=index,
            codes=mutated.codes,
            qualities=emitted_quality,
            n_true_bases=end - start,
        )

    def basecall_read(self, read: SimulatedRead, chunk_size: int) -> BasecalledRead:
        """Basecall every chunk of the read and reassemble."""
        chunks = [
            self.basecall_chunk(read, i, chunk_size)
            for i in range(self.n_chunks(read, chunk_size))
        ]
        return reassemble_chunks(read.read_id, chunks)

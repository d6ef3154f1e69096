"""Basecalling substrate: signal -> (bases, per-base quality scores).

The GenPIP paper uses Bonito, a DNN basecaller, running on a CPU/GPU (or
its MVM workload mapped onto the Helix PIM accelerator, whose shape table
is :func:`repro.hardware.helix.bonito_workload`). This subpackage
provides two engines behind one chunk-level contract:

* :class:`~repro.basecalling.viterbi.ViterbiBasecaller` -- a *real*
  basecaller: k-mer HMM Viterbi decoding of raw signal against the pore
  model. Exact on clean signal, degrades gracefully with noise. Used in
  unit tests, the quickstart, and to calibrate the surrogate.
* :class:`~repro.basecalling.surrogate.SurrogateBasecaller` -- replays
  the simulator's ground truth through the quality-conditioned error
  model. Deterministic per (read, chunk), independent of processing
  order -- a property the chunk-based pipeline (CP) relies on. This is
  the dataset-scale engine.

Both engines emit :class:`~repro.basecalling.types.BasecalledChunk`
objects whose ``sum_quality`` is exactly the paper's SQS (Eq. 2) and
assemble into :class:`~repro.basecalling.types.BasecalledRead` whose
``mean_quality`` is the paper's AQS (Eqs. 1/3).

:mod:`repro.basecalling.engines` adapts the Viterbi decoder to the
chunk-basecaller protocol (:mod:`repro.core.backends`). Its one signal
reader takes a signal-native read's carried samples as stored and
synthesizes a simulated read's signal deterministically, so both
engines are interchangeable inside the CP/ER pipeline and selectable
by name (``"surrogate"``, ``"viterbi"``) via :mod:`repro.core.registry`.
"""

from repro.basecalling.chunked import chunk_bounds, chunk_count, chunk_span, reassemble_chunks
from repro.basecalling.engines import (
    ViterbiBackendConfig,
    ViterbiChunkBasecaller,
    synthesize_read_signal,
)
from repro.basecalling.surrogate import SurrogateBasecaller, SurrogateConfig
from repro.basecalling.types import BasecalledChunk, BasecalledRead
from repro.basecalling.viterbi import ViterbiBasecaller, ViterbiConfig

__all__ = [
    "BasecalledChunk",
    "BasecalledRead",
    "SurrogateBasecaller",
    "SurrogateConfig",
    "ViterbiBasecaller",
    "ViterbiConfig",
    "chunk_bounds",
    "chunk_count",
    "chunk_span",
    "reassemble_chunks",
    "ViterbiBackendConfig",
    "ViterbiChunkBasecaller",
    "synthesize_read_signal",
]

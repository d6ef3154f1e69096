"""Helix-like PIM basecaller model (Lou et al., PACT 2020; Table 2 row 1).

Helix maps the basecaller DNN's weight matrices onto NVM crossbar tiles
and streams signal chunks through them. GenPIP provisions 168 tiles plus
a 4 MB eDRAM global buffer (27.1 W, 49.24 mm^2).

The throughput model is structural: the Bonito-like network's per-chunk
MVM workload (:func:`bonito_workload`, matrix shapes x activation counts)
executes on the :class:`~repro.hardware.nvm_crossbar.MVMEngine`; chunk
pipelining across tiles gives the sustained rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.nvm_crossbar import CrossbarConfig, MVMEngine, MVMOp, MVMShape, MVMWorkload

#: The Bonito-like CTC network (a scaled-down Bonito) whose weights Helix
#: stores on crossbar tiles, layer by layer in execution order::
#:
#:     signal[T, 1]
#:       -> conv1    1 -> 16, k=5, pad=2
#:       -> conv2   16 -> 64, k=5, stride=5, pad=2   (5x downsample)
#:       -> gru1    64 -> 2 x 96                     (bidirectional)
#:       -> gru2   192 -> 2 x 96                     (bidirectional)
#:       -> head   192 -> 5                          (CTC logits: blank + ACGT)
#:
#: Rows are ``(name, kind, in_features, out_features, kernel, stride,
#: padding)``; ``out_features`` of a ``"bigru"`` is its hidden width per
#: direction. Only shapes are modelled: the network carries no weights.
BONITO_LAYERS = (
    ("conv1", "conv", 1, 16, 5, 1, 2),
    ("conv2", "conv", 16, 64, 5, 5, 2),
    ("gru1", "bigru", 64, 96, 1, 1, 0),
    ("gru2", "bigru", 192, 96, 1, 1, 0),
    ("head", "dense", 192, 5, 1, 1, 0),
)


def bonito_workload(n_samples: int) -> MVMWorkload:
    """MVM workload of basecalling a chunk of ``n_samples`` signal samples.

    Every matrix is activated once per output step of its layer
    (``T_out = floor((T + 2*padding - kernel) / stride) + 1``). A
    convolution is one im2col MVM (``out x in*kernel``); each GRU
    direction is a fused input (``3*hidden x in``) and recurrent
    (``3*hidden x hidden``) projection; the head is one dense MVM.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    steps = n_samples
    ops: list[MVMOp] = []
    for name, kind, n_in, n_out, kernel, stride, padding in BONITO_LAYERS:
        steps = (steps + 2 * padding - kernel) // stride + 1
        if kind == "bigru":
            for direction in ("fwd", "bwd"):
                ops.append(MVMOp(f"{name}.{direction}.input", MVMShape(3 * n_out, n_in), steps))
                ops.append(MVMOp(f"{name}.{direction}.recurrent", MVMShape(3 * n_out, n_out), steps))
        else:
            ops.append(MVMOp(name, MVMShape(n_out, n_in * kernel), steps))
    return MVMWorkload(ops=tuple(ops))


@dataclass(frozen=True)
class HelixThroughput:
    """Sustained basecalling rate of the accelerator."""

    chunk_latency_ns: float
    chunk_energy_pj: float
    chunks_per_second: float
    bases_per_second: float


class HelixModel:
    """Performance/energy model of the PIM basecaller."""

    #: Table 2 provisioning.
    N_TILES = 168
    POWER_W = 27.1
    AREA_MM2 = 49.24

    def __init__(
        self,
        crossbar: CrossbarConfig | None = None,
        samples_per_base: float = 6.0,
    ):
        if samples_per_base <= 0:
            raise ValueError("samples_per_base must be positive")
        self._engine = MVMEngine(crossbar)
        self._samples_per_base = samples_per_base

    @property
    def engine(self) -> MVMEngine:
        return self._engine

    def samples_per_chunk(self, chunk_bases: int) -> int:
        """Raw-signal samples corresponding to a chunk of bases."""
        return int(round(chunk_bases * self._samples_per_base))

    def throughput(self, chunk_bases: int = 300) -> HelixThroughput:
        """Sustained rate for a given chunk size.

        One chunk's MVM workload executes in ``latency_ns``; with the
        network pipelined across tile groups, a new chunk completes
        every ``latency / pipeline_depth`` where the depth is how many
        chunks fit in flight across the provisioned tiles.
        """
        if chunk_bases < 1:
            raise ValueError("chunk_bases must be positive")
        workload = bonito_workload(self.samples_per_chunk(chunk_bases))
        execution = self._engine.execute(workload)
        tiles_per_chunk = max(execution.total_tiles, 1)
        depth = max(1, self.N_TILES // tiles_per_chunk)
        interval_ns = execution.latency_ns / depth
        chunks_per_second = 1e9 / interval_ns if interval_ns > 0 else 0.0
        return HelixThroughput(
            chunk_latency_ns=execution.latency_ns,
            chunk_energy_pj=execution.energy_pj,
            chunks_per_second=chunks_per_second,
            bases_per_second=chunks_per_second * chunk_bases,
        )

    def energy_per_base_pj(self, chunk_bases: int = 300) -> float:
        """Dynamic MVM energy per basecalled base."""
        throughput = self.throughput(chunk_bases)
        return throughput.chunk_energy_pj / chunk_bases

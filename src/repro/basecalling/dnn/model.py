"""The Bonito-like CTC basecaller network and its MVM workload report.

Architecture (a scaled-down Bonito CTC model):

.. code-block:: text

    signal[T, 1]
      -> Conv1d(1 -> 16, k=5, pad=2), swish
      -> Conv1d(16 -> 64, k=5, stride=5, pad=2), swish   (5x downsample)
      -> BiGRU(64 -> 2*96)
      -> BiGRU(192 -> 2*96)
      -> Dense(192 -> 5)  # CTC logits: blank + ACGT
      -> log_softmax -> CTC decode

The per-chunk :class:`MVMWorkload` (matrix shapes x activation counts)
is the contract with the Helix-like crossbar model: Helix stores each
weight matrix across NVM tiles and activates one MVM per output
timestep per matrix (paper Sec. 2.2, Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.basecalling.dnn.ctc import ctc_greedy_decode
from repro.basecalling.dnn.layers import Conv1d, Dense, MVMShape, swish
from repro.basecalling.dnn.rnn import BiGRU


@dataclass(frozen=True)
class MVMOp:
    """A weight matrix and how many times it is activated per chunk."""

    name: str
    shape: MVMShape
    activations: int

    @property
    def macs(self) -> int:
        return self.shape.macs * self.activations


@dataclass(frozen=True)
class MVMWorkload:
    """The complete MVM workload of basecalling one signal chunk."""

    ops: tuple[MVMOp, ...]

    @property
    def total_macs(self) -> int:
        return sum(op.macs for op in self.ops)

    def weight_cells(self) -> int:
        """Total weight-matrix entries (NVM cells when placed on PIM)."""
        return sum(op.shape.rows * op.shape.cols for op in self.ops)


class BonitoLikeModel:
    """A small Bonito-style CTC network with deterministic random weights."""

    def __init__(self, seed: int = 0, hidden: int = 96):
        rng = np.random.default_rng(seed)
        self.conv1 = Conv1d(1, 16, kernel_size=5, rng=rng, padding=2)
        self.conv2 = Conv1d(16, 64, kernel_size=5, rng=rng, stride=5, padding=2)
        self.gru1 = BiGRU(64, hidden, rng)
        self.gru2 = BiGRU(2 * hidden, hidden, rng)
        self.head = Dense(2 * hidden, 5, rng)

    def forward(self, samples: np.ndarray) -> np.ndarray:
        """Log-probabilities ``[T_out, 5]`` for a signal chunk."""
        x = np.asarray(samples, dtype=np.float64).reshape(-1, 1)
        # Normalise as basecallers do before inference.
        if x.size:
            x = (x - x.mean()) / (x.std() + 1e-6)
        x = swish(self.conv1.forward(x))
        x = swish(self.conv2.forward(x))
        if x.shape[0] == 0:
            return np.empty((0, 5))
        x = self.gru1.forward(x)
        x = self.gru2.forward(x)
        logits = self.head.forward(x)
        logits = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return logits - log_norm

    def basecall(self, samples: np.ndarray) -> tuple[str, np.ndarray]:
        """Greedy-CTC basecall of one signal chunk."""
        return ctc_greedy_decode(self.forward(samples))

    def output_length(self, n_samples: int) -> int:
        """Temporal length after the conv downsampling stack."""
        return self.conv2.output_length(self.conv1.output_length(n_samples))

    def workload(self, n_samples: int) -> MVMWorkload:
        """MVM workload of basecalling a chunk of ``n_samples`` samples."""
        t1 = self.conv1.output_length(n_samples)
        t2 = self.conv2.output_length(t1)
        gru_ops = []
        for name, gru, steps in (("gru1", self.gru1, t2), ("gru2", self.gru2, t2)):
            for direction, layer in (("fwd", gru.fwd), ("bwd", gru.bwd)):
                input_shape, recurrent_shape = layer.mvm_shapes()
                gru_ops.append(MVMOp(f"{name}.{direction}.input", input_shape, steps))
                gru_ops.append(MVMOp(f"{name}.{direction}.recurrent", recurrent_shape, steps))
        ops = (
            MVMOp("conv1", self.conv1.mvm_shape(), t1),
            MVMOp("conv2", self.conv2.mvm_shape(), t2),
            *gru_ops,
            MVMOp("head", self.head.mvm_shape(), t2),
        )
        return MVMWorkload(ops=ops)

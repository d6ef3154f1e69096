"""NVM crossbar arrays for in-situ matrix-vector multiplication (Fig. 2).

An NVM-based PIM array stores a matrix as cell conductances; applying
the input vector as wordline voltages and sensing bitline currents
evaluates ``O = V x M`` in roughly one array read (Kirchhoff's law).
This is the substrate of the Helix-like PIM basecaller and the PIM-CQS
unit.

The functional model captures the dominant non-ideality -- finite
weight resolution (``bits_per_cell`` + differential pairs) -- so tests
can bound quantisation error against exact numpy matmuls. Costs follow
ISAAC/PRIME-class numbers at 32 nm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CrossbarConfig:
    """Geometry and per-operation costs of one crossbar tile.

    Defaults are ISAAC-like: 128x128 cells, 2 bits per cell with
    differential encoding, ~100 ns per MVM (DAC -> array -> ADC), and
    energy dominated by the ADCs.
    """

    rows: int = 128
    cols: int = 128
    bits_per_cell: int = 2
    mvm_latency_ns: float = 100.0
    mvm_energy_pj: float = 300.0
    #: Cell + periphery area of one tile.
    area_mm2: float = 0.0025

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows/cols must be positive")
        if not 1 <= self.bits_per_cell <= 8:
            raise ValueError("bits_per_cell must be in 1..8")
        if min(self.mvm_latency_ns, self.mvm_energy_pj, self.area_mm2) <= 0:
            raise ValueError("costs must be positive")


class CrossbarArray:
    """One programmable crossbar tile.

    ``program`` quantises a weight matrix (shape up to rows x cols) to
    the cell resolution; ``mvm`` evaluates the analog product with the
    quantised weights. Differential pairs give signed weights, so the
    representable levels are symmetric around zero.
    """

    def __init__(self, config: CrossbarConfig | None = None):
        self._config = config or CrossbarConfig()
        self._weights: np.ndarray | None = None
        self._scale = 1.0

    @property
    def config(self) -> CrossbarConfig:
        return self._config

    @property
    def levels(self) -> int:
        """Signed quantisation levels per weight (differential pair)."""
        return 2 ** (self._config.bits_per_cell * 2)

    def program(self, matrix: np.ndarray) -> None:
        """Write a weight matrix into the array (with quantisation)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if matrix.shape[0] > self._config.rows or matrix.shape[1] > self._config.cols:
            raise ValueError(
                f"matrix {matrix.shape} exceeds tile {self._config.rows}x{self._config.cols}"
            )
        peak = np.abs(matrix).max()
        half_levels = self.levels // 2
        self._scale = peak / half_levels if peak > 0 else 1.0
        quantised = np.rint(matrix / self._scale)
        quantised = np.clip(quantised, -half_levels, half_levels)
        self._weights = quantised * self._scale

    @property
    def programmed_weights(self) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("array not programmed")
        return self._weights

    def mvm(self, vector: np.ndarray) -> np.ndarray:
        """In-array multiply: returns ``weights.T @ vector``.

        The input vector drives the wordlines (one entry per matrix
        row); bitline currents give one output per column.
        """
        if self._weights is None:
            raise RuntimeError("array not programmed")
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self._weights.shape[0],):
            raise ValueError(f"vector must have shape ({self._weights.shape[0]},)")
        return self._weights.T @ vector

    def quantisation_error_bound(self) -> float:
        """Max absolute per-weight quantisation error after program()."""
        return 0.5 * self._scale


@dataclass(frozen=True)
class MVMShape:
    """One matrix-vector multiply: ``out = W[rows, cols] @ x[cols]``."""

    rows: int
    cols: int

    @property
    def macs(self) -> int:
        return self.rows * self.cols


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
    """The complete MVM workload of one workload instance (e.g. one chunk)."""

    ops: tuple[MVMOp, ...]

    @property
    def total_macs(self) -> int:
        return sum(op.macs for op in self.ops)

    def weight_cells(self) -> int:
        """Total weight-matrix entries (NVM cells when placed on PIM)."""
        return sum(op.shape.rows * op.shape.cols for op in self.ops)


@dataclass(frozen=True)
class MVMPlacement:
    """How one weight matrix maps onto crossbar tiles."""

    name: str
    rows: int
    cols: int
    tiles: int
    activations: int


@dataclass(frozen=True)
class MVMExecution:
    """Aggregate cost of running an MVM workload on the engine."""

    placements: tuple[MVMPlacement, ...]
    latency_ns: float
    energy_pj: float
    total_tiles: int


class MVMEngine:
    """Places an :class:`MVMWorkload` onto crossbar tiles and costs it.

    Matrices larger than one tile are split across
    ``ceil(rows/tile) * ceil(cols/tile)`` tiles; all tiles of one matrix
    fire in parallel (their partial sums merge in the periphery), and
    different matrices pipeline, so workload latency is
    ``activations x mvm_latency`` of the busiest matrix while energy
    integrates every tile activation.
    """

    def __init__(self, config: CrossbarConfig | None = None):
        self._config = config or CrossbarConfig()

    @property
    def config(self) -> CrossbarConfig:
        return self._config

    def place(self, workload: MVMWorkload) -> list[MVMPlacement]:
        """Tile placement for an :class:`MVMWorkload`."""
        placements = []
        for op in workload.ops:
            tiles_r = -(-op.shape.rows // self._config.rows)
            tiles_c = -(-op.shape.cols // self._config.cols)
            placements.append(
                MVMPlacement(
                    name=op.name,
                    rows=op.shape.rows,
                    cols=op.shape.cols,
                    tiles=tiles_r * tiles_c,
                    activations=op.activations,
                )
            )
        return placements

    def execute(self, workload: MVMWorkload) -> MVMExecution:
        """Latency/energy of one workload instance (e.g. one chunk)."""
        placements = self.place(workload)
        if not placements:
            return MVMExecution(placements=(), latency_ns=0.0, energy_pj=0.0, total_tiles=0)
        # Pipelined across matrices: the stage with the most sequential
        # activations bounds latency.
        latency = max(p.activations for p in placements) * self._config.mvm_latency_ns
        energy = sum(p.tiles * p.activations for p in placements) * self._config.mvm_energy_pj
        total_tiles = sum(p.tiles for p in placements)
        return MVMExecution(
            placements=tuple(placements),
            latency_ns=latency,
            energy_pj=energy,
            total_tiles=total_tiles,
        )

    def area_mm2(self, workload: MVMWorkload) -> float:
        """Silicon area of the tiles holding this workload's weights."""
        return sum(p.tiles for p in self.place(workload)) * self._config.area_mm2

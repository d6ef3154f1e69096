"""The reference minimizer index (minimap2's "indexing" phase).

The index is the key-value hash table of Fig. 1(a) in the paper:
minimizer hashes are keys, their reference locations (and canonical
strands) the values. It is built once per reference, offline -- GenPIP's
in-memory seeding unit stores exactly this table in its ReRAM CAM/RAM
arrays (Fig. 9), which :mod:`repro.hardware.seeding_unit` mirrors.

Storage is columnar, not a dict: a sorted ``uint64`` key array, an
``int64`` bounds array (entry ``i`` owns locations
``bounds[i]:bounds[i+1]``), and concatenated ``int64`` position /
``int8`` strand location arrays. This is byte-for-byte the layout
``publish_index`` places in shared memory, so attaching a published
index is four zero-copy views (the :class:`MinimizerIndex` constructor), and
seeding (:mod:`repro.kernels.seed`) binary-searches these arrays, in C
or with one ``np.searchsorted``, instead of walking a per-key dict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genomics.reference import ReferenceGenome
from repro.mapping.minimizers import MinimizerConfig, minimizer_arrays


@dataclass(frozen=True)
class IndexEntry:
    """All reference occurrences of one minimizer key."""

    positions: np.ndarray  # int64 reference start positions
    strands: np.ndarray  # int8 canonical strand at each position


def _empty_arrays() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return (
        np.empty(0, dtype=np.uint64),
        np.zeros(1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int8),
    )


class MinimizerIndex:
    """Hash table: minimizer key -> reference occurrences (columnar)."""

    def __init__(
        self,
        config: MinimizerConfig,
        keys: np.ndarray,
        bounds: np.ndarray,
        positions: np.ndarray,
        strands: np.ndarray,
        reference: ReferenceGenome,
    ):
        """Wrap existing flat arrays without copying (zero-copy attach).

        ``keys`` must be strictly ascending ``uint64``; ``bounds`` has
        ``keys.size + 1`` monotonic entries delimiting each key's slice
        of ``positions``/``strands``. Read-only views (e.g. into a
        shared-memory segment) are used as-is.
        """
        if keys.size and np.any(keys[1:] <= keys[:-1]):
            raise ValueError("index keys must be strictly ascending")
        if bounds.size != keys.size + 1:
            raise ValueError("bounds must have one more entry than keys")
        self._config = config
        self._reference = reference
        self._keys = keys
        self._bounds = bounds
        self._positions = positions
        self._strands = strands

    @classmethod
    def build(
        cls,
        reference: ReferenceGenome,
        config: MinimizerConfig | None = None,
        max_occurrences: int = 64,
    ) -> "MinimizerIndex":
        """Index a reference genome.

        Parameters
        ----------
        reference:
            The genome to index.
        config:
            Minimizer scheme; must match the one used at query time.
        max_occurrences:
            Keys occurring more often than this are dropped (minimap2's
            repetitive-minimizer filter) -- they carry little mapping
            information and would blow up anchor lists.
        """
        config = config or MinimizerConfig()
        keys, positions, strands = minimizer_arrays(reference.codes, config)
        if keys.size == 0:
            return cls(config, *_empty_arrays(), reference)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        positions = positions[order]
        strands = strands[order]
        boundaries = np.nonzero(np.diff(keys))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [keys.size]))
        counts = ends - starts
        keep = counts <= max_occurrences
        starts, counts = starts[keep], counts[keep]
        flat_keys = keys[starts].copy()
        bounds = np.zeros(starts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        total = int(bounds[-1])
        # Gather the kept keys' location runs: each run is start + ramp.
        cum = np.cumsum(counts)
        ramp = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
        loc = np.repeat(starts, counts) + ramp
        return cls(config, flat_keys, bounds, positions[loc], strands[loc], reference)

    @property
    def config(self) -> MinimizerConfig:
        return self._config

    @property
    def reference(self) -> ReferenceGenome:
        return self._reference

    # --- flat layout (what the seeding kernels and publish_index consume)

    @property
    def key_array(self) -> np.ndarray:
        """Sorted ``uint64`` minimizer keys."""
        return self._keys

    @property
    def bounds_array(self) -> np.ndarray:
        """``int64[n_keys + 1]``; key ``i`` owns ``bounds[i]:bounds[i+1]``."""
        return self._bounds

    @property
    def position_array(self) -> np.ndarray:
        """``int64`` reference positions, concatenated per key."""
        return self._positions

    @property
    def strand_array(self) -> np.ndarray:
        """``int8`` canonical strands, parallel to :attr:`position_array`."""
        return self._strands

    # --- keyed access

    def __len__(self) -> int:
        """Number of distinct minimizer keys."""
        return int(self._keys.size)

    def __contains__(self, key: int) -> bool:
        i = int(np.searchsorted(self._keys, np.uint64(key)))
        return i < self._keys.size and int(self._keys[i]) == int(key)

    def lookup(self, key: int) -> IndexEntry | None:
        """Occurrences of a minimizer key, or None (zero-copy views)."""
        i = int(np.searchsorted(self._keys, np.uint64(key)))
        if i >= self._keys.size or int(self._keys[i]) != int(key):
            return None
        lo, hi = int(self._bounds[i]), int(self._bounds[i + 1])
        return IndexEntry(positions=self._positions[lo:hi], strands=self._strands[lo:hi])

    def n_locations(self) -> int:
        """Total stored (key, location) pairs."""
        return int(self._positions.size)

    def keys(self):
        """Iterate over stored minimizer keys (ascending Python ints)."""
        return map(int, self._keys)

"""Reference genomes: synthetic generation and region access.

The GenPIP evaluation maps nanopore reads against a reference genome
(E. coli K-12 for the small dataset, GRCh38 for the human one). Real
references are multi-megabase to gigabase; this reproduction generates
synthetic references whose *local* statistics (GC content, repeat
structure) are what the mapping pipeline actually exercises, with a
``scale`` knob so the same code runs laptop-fast.

Repeats matter: minimizer seeding and chaining behave differently on
repetitive DNA, and junk/unmapped-read detection (ER-CMR) must not be
confused by repeats. :meth:`ReferenceGenome.random` therefore plants a
configurable fraction of duplicated segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.checks import require_finite, require_integer
from repro.genomics import alphabet


@dataclass(frozen=True)
class ReferenceGenome:
    """A named reference sequence with random-access region fetch.

    Attributes
    ----------
    name:
        Identifier (e.g. ``"ecoli-sim"``).
    codes:
        The full sequence as a 2-bit code array. Stored in code space
        because every consumer (indexing, alignment, signal generation)
        wants codes; :attr:`bases` converts lazily.
    """

    name: str
    codes: np.ndarray

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        if codes.ndim != 1:
            raise ValueError("reference codes must be one-dimensional")
        if codes.size and codes.max() > 3:
            raise ValueError("reference codes must be 2-bit (0..3)")
        object.__setattr__(self, "codes", codes)
        codes.setflags(write=False)

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def bases(self) -> str:
        """The full sequence as a string (materialised on demand)."""
        return alphabet.decode(self.codes)

    @classmethod
    def from_string(cls, bases: str, name: str = "ref") -> "ReferenceGenome":
        """Build a reference from a DNA string."""
        return cls(name=name, codes=alphabet.encode(bases))

    @classmethod
    def random(
        cls,
        length: int,
        seed: int = 0,
        name: str = "random-ref",
        gc_content: float = 0.5,
        repeat_fraction: float = 0.05,
        repeat_unit: int = 500,
    ) -> "ReferenceGenome":
        """Generate a synthetic reference genome.

        Parameters
        ----------
        length:
            Total genome length in bases.
        seed:
            Seed for the deterministic generator.
        gc_content:
            Expected G+C fraction.
        repeat_fraction:
            Fraction of the genome overwritten with copies of earlier
            segments (approximates genomic repeats).
        repeat_unit:
            Length of each planted repeat copy.
        """
        require_integer("length", length, ge=1)
        require_finite("gc_content", gc_content, ge=0, le=1)
        require_finite("repeat_fraction", repeat_fraction, ge=0, lt=1)
        rng = np.random.default_rng(seed)
        at = (1.0 - gc_content) / 2.0
        gc = gc_content / 2.0
        codes = rng.choice(4, size=length, p=[at, gc, gc, at]).astype(np.uint8)

        n_repeats = int(length * repeat_fraction / max(repeat_unit, 1))
        for _ in range(n_repeats):
            unit = min(repeat_unit, length // 2)
            if unit < 10:
                break
            src = int(rng.integers(0, length - unit))
            dst = int(rng.integers(0, length - unit))
            codes[dst : dst + unit] = codes[src : src + unit]
        return cls(name=name, codes=codes)

    def fetch(self, start: int, end: int, strand: int = 1) -> np.ndarray:
        """Fetch the region ``[start, end)`` as a 2-bit code array.

        Parameters
        ----------
        start, end:
            0-based half-open interval; must satisfy
            ``0 <= start <= end <= len(self)``.
        strand:
            ``+1`` for the forward strand, ``-1`` for the reverse
            complement of the region.
        """
        if not 0 <= start <= end <= len(self):
            raise ValueError(f"region [{start}, {end}) out of bounds for length {len(self)}")
        region = self.codes[start:end]
        if strand == 1:
            return region.copy()
        if strand == -1:
            return alphabet.reverse_complement(region)
        raise ValueError("strand must be +1 or -1")

    def fetch_bases(self, start: int, end: int, strand: int = 1) -> str:
        """String version of :meth:`fetch`."""
        return alphabet.decode(self.fetch(start, end, strand))

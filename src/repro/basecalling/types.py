"""Data types shared by all basecalling engines.

Called bases travel as ``uint8`` 2-bit code arrays (``A=0, C=1, G=2,
T=3``) from the basecaller to the mapper -- the representation seeding
and alignment consume -- and are rendered as text only for the callers
that ask for ``bases``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.genomics import alphabet


class _CalledBases:
    """Behaviour shared by a basecalled chunk and a basecalled read.

    Expects the dataclass fields ``codes`` and ``qualities``. ``codes``
    may be given as a DNA string (encoded once, here) or as a code
    array (kept as is).
    """

    codes: np.ndarray
    qualities: np.ndarray

    def __post_init__(self) -> None:
        codes = self.codes
        if isinstance(codes, str):
            codes = alphabet.encode(codes)
        else:
            codes = np.ascontiguousarray(codes, dtype=np.uint8)
        q = np.ascontiguousarray(self.qualities, dtype=np.float64)
        if codes.ndim != 1 or q.shape != codes.shape:
            raise ValueError("qualities must align with bases")
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "qualities", q)

    def __len__(self) -> int:
        return self.codes.size

    @cached_property
    def bases(self) -> str:
        """The called bases as text (decoded on first use)."""
        return alphabet.decode(self.codes)

    @property
    def mean_quality(self) -> float:
        """Average quality score of the called bases."""
        if self.qualities.size == 0:
            return 0.0
        return float(self.qualities.mean())


@dataclass(frozen=True)
class BasecalledChunk(_CalledBases):
    """The basecaller's output for one chunk of a read.

    Attributes
    ----------
    chunk_index:
        0-based position of the chunk within its read.
    codes:
        Called bases as 2-bit codes (may differ in length from the true
        chunk due to indel errors); ``bases`` is the same as text.
    qualities:
        Per-base Phred scores, aligned with ``codes``.
    n_true_bases:
        Number of underlying true bases the chunk covers (the chunk size
        except for the final chunk of a read).
    """

    chunk_index: int
    codes: np.ndarray
    qualities: np.ndarray
    n_true_bases: int

    @property
    def sum_quality(self) -> float:
        """SQS -- the sum of the chunk's base quality scores (paper Eq. 2).

        This is what the PIM-CQS unit computes in hardware (a dot product
        of the quality vector with an all-ones vector).
        """
        return float(self.qualities.sum())


@dataclass(frozen=True)
class BasecalledRead(_CalledBases):
    """A fully basecalled read assembled from its chunks.

    ``mean_quality`` is the read's AQS (paper Eq. 1): the chunk-merged
    computation of Eq. 3 yields the identical value, which
    ``tests/test_core_pipeline.py`` asserts.
    """

    read_id: str
    codes: np.ndarray
    qualities: np.ndarray
    n_chunks: int

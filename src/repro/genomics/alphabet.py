"""DNA alphabet, 2-bit encoding, reverse complement, and k-mer arithmetic.

All of the signal simulation, basecalling, and read mapping code in this
repository represents nucleotides either as upper-case ASCII strings over
``ACGT`` or as ``numpy`` arrays of 2-bit codes (``A=0, C=1, G=2, T=3``).
This module is the single source of truth for that mapping.
"""

from __future__ import annotations

import numpy as np

#: The DNA bases in code order: ``BASES[code] == base``.
BASES = "ACGT"

#: Mapping from 2-bit code to base character (numpy bytes array for speed).
CODE_TO_BASE = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)

# ASCII lookup table: byte value of a base character -> 2-bit code.
# Invalid characters map to 255 so they can be detected cheaply.
_BASE_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _code, _base in enumerate(BASES):
    _BASE_TO_CODE[ord(_base)] = _code
    _BASE_TO_CODE[ord(_base.lower())] = _code

# Complement lookup in code space: A<->T, C<->G.
_COMPLEMENT_CODE = np.array([3, 2, 1, 0], dtype=np.uint8)

_COMPLEMENT_BASE = str.maketrans("ACGTacgt", "TGCAtgca")


def encode(sequence: str) -> np.ndarray:
    """Encode a DNA string into an array of 2-bit codes.

    Parameters
    ----------
    sequence:
        A string over ``ACGT`` (case-insensitive).

    Returns
    -------
    numpy.ndarray
        ``uint8`` array with ``A=0, C=1, G=2, T=3``.

    Raises
    ------
    ValueError
        If the string contains a character outside the DNA alphabet.
    """
    raw = np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)
    codes = _BASE_TO_CODE[raw]
    if codes.size and codes.max() > 3:
        bad = sequence[int(np.argmax(codes > 3))]
        raise ValueError(f"invalid DNA character {bad!r} in sequence")
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode an array of 2-bit codes back into a DNA string."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size and codes.max() > 3:
        raise ValueError("codes must be in 0..3")
    return CODE_TO_BASE[codes].tobytes().decode("ascii")


def reverse_complement(sequence):
    """Reverse-complement a DNA string or a 2-bit code array.

    The return type matches the input type: ``str -> str`` and
    ``ndarray -> ndarray``.
    """
    if isinstance(sequence, str):
        return sequence.translate(_COMPLEMENT_BASE)[::-1]
    codes = np.asarray(sequence, dtype=np.uint8)
    return _COMPLEMENT_CODE[codes][::-1].copy()


def kmer_to_int(kmer: str) -> int:
    """Pack a k-mer string into an integer (2 bits per base, big-endian)."""
    value = 0
    for code in encode(kmer):
        value = (value << 2) | int(code)
    return value


def kmer_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """Return the packed integer of every k-mer of a 2-bit code array.

    Produces an ``int64`` array of length ``len(codes) - k + 1``; requires
    ``k <= 31``. This is the workhorse used by minimizer extraction and by
    the pore model, implemented with a vectorised rolling evaluation.
    """
    if k < 1 or k > 31:
        raise ValueError("k must be in 1..31")
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for offset in range(k):
        out = (out << 2) | codes[offset : offset + n]
    return out

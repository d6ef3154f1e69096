"""Genomics primitives: alphabets, sequences, quality scores, mutation.

This subpackage provides the foundational data types that every other part
of the GenPIP reproduction builds on:

* :mod:`repro.genomics.alphabet` -- the DNA alphabet, 2-bit encoding,
  reverse complement, and k-mer arithmetic.
* :mod:`repro.genomics.sequence` -- an immutable :class:`Sequence` value
  type.
* :mod:`repro.genomics.quality` -- Phred quality-score math (the genome
  analysis pipeline's read quality control operates on these scores).
* :mod:`repro.genomics.reference` -- reference genome generation and
  region fetching.
* :mod:`repro.genomics.mutate` -- sequencing-error models used both by
  the read simulator and by the surrogate basecaller.
"""

from repro.genomics.alphabet import (
    BASES,
    CODE_TO_BASE,
    decode,
    encode,
    int_to_kmer,
    is_valid_dna,
    kmer_to_int,
    random_bases,
    reverse_complement,
)
from repro.genomics.mutate import ErrorProfile, MutationResult, apply_errors
from repro.genomics.quality import (
    effective_quality,
    error_prob_to_phred,
    mean_quality,
    phred_to_error_prob,
)
from repro.genomics.reference import ReferenceGenome
from repro.genomics.sequence import Sequence

__all__ = [
    "BASES",
    "CODE_TO_BASE",
    "decode",
    "encode",
    "kmer_to_int",
    "int_to_kmer",
    "random_bases",
    "reverse_complement",
    "is_valid_dna",
    "error_prob_to_phred",
    "mean_quality",
    "effective_quality",
    "phred_to_error_prob",
    "Sequence",
    "ReferenceGenome",
    "ErrorProfile",
    "MutationResult",
    "apply_errors",
]

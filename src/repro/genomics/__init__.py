"""Genomics primitives: alphabet, quality scores, references, mutation.

This subpackage provides the foundations every other part of the GenPIP
reproduction builds on. Bases travel between them as ``uint8`` arrays of
2-bit codes (``A=0, C=1, G=2, T=3``), the form GenPIP's units pass to
each other; strings appear only at the edges (reports, examples).

* :mod:`repro.genomics.alphabet` -- the DNA alphabet, 2-bit encoding,
  reverse complement, and k-mer packing.
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
    kmer_to_int,
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

__all__ = [
    "BASES",
    "CODE_TO_BASE",
    "decode",
    "encode",
    "kmer_to_int",
    "reverse_complement",
    "error_prob_to_phred",
    "mean_quality",
    "effective_quality",
    "phred_to_error_prob",
    "ReferenceGenome",
    "ErrorProfile",
    "MutationResult",
    "apply_errors",
]

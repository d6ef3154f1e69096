"""Read mapping substrate: a minimap2-style long-read mapper.

GenPIP's read-mapping module follows minimap2's four phases (paper
Sec. 2.1, Fig. 1 bottom): **indexing** (minimizers of the reference into
a hash table), **seeding** (query read minimizers against the table),
**chaining** (dynamic-programming colinear chaining of anchor hits), and
**alignment** (base-level DP). This subpackage implements all four, plus
the *incremental chunk mapper* that GenPIP's chunk-based pipeline (CP)
and chunk-mapping early rejection (CMR) are built on:

* :mod:`repro.mapping.minimizers` -- (k, w) minimizer extraction with an
  invertible 64-bit hash and canonical strands;
* :mod:`repro.mapping.index` -- the reference hash table;
* :mod:`repro.mapping.seeding` -- anchor collection;
* :mod:`repro.mapping.chaining` -- minimap2's chain DP with gap costs;
* :mod:`repro.mapping.alignment` -- affine-gap alignment with CIGAR
  output, applied piecewise between chain anchors (as minimap2 does);
* :mod:`repro.mapping.mapper` -- the read-level facade and the
  incremental chunk-level mapper.

Stages pass arrays, not objects: minimizers are parallel ``(keys,
positions, strands)`` columns (``minimizers.minimizer_arrays``), anchors
per-strand ``(ref_pos, read_pos)`` rows (``seeding.collect_anchor_arrays``).
"""

from repro.mapping.alignment import (
    AlignmentConfig,
    AlignmentResult,
    align_chain,
    align_global,
    cigar_to_string,
)
from repro.mapping.chaining import Chain, ChainingConfig, chain_anchors
from repro.mapping.index import MinimizerIndex
from repro.mapping.mapper import (
    IncrementalChunkMapper,
    Mapper,
    MapperConfig,
    MappingResult,
)
from repro.mapping.minimizers import MinimizerConfig

__all__ = [
    "MinimizerConfig",
    "MinimizerIndex",
    "Chain",
    "ChainingConfig",
    "chain_anchors",
    "AlignmentConfig",
    "AlignmentResult",
    "align_chain",
    "align_global",
    "cigar_to_string",
    "IncrementalChunkMapper",
    "Mapper",
    "MapperConfig",
    "MappingResult",
]

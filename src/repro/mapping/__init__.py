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
* :mod:`repro.mapping.edit_distance` -- a Myers bit-parallel edit
  distance;
* :mod:`repro.mapping.mapper` -- the read-level facade and the
  incremental chunk-level mapper.
"""

from repro.mapping.alignment import (
    AlignmentConfig,
    AlignmentResult,
    align_chain,
    align_global,
    cigar_to_string,
)
from repro.mapping.chaining import Chain, ChainingConfig, chain_anchors
from repro.mapping.edit_distance import edit_distance
from repro.mapping.index import MinimizerIndex
from repro.mapping.mapper import (
    IncrementalChunkMapper,
    Mapper,
    MapperConfig,
    MappingResult,
)
from repro.mapping.minimizers import Minimizer, MinimizerConfig, extract_minimizers
from repro.mapping.seeding import Anchor, collect_anchors

__all__ = [
    "Minimizer",
    "MinimizerConfig",
    "extract_minimizers",
    "MinimizerIndex",
    "Anchor",
    "collect_anchors",
    "Chain",
    "ChainingConfig",
    "chain_anchors",
    "AlignmentConfig",
    "AlignmentResult",
    "align_chain",
    "align_global",
    "cigar_to_string",
    "edit_distance",
    "IncrementalChunkMapper",
    "Mapper",
    "MapperConfig",
    "MappingResult",
]

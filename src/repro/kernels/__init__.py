"""The vectorised kernel plane: batched arithmetic for the hot loops.

The paper's thesis is that basecalling and mapping should share one
tightly integrated, minimally-moving data path; this package is the
software expression of that idea for the repo's hot kernels, which
previously iterated sample-by-sample in interpreted Python:

* :mod:`repro.kernels.sdtw` -- subsequence DTW as an **anti-diagonal
  wavefront**: every cell on one anti-diagonal depends only on the two
  previous diagonals, so each diagonal is a single numpy vector op.
  Produces bit-identical costs to the scalar reference (same float64
  operations, reassociated only across independent cells); the SER
  screen, :class:`~repro.signal.rejection.SignalRejectionPolicy`, calls
  it directly.
* :mod:`repro.kernels.viterbi` -- the HMM trellis forward pass and
  traceback behind :class:`~repro.basecalling.viterbi.ViterbiBasecaller`.
  Both run in the C kernel ``trellis.c`` when it loaded and otherwise
  in the numpy fold: a state's
  four move predecessors are one column of ``dp.reshape(4, S/4)``,
  shared by four sibling states, so one observation is five
  whole-vector ufunc calls and backpointers are derived per block. Both
  do the same float64 operations in the same order, so they give the
  same bytes; a triple-loop scalar reference checks both. The trellis
  sees one observation per raw signal sample.
* :mod:`repro.kernels.seed` -- seeding (paper Fig. 1(a): the probe
  GenPIP's seeding unit answers from its CAM rows): a chunk's minimizer
  scan and its probe of the index's flat key/bounds/location arrays in
  one call of the C kernel ``seed.c`` when it loaded, else the numpy
  path (a vectorised scan, then one ``searchsorted`` + repeat/gather),
  with the same bytes. Both strands' anchors keep raw read
  coordinates: seeding never orients them.
* :mod:`repro.kernels.chain` -- the chain stage (paper Fig. 1(c)):
  a read's anchor gathering (the one place the reverse strand is
  flipped, with the index's ``k``), minimap2 chain DP, chain walk and
  primary/secondary pick in one call of the C kernel ``chain.c`` when
  it loaded, else the mapping layer's Python stage over the scalar
  recurrence, with the same bytes.
* ``surrogate.c`` -- the surrogate basecaller's decode
  (:mod:`repro.basecalling.surrogate`): every chunk of a
  ``basecall_many`` call, over any number of reads, in one call, each
  replaying its own numpy ``Generator`` stream (``SeedSequence``,
  PCG64, and numpy's own C distributions, linked from
  ``libnpyrandom.a``) and applying the errors and the quality jitter,
  else the numpy path, with the same bytes.
* :mod:`repro.kernels.align` -- affine-gap (Gotoh) alignment (paper
  Fig. 1(d)): the pure-Python scalar loop that defines a segment's
  score and CIGAR. Production runs the lane fill in
  :mod:`repro.mapping.alignment`: all of a chain's segments and end
  extensions in one call of the C kernel ``gotoh.c`` when it loaded,
  else the scalar loop on each lane; the two are bit-identical.

Every kernel reports its own workload (:mod:`repro.kernels.workload`)
so :mod:`repro.perf` can charge the *real* arithmetic -- Viterbi
state-space ops, chain candidates, alignment cells --
instead of a generic per-base price. Basecalling kinds are known
up-front; the data-dependent mapping kinds accumulate in the
process registry's counter (:mod:`repro.kernels.mapping_ops`) as kernels run.

The contract is one sentence: *production calls one kernel per stage;
a reference is something a test imports*. ``seed_anchors_scalar``,
``chain_scores_scalar``, ``sdtw_cost_scalar``, ``gotoh_scalar`` and
``viterbi_forward_scalar`` stay exported because the tests replay each
kernel against its reference and fail on any mismatch; nothing selects
a kernel by name, and no stage picks between two fills. The five
compiled kernels run by availability alone, with the same bytes either
way: the chain stage falls back to its Python composition over the
scalar DP, the Gotoh lane fill to its scalar reference; the Viterbi
trellis, whose reference is far too slow to run a decode, to its numpy
fold; seeding, whose minimizer scan has no scalar twin, and the
surrogate decode to their numpy paths. :mod:`repro.kernels.native` holds
the one table of them, ``KERNELS`` (each one's fallback name and C
signatures), builds each with the system C compiler on its first call,
caches it, and names what runs: ``native.backend("chain")``.
"""

from repro.kernels.align import gotoh_scalar
from repro.kernels.chain import (
    chain_candidate_count,
    chain_scores,
    chain_scores_scalar,
)
from repro.kernels.mapping_ops import (
    MAPPING_OP_KINDS,
    mapping_ops,
    process_mapping_ops,
    record_mapping_ops,
)
from repro.kernels.sdtw import sdtw_cost, sdtw_cost_scalar
from repro.kernels.seed import seed_anchors_batched, seed_anchors_scalar
from repro.kernels.viterbi import (
    TRANSITIONS_PER_STATE,
    move_predecessors,
    sample_emissions,
    viterbi_forward,
    viterbi_forward_scalar,
    viterbi_state_ops,
    viterbi_traceback,
)
from repro.kernels.workload import KernelWorkload

__all__ = [
    "MAPPING_OP_KINDS",
    "TRANSITIONS_PER_STATE",
    "KernelWorkload",
    "chain_candidate_count",
    "chain_scores",
    "chain_scores_scalar",
    "gotoh_scalar",
    "mapping_ops",
    "move_predecessors",
    "process_mapping_ops",
    "record_mapping_ops",
    "sample_emissions",
    "sdtw_cost",
    "sdtw_cost_scalar",
    "seed_anchors_batched",
    "seed_anchors_scalar",
    "viterbi_forward",
    "viterbi_forward_scalar",
    "viterbi_state_ops",
    "viterbi_traceback",
]

"""Kernel workload accounting: what the perf model charges for.

The performance models historically priced basecalling as a generic
bases-per-second throughput. The kernel plane makes the real arithmetic
visible -- a Viterbi decode is ``observations x states x transitions``
state-space ops -- and a backend that knows its kernel reports it
through :class:`KernelWorkload` (see ``kernel_workload`` on
:class:`~repro.basecalling.engines.ViterbiChunkBasecaller`), which
:class:`~repro.perf.workload.PipelineWorkload` carries into
:mod:`repro.perf.systems`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Kernel kinds the cost database knows per-op anchors for. The first
#: is the basecalling kind reported up-front via ``kernel_workload``
#: hooks; the mapping kinds are charged as the kernels run (see
#: :mod:`repro.kernels.mapping_ops`).
KERNEL_KINDS = ("viterbi-state", "chain-candidate", "align-cell")


@dataclass(frozen=True)
class KernelWorkload:
    """Arithmetic one basecalling kernel performs for a span of bases.

    Attributes
    ----------
    kind:
        Kernel family (one of :data:`KERNEL_KINDS`); selects the per-op
        cost anchor in :class:`~repro.perf.costs.CostDatabase`.
    ops:
        Operation count in the kind's native unit.
    unit:
        Human-readable unit name (e.g. ``"state-ops"``).
    """

    kind: str
    ops: int
    unit: str

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {KERNEL_KINDS}")
        if self.ops < 0:
            raise ValueError("ops must be non-negative")

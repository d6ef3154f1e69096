"""Mapping kernel op accounting: the process registry's DP-work counter.

The basecalling side reports its arithmetic through per-backend
``kernel_workload`` hooks (a decode knows its op count up front from the
observation count). Mapping work is data-dependent -- how many chain
candidates the DP evaluates and how many alignment cells get filled
depends on the anchors a read happens to produce -- so the mapping
kernels charge the ``genpip_mapping_ops`` counter of
:func:`repro.obs.metrics.process_registry` *as they run*, exactly like
the byte-copy counter (:func:`repro.obs.metrics.record_copy`): explicit
charge sites, no instrumentation.

Kinds in use:

* ``"chain-candidate"`` -- predecessor candidates evaluated by the
  chain DP (:mod:`repro.kernels.chain`): one per (anchor, lookback
  window slot) pair, the unit GenPIP's DP units and PARC execute
  in-memory.
* ``"align-cell"`` -- affine-gap DP cells filled by the alignment
  kernels (:mod:`repro.kernels.align` and the lane fill in
  :mod:`repro.mapping.alignment`): each lane's ``n * m``, never the
  padding its group adds.

:class:`~repro.perf.workload.PipelineWorkload` carries snapshot deltas
of this counter into the system models, which convert them to seconds
through the matching :class:`~repro.perf.costs.CostDatabase` anchors.
"""

from __future__ import annotations

from repro.obs.metrics import MAPPING_OPS, Counter, process_registry

#: Op kinds with a defined meaning (free-form kinds still count; this
#: tuple is documentation plus a spelling anchor for tests).
MAPPING_OP_KINDS = ("chain-candidate", "align-cell")

_OPS: Counter = process_registry().get(MAPPING_OPS)
#: ``benchmarks/perf/run.py`` still reads the counter as ``by_kind()``;
#: every other caller uses ``by_key()``.
_OPS.by_kind = _OPS.by_key


def process_mapping_ops() -> Counter:
    """The process registry's mapping-ops counter (workers have their own)."""
    return _OPS


def record_mapping_ops(kind: str, ops: int) -> None:
    """Charge ``ops`` mapping kernel operations of ``kind``."""
    _OPS.inc(kind, int(ops))


def mapping_ops(kind: str | None = None) -> int:
    """Process-local mapping kernel ops (one kind, or the total)."""
    return _OPS.value(kind)

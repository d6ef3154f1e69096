"""Performance and energy models: the ten evaluated systems of Sec. 5.

The evaluation pipeline is: run the *functional* pipeline
(:mod:`repro.core`) on a dataset to obtain per-read work records, distil
them into a :class:`~repro.perf.workload.PipelineWorkload`, and feed
that workload to the system models, which combine

* calibrated unit costs (:mod:`repro.perf.costs` -- throughputs,
  movement volumes/bandwidth, system powers; each constant's derivation
  from the paper and the Helix/PARC papers is documented inline),
* a flow-shop pipeline simulator (:mod:`repro.perf.pipeline_sim`) that
  computes the makespan of chunk-overlapped (CP) execution, so overlap
  gains and chunk-size effects *emerge* rather than being hard-coded,
* and an energy account (step time x step power + movement energy).

:mod:`repro.perf.systems` defines the ten systems of Fig. 10/11 (CPU,
CPU-CP, CPU-GP, GPU, GPU-CP, GPU-GP, PIM, GenPIP-CP, GenPIP-CP-QSR,
GenPIP); :mod:`repro.perf.potential` reproduces the Fig. 4
potential-benefit study (Systems A-D).
"""

from repro.perf.costs import DEFAULT_COSTS, CostDatabase
from repro.perf.pipeline_sim import FlowShopResult, simulate_flow_shop
from repro.perf.potential import PotentialStudyResult, potential_study
from repro.perf.systems import (
    SYSTEM_NAMES,
    SystemEstimate,
    evaluate_all_systems,
    evaluate_system,
)
from repro.perf.workload import PipelineWorkload

__all__ = [
    "CostDatabase",
    "DEFAULT_COSTS",
    "PipelineWorkload",
    "FlowShopResult",
    "simulate_flow_shop",
    "SYSTEM_NAMES",
    "SystemEstimate",
    "evaluate_all_systems",
    "evaluate_system",
    "PotentialStudyResult",
    "potential_study",
]

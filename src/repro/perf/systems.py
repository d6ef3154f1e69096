"""The ten evaluated systems of the paper's Sec. 5.

==============  =====================================================
System          Composition
==============  =====================================================
CPU             Bonito (CPU) + RQC + minimap2 (CPU); batch; movement
CPU-CP          CPU engines, chunk pipeline (streamed, overlapped)
CPU-GP          CPU engines, chunk pipeline + early rejection
GPU             Bonito (GPU) + RQC + minimap2 (CPU); batch; movement
GPU-CP          GPU engines, chunk pipeline
GPU-GP          GPU engines, chunk pipeline + early rejection
PIM             Helix + PARC glued, idealised: no movement, free RQC
GenPIP-CP       GenPIP hardware, chunk pipeline only
GenPIP-CP-QSR   + quality-score early rejection
GenPIP          + chunk-mapping early rejection (the full design)
==============  =====================================================

Times: batch systems sum their stage times plus movement; CP systems
run the flow-shop simulator over the measured per-read chunk trace (so
overlap and fill are emergent) and overlap streaming transfers.
Energy: active stage time x engine power, plus movement energy (halved
for CP systems, which stream instead of staging through storage).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf.costs import DEFAULT_COSTS, CostDatabase
from repro.perf.pipeline_sim import chunk_pipeline_jobs, simulate_flow_shop
from repro.perf.workload import PipelineWorkload

#: Evaluation order of Fig. 10/11.
SYSTEM_NAMES = (
    "CPU",
    "CPU-CP",
    "CPU-GP",
    "GPU",
    "GPU-CP",
    "GPU-GP",
    "PIM",
    "GenPIP-CP",
    "GenPIP-CP-QSR",
    "GenPIP",
)

#: Which functional workload each system consumes.
WORKLOAD_KIND = {
    "CPU": "conventional",
    "CPU-CP": "conventional",
    "CPU-GP": "full_er",
    "GPU": "conventional",
    "GPU-CP": "conventional",
    "GPU-GP": "full_er",
    "PIM": "conventional",
    "GenPIP-CP": "conventional",
    "GenPIP-CP-QSR": "qsr_only",
    "GenPIP": "full_er",
}


@dataclass(frozen=True)
class SystemEstimate:
    """Modelled runtime and energy of one system on one workload."""

    name: str
    time_s: float
    energy_j: float
    breakdown: dict[str, float]

    def speedup_over(self, other: "SystemEstimate") -> float:
        """``other.time / self.time`` (how much faster *self* is)."""
        return other.time_s / self.time_s

    def energy_reduction_over(self, other: "SystemEstimate") -> float:
        return other.energy_j / self.energy_j


@dataclass(frozen=True)
class _Engines:
    basecall_bps: float
    map_bps: float
    basecall_power_w: float
    other_power_w: float
    qc_on_cpu: bool
    has_movement: bool


def _engines_for(name: str, costs: CostDatabase) -> _Engines:
    if name.startswith("CPU"):
        return _Engines(
            basecall_bps=costs.cpu_basecall_bps,
            map_bps=costs.cpu_map_bps,
            basecall_power_w=costs.cpu_power_w,
            other_power_w=costs.cpu_power_w,
            qc_on_cpu=True,
            has_movement=True,
        )
    if name.startswith("GPU"):
        return _Engines(
            basecall_bps=costs.gpu_basecall_bps,
            map_bps=costs.cpu_map_bps,
            basecall_power_w=costs.gpu_power_w,
            other_power_w=costs.cpu_power_w,
            qc_on_cpu=True,
            has_movement=True,
        )
    if name == "PIM":
        return _Engines(
            basecall_bps=costs.helix_basecall_bps,
            map_bps=costs.parc_map_bps,
            basecall_power_w=costs.pim_power_w,
            other_power_w=costs.pim_power_w,
            qc_on_cpu=False,  # idealised: free RQC
            has_movement=False,  # idealised: no movement
        )
    if name.startswith("GenPIP"):
        return _Engines(
            basecall_bps=costs.helix_basecall_bps,
            map_bps=costs.genpip_map_bps,
            basecall_power_w=costs.genpip_power_w,
            other_power_w=costs.genpip_power_w,
            qc_on_cpu=False,  # PIM-CQS computes quality inline
            has_movement=False,  # inside the sequencing machine
        )
    raise ValueError(f"unknown system {name!r}")


def _movement_bytes(workload: PipelineWorkload, costs: CostDatabase) -> tuple[float, float]:
    """(raw bytes, basecalled bytes) a decoupled system must move."""
    raw = costs.raw_signal_bytes(workload.total_bases)
    called = costs.called_bytes(workload.basecalled_bases)
    return raw, called


def _signal_filter_time_s(workload: PipelineWorkload, costs: CostDatabase) -> float:
    """Time the signal-domain pre-filter (SER) itself consumes.

    The *credit* for SER -- basecalling/QC/mapping work that never
    happened -- is already in the workload's volumes (an SER-rejected
    read contributes zero basecalled bases); this is the debit side:
    every screened prefix costs sDTW time on the filter engine. Zero
    for workloads that never ran the stage, so all pre-SER estimates
    are bit-identical.
    """
    if workload.ser_screened_bases <= 0:
        return 0.0
    return workload.ser_screened_bases / costs.ser_filter_bps


def _basecall_time_s(
    workload: PipelineWorkload, engines: _Engines, costs: CostDatabase
) -> float:
    """Basecalling time: kernel-op accounting when the workload has it.

    A workload distilled with a kernel-plane backend carries that
    backend's native op count (Viterbi state-ops). The
    engine's bases/s throughput, anchored at the reference backend
    shape, converts to ops/s via the matching
    :meth:`CostDatabase.kernel_ops_per_base` anchor -- so a backend
    that does fewer ops per base runs proportionally faster on the
    same engine. Workloads without kernel accounting keep the original
    per-base formula bit-identically.
    """
    if workload.basecall_kind and workload.basecall_ops > 0:
        ops_per_s = costs.kernel_ops_per_base(workload.basecall_kind) * engines.basecall_bps
        return workload.basecall_ops / ops_per_s
    return workload.basecalled_bases / engines.basecall_bps


def _basecall_s_per_chunk(
    workload: PipelineWorkload, engines: _Engines, costs: CostDatabase
) -> float:
    """Flow-shop basecall stage time of one chunk (same accounting)."""
    if workload.basecall_kind and workload.basecall_ops_per_chunk > 0:
        ops_per_s = costs.kernel_ops_per_base(workload.basecall_kind) * engines.basecall_bps
        return workload.basecall_ops_per_chunk / ops_per_s
    return workload.chunk_size / engines.basecall_bps


def _map_time_s(
    workload: PipelineWorkload, engines: _Engines, costs: CostDatabase
) -> float:
    """Mapping time: mapping-op accounting when the workload has it.

    A workload distilled with a mapping-ops ledger snapshot carries the
    chain-DP candidate and alignment-cell counts the kernels actually
    evaluated. Each share converts ops back to *equivalent bases* via
    the :class:`CostDatabase` per-base anchors, so the engine's bases/s
    mapping throughput still applies -- a run whose reads chain cheaply
    (sparse anchors, short lookback runs) is charged for the arithmetic
    it actually did. The two shares fall back independently: fast
    functional runs skip the base-level alignment DP entirely
    (``align=False``), so their align share keeps the per-base
    would-have-aligned estimate while the chain share uses measured
    candidates. Workloads without any mapping accounting keep the
    original per-base formula bit-identically.
    """
    f_align = costs.map_align_fraction
    chain_bases = (
        workload.chain_candidate_ops / costs.chain_candidates_per_base
        if workload.chain_candidate_ops > 0
        else float(workload.mapped_bases_batch)
    )
    align_bases = (
        workload.align_cell_ops / costs.align_cells_per_base
        if workload.align_cell_ops > 0
        else float(workload.aligned_bases)
    )
    return (chain_bases * (1.0 - f_align) + align_bases * f_align) / engines.map_bps


def _estimate_batch(name: str, workload: PipelineWorkload, costs: CostDatabase) -> SystemEstimate:
    engines = _engines_for(name, costs)
    t_basecall = _basecall_time_s(workload, engines, costs)
    t_qc = workload.qc_bases / costs.cpu_qc_bps if engines.qc_on_cpu else 0.0
    t_map = _map_time_s(workload, engines, costs)
    breakdown = {"basecall": t_basecall, "qc": t_qc, "map": t_map}
    energy = (
        t_basecall * engines.basecall_power_w
        + (t_qc + t_map) * engines.other_power_w
    )
    time = t_basecall + t_qc + t_map
    t_ser = _signal_filter_time_s(workload, costs)
    if t_ser:
        breakdown["signal_filter"] = t_ser
        time += t_ser
        energy += t_ser * engines.other_power_w
    if engines.has_movement:
        raw, called = _movement_bytes(workload, costs)
        t_move = costs.movement_time_s(raw + called)
        breakdown["movement"] = t_move
        time += t_move
        energy += costs.movement_energy_j(raw + called)
    return SystemEstimate(name=name, time_s=time, energy_j=energy, breakdown=breakdown)


def _estimate_pipelined(
    name: str, workload: PipelineWorkload, costs: CostDatabase
) -> SystemEstimate:
    engines = _engines_for(name, costs)
    f_align = costs.map_align_fraction
    chunk = workload.chunk_size
    jobs = chunk_pipeline_jobs(
        workload.chunks_per_read,
        workload.seeded_chunks_per_read,
        workload.aligned_per_read,
        basecall_s_per_chunk=_basecall_s_per_chunk(workload, engines, costs),
        seedchain_s_per_chunk=chunk * (1.0 - f_align) / engines.map_bps,
        align_s_per_chunk=chunk * f_align / engines.map_bps,
    )
    flow = simulate_flow_shop(jobs)
    # The per-read trace may be a sample of a larger (scaled) workload;
    # rescale the makespan to the aggregate volume.
    trace_bases = sum(workload.chunks_per_read) * chunk
    scale = workload.basecalled_bases / trace_bases if trace_bases else 0.0
    makespan = flow.makespan_s * scale
    busy_bc = flow.stage_busy_s[0] * scale
    busy_map = flow.stage_busy_s[1] * scale
    t_qc = workload.qc_bases / costs.cpu_qc_bps if engines.qc_on_cpu else 0.0

    breakdown = {
        "pipeline": makespan,
        "basecall_busy": busy_bc,
        "map_busy": busy_map,
        "qc": t_qc,
        "overlap_gain": flow.overlap_gain,
    }
    time = makespan + t_qc
    energy = busy_bc * engines.basecall_power_w + (busy_map + t_qc) * engines.other_power_w
    t_ser = _signal_filter_time_s(workload, costs)
    if t_ser:
        breakdown["signal_filter"] = t_ser
        time += t_ser
        energy += t_ser * engines.other_power_w
    if engines.has_movement:
        # The raw signal must land on the basecalling machine before the
        # pipeline can run (sequencing already finished), so it stays
        # serial; the basecalled-read transfer streams chunk-by-chunk
        # inside the pipeline (no time, half the staging energy).
        raw, called = _movement_bytes(workload, costs)
        t_raw = costs.movement_time_s(raw)
        breakdown["movement_raw"] = t_raw
        time += t_raw
        energy += costs.movement_energy_j(raw) + 0.5 * costs.movement_energy_j(called)
    return SystemEstimate(name=name, time_s=time, energy_j=energy, breakdown=breakdown)


def evaluate_system(
    name: str, workload: PipelineWorkload, costs: CostDatabase | None = None
) -> SystemEstimate:
    """Model one system's runtime/energy on the given workload.

    The caller is responsible for passing the matching workload kind
    (see :data:`WORKLOAD_KIND`); :func:`evaluate_all_systems` does this
    bookkeeping for you.
    """
    costs = costs or DEFAULT_COSTS
    if name not in SYSTEM_NAMES:
        raise ValueError(f"unknown system {name!r}; expected one of {SYSTEM_NAMES}")
    if name in ("CPU", "GPU", "PIM"):
        return _estimate_batch(name, workload, costs)
    return _estimate_pipelined(name, workload, costs)


def evaluate_all_systems(
    workloads: dict[str, PipelineWorkload], costs: CostDatabase | None = None
) -> dict[str, SystemEstimate]:
    """Evaluate every system of Fig. 10/11.

    Parameters
    ----------
    workloads:
        ``{"conventional": ..., "qsr_only": ..., "full_er": ...}`` --
        the three functional runs each system variant draws from.
    """
    costs = costs or DEFAULT_COSTS
    missing = {WORKLOAD_KIND[name] for name in SYSTEM_NAMES} - set(workloads)
    if missing:
        raise ValueError(f"missing workload kinds: {sorted(missing)}")
    return {
        name: evaluate_system(name, workloads[WORKLOAD_KIND[name]], costs)
        for name in SYSTEM_NAMES
    }

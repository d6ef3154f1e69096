"""Calibrated unit costs for the performance/energy models.

Every constant below is anchored either in a number the GenPIP paper
reports directly, in its cited real-system study (Bowden et al. [85]:
~3100 CPU-hours basecalling, ~500 CPU-hours read mapping, ~1 CPU-hour
QC, 3913 GB raw signal and 546 GB basecalled reads for a ~273-Gbase
human dataset), or in the Helix / PARC papers. Where the paper gives
only end-to-end ratios, the constant is solved from those ratios; the
derivations are spelled out per field so they can be audited and
re-fit.

Solving the Fig. 4 system equations (A = 1x, B = 2.74x, C = 6.12x,
D = 9x with C/B = 2.23 and D/B = 3.28):

* movement is ``(1/2.74 - 1/6.12) = 20.2%`` of System A's runtime;
* removing useless reads scales compute by ``6.12/9 = 0.68``, i.e. a
  32% useless-work share -- matching Sec. 2.3's 30.5% useless reads;
* with CPU anchors (3100 h basecall / 500 h map), the implied GPU
  basecaller is ~12x the CPU one and the Helix+PARC pair lands at
  ~0.163x of System A's time, split basecall-heavy (see
  ``helix_basecall_bps``) so that GenPIP-CP's overlap gain over PIM
  reproduces the observed 1.16x.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Total bases of the anchor study's dataset ([85], ~546 GB FASTQ).
ANCHOR_BASES = 273e9


@dataclass(frozen=True)
class CostDatabase:
    """Throughputs (bases/s), movement parameters, and system powers."""

    # ------------------------------------------------------------------
    # Software engines (anchor: Bowden et al. [85] CPU-hours).
    # ------------------------------------------------------------------
    #: Bonito on a Xeon Gold 5118: 273 Gbase / 3100 h.
    cpu_basecall_bps: float = ANCHOR_BASES / (3100.0 * 3600.0)
    #: minimap2 on the same CPU: 273 Gbase / 500 h.
    cpu_map_bps: float = ANCHOR_BASES / (500.0 * 3600.0)
    #: Read quality control: 273 Gbase / 1 h.
    cpu_qc_bps: float = ANCHOR_BASES / (1.0 * 3600.0)
    #: Bonito on an RTX 2080 Ti; the ~12x factor over CPU is solved from
    #: Fig. 4 (System A composition) + Fig. 10 (GPU = ~4.95x CPU system).
    gpu_basecall_bps: float = 12.4 * ANCHOR_BASES / (3100.0 * 3600.0)

    # ------------------------------------------------------------------
    # PIM engines (Helix-like basecaller, PARC-like mapper).
    # ------------------------------------------------------------------
    #: Helix PIM basecaller. Solved jointly from Fig. 4's System C share
    #: and Fig. 10's PIM column (PIM ~ 29.9x over CPU): ~2.3x the GPU
    #: basecaller.
    helix_basecall_bps: float = 2.3 * 12.4 * ANCHOR_BASES / (3100.0 * 3600.0)
    #: PARC chaining+alignment, ~14x minimap2 on CPU. Solved so that the
    #: PIM pipeline splits basecall-heavy (~6:1), which reproduces the
    #: paper's 1.16x chunk-pipeline overlap gain (GenPIP-CP vs PIM).
    parc_map_bps: float = 14.0 * ANCHOR_BASES / (500.0 * 3600.0)
    #: GenPIP's mapping path (in-memory seeding + DP units) -- same DP
    #: substrate as PARC; the dedicated seeding unit keeps it fed.
    genpip_map_bps: float = 14.0 * ANCHOR_BASES / (500.0 * 3600.0)
    #: Signal-domain pre-filter (SER): a SquiggleFilter-class hardware
    #: sDTW array screens raw current far faster than any basecaller
    #: decodes it -- SquiggleFilter reports multi-genome real-time
    #: filtering from a ~W-scale ASIC. Modelled at 10x the Helix
    #: basecaller's throughput: fast enough that screening every read's
    #: prefix is cheap next to the basecalling it avoids, slow enough
    #: that the stage is never literally free in the accounting.
    ser_filter_bps: float = 10.0 * 2.3 * 12.4 * ANCHOR_BASES / (3100.0 * 3600.0)

    # ------------------------------------------------------------------
    # Data movement (lab machine -> dry-lab cluster; [85]'s volumes).
    # ------------------------------------------------------------------
    #: Raw signal bytes per base: 3913 GB / 273 Gbase.
    raw_bytes_per_base: float = 3913e9 / ANCHOR_BASES
    #: Basecalled FASTQ bytes per base (base + quality): 546 GB / 273 Gbase.
    called_bytes_per_base: float = 546e9 / ANCHOR_BASES
    #: Effective lab-to-cluster transfer bandwidth, solved from
    #: movement = 20.2% of System A: (3913+546) GB over ~189 h.
    link_bandwidth_bps: float = (3913e9 + 546e9) / (189.0 * 3600.0)

    # ------------------------------------------------------------------
    # Powers (W). Solved from the paper's energy-vs-speedup ratios:
    # E = P x T per step, so P_sys/P_genpip = (energy ratio)/(speedup).
    # CPU: 32.8/41.6 x 147.2 ~ 116 W. GPU: 20.8/8.4 x 147.2 ~ 364 W.
    # PIM: 1.37/1.39 x 147.2 ~ 145 W. GenPIP: Table 2 total.
    # ------------------------------------------------------------------
    cpu_power_w: float = 116.0
    gpu_power_w: float = 364.0
    #: PIM baseline: Helix + PARC device power (~145 W from their
    #: papers' budgets) plus the ~100 W host that feeds them.
    pim_power_w: float = 245.1
    #: GenPIP: Table 2's 147.2 W chip plus the ~100 W sequencer host.
    genpip_power_w: float = 247.2
    #: Power of the storage/network path while a transfer is in flight
    #: (both hosts + storage arrays + switches). Solved so that movement
    #: energy closes the CPU-vs-GPU energy gap to the observed 1.58x.
    movement_power_w: float = 1680.0

    #: Fraction of read-mapping cost attributable to base-level
    #: alignment (executed per read, after chaining); the remainder is
    #: seeding + chaining, executed per chunk in CP systems. Matches
    #: minimap2's rough profile on ONT reads.
    map_align_fraction: float = 0.6

    # ------------------------------------------------------------------
    # Kernel-op anchors: how many native kernel operations one base of
    # *reference-shape* basecalling performs. A backend that reports its
    # own :class:`~repro.kernels.workload.KernelWorkload` is charged
    # ``ops / (anchor x basecall_bps)`` -- the engine's bases/s
    # throughput re-expressed as ops/s, so a backend doing fewer ops
    # per base runs proportionally faster on the same engine.
    # ------------------------------------------------------------------
    #: Sample-space k-mer Viterbi: dwell_mean (6) observations per base
    #: x 4^5 states x 5 transitions per state = 30720 state-ops/base.
    viterbi_state_ops_per_base: float = 6.0 * 4**5 * 5
    #: Chain-DP predecessor candidates per mapped base. Bounded above by
    #: minimizer density x lookback = 2/(w+1) x 50 ~ 9 for the (13, 10)
    #: scheme; measured ~3-4 on the synthetic ONT-like profile (~7%
    #: errors) because anchor runs rarely saturate the lookback window.
    chain_candidates_per_base: float = 4.0
    #: Affine-gap DP cells per mapped base: inter-anchor segment fill
    #: plus capped head/tail extension, measured ~25 on the same
    #: profile (exact-match segments skip DP entirely). The ledger
    #: charges each lane its whole ``n * m`` DP problem, the work the
    #: paper's alignment units do, not the cells the banded ``gotoh.c``
    #: fills (about half of them).
    align_cells_per_base: float = 25.0

    def __post_init__(self) -> None:
        numeric = [
            self.cpu_basecall_bps,
            self.cpu_map_bps,
            self.cpu_qc_bps,
            self.gpu_basecall_bps,
            self.helix_basecall_bps,
            self.parc_map_bps,
            self.genpip_map_bps,
            self.ser_filter_bps,
            self.raw_bytes_per_base,
            self.called_bytes_per_base,
            self.link_bandwidth_bps,
            self.cpu_power_w,
            self.gpu_power_w,
            self.pim_power_w,
            self.genpip_power_w,
            self.movement_power_w,
        ]
        if any(v <= 0 for v in numeric):
            raise ValueError("all cost constants must be positive")

    # -- helpers -------------------------------------------------------

    def kernel_ops_per_base(self, kind: str) -> float:
        """Anchor ops-per-base of a kernel kind (see the anchors above)."""
        if kind == "viterbi-state":
            return self.viterbi_state_ops_per_base
        if kind == "chain-candidate":
            return self.chain_candidates_per_base
        if kind == "align-cell":
            return self.align_cells_per_base
        raise ValueError(f"unknown kernel kind {kind!r}")

    def movement_time_s(self, n_bytes: float) -> float:
        """Transfer time of a payload over the lab-to-cluster link."""
        if n_bytes < 0:
            raise ValueError("n_bytes must be non-negative")
        return n_bytes / self.link_bandwidth_bps

    def movement_energy_j(self, n_bytes: float) -> float:
        """Energy of a transfer: link-path power x transfer time."""
        return self.movement_time_s(n_bytes) * self.movement_power_w

    def raw_signal_bytes(self, bases: float) -> float:
        """Raw-signal volume for a number of sequenced bases."""
        return bases * self.raw_bytes_per_base

    def called_bytes(self, bases: float) -> float:
        """Basecalled FASTQ volume for a number of bases."""
        return bases * self.called_bytes_per_base


#: The calibration used by all experiments.
DEFAULT_COSTS = CostDatabase()

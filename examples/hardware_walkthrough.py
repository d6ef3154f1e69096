"""Walk through GenPIP's hardware components (paper Sec. 4 + Table 2).

Demonstrates each in-memory unit doing its real job:

* the NVM crossbar multiplies (with measurable quantisation error);
* PIM-CQS sums a chunk's quality scores in-array (Eq. 2's SQS);
* the in-memory seeding unit answers exactly like the software index;
* the Helix-like basecaller model reports per-chunk latency/energy;
* the Table 2 area/power budget assembles from the component models.

Run with: ``python examples/hardware_walkthrough.py``
"""

import numpy as np

from repro.genomics.reference import ReferenceGenome
from repro.hardware import (
    CrossbarArray,
    CrossbarConfig,
    HelixModel,
    InMemorySeedingUnit,
    PimCqsUnit,
    genpip_table2_budget,
)
from repro.mapping import MinimizerIndex
from repro.mapping.seeding import collect_anchor_arrays


def main() -> None:
    rng = np.random.default_rng(0)

    # --- NVM crossbar: in-situ MVM (Fig. 2).
    array = CrossbarArray(CrossbarConfig(rows=128, cols=128, bits_per_cell=4))
    matrix = rng.normal(size=(128, 128))
    vector = rng.normal(size=128)
    array.program(matrix)
    error = np.abs(array.mvm(vector) - matrix.T @ vector).max()
    print(f"crossbar MVM: 128x128 @ 4 bits/cell, max |analog - exact| = {error:.4f}")

    # --- PIM-CQS: the in-memory chunk quality sum (Sec. 4.3.1).
    qualities = rng.uniform(2.0, 20.0, size=300)
    result = PimCqsUnit().compute_sqs(qualities)
    print(
        f"PIM-CQS: SQS of a 300-base chunk = {result.sum_quality:.1f} "
        f"(exact {qualities.sum():.1f}) in {result.latency_ns:.0f} ns / "
        f"{result.energy_pj:.0f} pJ"
    )

    # --- In-memory seeding unit (Fig. 9): same answers as the index.
    reference = ReferenceGenome.random(60_000, seed=1)
    index = MinimizerIndex.build(reference)
    unit = InMemorySeedingUnit(index)
    chunk = reference.fetch(10_000, 10_300)
    hw_anchors, stats = unit.seed_chunk(chunk)
    sw_anchors = collect_anchor_arrays(index, chunk)
    match = all(
        np.array_equal(hw_anchors[strand], sw_anchors[strand]) for strand in (1, -1)
    )
    print(
        f"seeding unit: {unit.n_cam_arrays} CAM banks, chunk query -> "
        f"{stats.n_locations} locations in {stats.latency_ns:.0f} ns; "
        f"matches software index: {match}"
    )

    # --- Helix-like PIM basecaller throughput.
    helix = HelixModel()
    throughput = helix.throughput(chunk_bases=300)
    print(
        f"Helix model: {throughput.chunk_latency_ns / 1e3:.1f} us per 300-base chunk, "
        f"{throughput.bases_per_second / 1e6:.1f} Mbases/s sustained"
    )

    # --- Table 2: the chip budget.
    budget = genpip_table2_budget()
    print("\nTable 2 budget (assembled from component models):")
    for name, module, power, area in budget.rows():
        print(f"  {name:<18} [{module:<12}] {power:>8.2f} W {area:>8.2f} mm^2")
    print(
        f"  {'TOTAL':<18} {'':<14} {budget.total_power_w:>8.1f} W "
        f"{budget.total_area_mm2:>8.1f} mm^2   (paper: 147.2 W, 163.8 mm^2)"
    )


if __name__ == "__main__":
    main()

"""Extension demo: raw-signal storage and basecalling-free pre-filtering.

Two signal-space capabilities around GenPIP's pipeline:

1. **Raw-signal store** — materialise reads' raw signals in the binary
   container and measure the bytes/base, the artefact behind the
   paper's "3913 GB raw signal data" movement volume (Fig. 1).
2. **Signal-space pre-filter** (the paper's Sec. 2.3 "ideally even
   before they go through basecalling" direction, cf. SquiggleFilter):
   reject junk reads from their first ~150 bases of raw signal with
   subsequence DTW against expected-signal templates -- before GenPIP's
   own QSR/CMR would even see a basecalled chunk.

Run with: ``python examples/signal_space_extension.py``
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.genomics.reference import ReferenceGenome
from repro.nanopore import (
    PoreModel,
    SignalConfig,
    SignalRead,
    SignalRecord,
    read_signals,
    synthesize_signal,
    write_signals,
)
from repro.perf.costs import DEFAULT_COSTS
from repro.signal import SignalRejectionPolicy


def main() -> None:
    pore = PoreModel.synthetic(k=5)
    reference = ReferenceGenome.random(80_000, seed=5)
    config = SignalConfig(dwell_mean=4.0, dwell_min=2, noise_std=1.5)
    rng = np.random.default_rng(6)

    # --- simulate a *targeted-sequencing* batch (the SquiggleFilter /
    # Read-Until use case): on-target reads start inside the target
    # panel's regions; off-target reads are junk the filter should drop.
    panel_starts = list(range(0, len(reference) - 1_000, 8_000))
    records = []
    labels = []
    for i in range(12):
        if i % 3 == 2:  # every third read is off-target junk
            codes = rng.integers(0, 4, size=800).astype(np.uint8)
            labels.append("junk")
        else:
            start = int(rng.choice(panel_starts)) + int(rng.integers(0, 60))
            codes = reference.fetch(start, start + 800)
            labels.append("on-target")
        signal = synthesize_signal(codes, pore, config, rng)
        records.append(SignalRecord(read_id=f"read-{i:02d}", signal=signal))

    # --- 1. persist the raw signals and account the volume.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.rsig"
        size = write_signals(path, records)
        total_bases = sum(r.signal.n_bases for r in records)
        restored = read_signals(path)
        print(
            f"raw-signal store: {len(restored)} reads, {size:,} bytes "
            f"({size / total_bases:.1f} B/base; movement model assumes "
            f"{DEFAULT_COSTS.raw_bytes_per_base:.1f} B/base)"
        )
        transfer = DEFAULT_COSTS.movement_time_s(size)
        print(f"modelled lab-to-cluster transfer of this batch: {transfer:.4f} s")

    # --- 2. signal-space pre-filtering, no basecalling involved.
    # Templates = expected signal of each target-panel region; the
    # pipeline's own signal-domain early rejection (SER) policy.
    policy = SignalRejectionPolicy.from_reference(
        pore, reference.codes, segment_starts=panel_starts, segment_bases=350, prefix_bases=150
    )
    print(f"\npre-filter: {policy.n_templates} expected-signal templates (target panel)")
    print(f"{'read':<10} {'truth':<10} {'cost':>7} {'decision':<8}")
    correct = 0
    for record, label in zip(records, labels, strict=True):
        decision = policy.decide(SignalRead.from_record(record))
        verdict = "reject" if decision.reject else "accept"
        expected = "accept" if label == "on-target" else "reject"
        correct += verdict == expected
        print(f"{record.read_id:<10} {label:<10} {decision.best_cost:>7.3f} {verdict:<8}")
    print(f"\nagreement with ground truth: {correct}/{len(records)}")
    print("(junk rejected here never costs a single basecalled chunk --")
    print(" one step earlier than GenPIP's QSR/CMR early rejection)")


if __name__ == "__main__":
    main()

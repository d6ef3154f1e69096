"""Quickstart: simulate a tiny nanopore run and push it through GenPIP.

This walks the whole public API surface once:

1. build a synthetic reference genome and index it;
2. simulate nanopore reads (with ground truth);
3. decode one chunk of *raw signal* with the Viterbi basecaller (the
   real signal-space engine);
4. build the system -- one ``GenPIPPipeline``, the chunk-based
   pipeline with early rejection -- run it over the dataset with its
   own ``run`` and print per-read outcomes;
5. shard the same run across worker processes (identical report);
6. rebuild the system from the registry and swap in the
   Viterbi backend by name -- same CP/ER control flow, real
   signal-space decoding;
7. stream the run end-to-end: reads from an on-disk container (or a
   lazy generator), outcomes to an incremental JSONL sink -- O(batch)
   parent memory, same report;
8. go signal-native: write a raw-signal container, then run it through
   the same pipeline starting from *stored raw current* -- no
   synthesis anywhere on the path, serial == parallel;
9. go fully raw: strip the container down to samples only (the real
   FAST5/SLOW5 shape), recover every read's chunk grid by event
   segmentation, and reject junk in *signal space* -- before a single
   chunk is basecalled (signal-domain early rejection);
10. peek at the vectorised kernel plane: wavefront sDTW bit-identical
    to its scalar reference, and the trellis ops the perf model charges;
11. serve: keep the pool warm and the index published across many
    concurrent client sessions, streaming per-read verdicts with
    latency percentiles -- the adaptive-sampling ("read until") shape;
12. look at the zero-copy plane every pooled run already uses: pack a
    batch into the one columnar layout the worker pool publishes,
    workers take read-only *views* instead of copies, and the copy
    ledger shows it -- same outcomes, zero worker-side bytes copied;
13. check the vectorised mapping plane (batched seeding, compiled or
    blocked chain DP, lane-fill Gotoh) against the scalar references the tests
    import, with the mapping-ops ledger counting the chain candidates
    and alignment cells the perf models charge;
14. observe: rerun with per-read stage tracing on (spans for every
    SER/QSR/CMR probe, chunk basecall, seed/chain/align call), export
    the span tree as Chrome ``trace_event`` JSON for chrome://tracing
    or Perfetto, and print the process metrics registry's Prometheus
    exposition -- outcomes stay byte-identical with tracing on.

Run with: ``python examples/quickstart.py``
"""

import numpy as np

from repro.basecalling import SurrogateBasecaller, ViterbiBasecaller, ViterbiConfig
from repro.core import GenPIPConfig, GenPIPPipeline
from repro.genomics.reference import ReferenceGenome
from repro.mapping import MinimizerIndex
from repro.nanopore import PoreModel, SignalConfig, synthesize_signal
from repro.nanopore.read_simulator import ReadSimulator, SimulatorConfig


def main() -> None:
    # 1. Reference genome + minimizer index (the offline indexing phase).
    reference = ReferenceGenome.random(length=150_000, seed=1, name="demo-genome")
    index = MinimizerIndex.build(reference)
    print(f"reference: {len(reference):,} bases, {len(index):,} indexed minimizers")

    # 2. Simulate a small sequencing run.
    simulator_config = SimulatorConfig(
        median_length=4_000,
        mean_length=4_200,
        min_length=1_000,
        max_length=12_000,
        low_quality_fraction=0.2,
        junk_fraction=0.1,
    )
    reads = ReadSimulator(reference, simulator_config, seed=2).sample_reads(30)
    print(f"simulated {len(reads)} reads "
          f"(mean length {np.mean([len(r) for r in reads]):,.0f} bases)")

    # 3. Decode one chunk of raw signal with the Viterbi basecaller.
    pore = PoreModel.synthetic(k=5)
    signal_config = SignalConfig(dwell_mean=5.0, noise_std=1.5)
    chunk_codes = reads[0].true_codes[:300]
    signal = synthesize_signal(chunk_codes, pore, signal_config, np.random.default_rng(3))
    viterbi = ViterbiBasecaller(pore, ViterbiConfig(extra_noise_std=1.5))
    called = viterbi.basecall(signal.samples)
    import difflib

    identity = difflib.SequenceMatcher(
        None, reads[0].true_bases[:300], called.bases, autojunk=False
    ).ratio()
    print(
        f"Viterbi chunk decode: {len(signal):,} samples -> {len(called.bases)} bases, "
        f"identity {identity:.3f}, mean quality {called.mean_quality:.1f}"
    )

    # 4. GenPIP: one object, the chunk pipeline + early rejection;
    #    process_read runs one read, run the whole dataset.
    from repro.nanopore.datasets import Dataset, DatasetProfile

    dataset = Dataset(
        profile=DatasetProfile(
            name="demo", full_read_count=len(reads), reference_length=len(reference),
            reference_seed=1, simulator=simulator_config,
        ),
        reference=reference,
        reads=reads,
    )
    genpip = GenPIPPipeline(index, GenPIPConfig(n_qs=2, n_cm=5), basecaller=SurrogateBasecaller())
    report = genpip.run(dataset)

    print("\nper-read outcomes:")
    for outcome in report.outcomes[:12]:
        mapping = ""
        if outcome.mapping is not None and outcome.mapping.mapped:
            mapping = (
                f" -> ref {outcome.mapping.ref_start:,}..{outcome.mapping.ref_end:,} "
                f"strand {outcome.mapping.strand:+d} identity {outcome.mapping.identity:.2f}"
            )
        print(
            f"  {outcome.read_id}: {outcome.status.value:<13} "
            f"basecalled {outcome.n_chunks_basecalled}/{outcome.n_chunks_total} chunks{mapping}"
        )
    print("  ...")
    print(
        f"\nsummary: {report.mapped_ratio:.0%} mapped, "
        f"QSR rejected {report.qsr_rejection_ratio:.0%}, "
        f"CMR rejected {report.cmr_rejection_ratio:.0%}, "
        f"basecalling work saved {report.basecall_savings:.0%}"
    )

    # 5. Dataset-scale runs: shard reads across worker processes.
    #    Reads are independent, so any worker count yields a report
    #    identical to the serial run (same outcomes, order, counters) --
    #    pass workers= to exploit every core on real datasets, or drive
    #    runs from scripts/CI with `python -m repro.runtime`.
    parallel_report = genpip.run(dataset, workers=2, batch_size=8)
    assert parallel_report.outcomes == report.outcomes
    print(f"\nparallel run (workers=2): identical report, "
          f"{parallel_report.n_reads} reads, {parallel_report.mapped_ratio:.0%} mapped")

    # 6. Pluggable engines: the pipeline is typed against structural
    #    protocols (repro.core.backends), and every backend in the
    #    registry -- "surrogate", "viterbi" -- runs the identical
    #    CP/ER control flow. Backends and presets are picked by name
    #    from the registry, so the same choice works here and in
    #    `python -m repro.runtime --basecaller viterbi`; worker
    #    processes receive the engine itself.
    from repro.basecalling import ViterbiBackendConfig
    from repro.core import basecaller_names, create_basecaller, preset_config, preset_names

    print(f"\nregistered backends: {', '.join(basecaller_names())}; "
          f"presets: {', '.join(preset_names())}")
    viterbi_system = GenPIPPipeline(
        index,
        preset_config("ecoli"),
        create_basecaller("viterbi", ViterbiBackendConfig(pore_k=3)),
        align=False,
    )
    shortest = sorted(reads, key=len)[:4]
    viterbi_report = viterbi_system.run(shortest, workers=2)
    print("Viterbi backend over the 4 shortest reads:")
    for outcome in viterbi_report.outcomes:
        print(
            f"  {outcome.read_id}: {outcome.status.value:<13} "
            f"basecalled {outcome.n_chunks_basecalled}/{outcome.n_chunks_total} chunks"
        )

    # 7. Streaming runs: at dataset scale the parent should hold neither
    #    the input reads nor the output outcomes. Reads stream from an
    #    on-disk container (or a lazy SimulatorSource) one record at a
    #    time, pooled payloads travel through shared memory, and
    #    outcomes stream into a JSONL file as the ordered prefix
    #    completes -- parent memory stays O(batch). The JSONL file
    #    replays losslessly into the exact in-memory report.
    import tempfile
    from pathlib import Path

    from repro.nanopore import write_read_store
    from repro.runtime import JSONLSink, StoreSource, replay_report

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "reads.gprd"
        outcomes_path = Path(tmp) / "outcomes.jsonl"
        store_bytes = write_read_store(store_path, reads)
        summary = genpip.run(
            StoreSource(store_path),
            workers=2,
            sink=JSONLSink(outcomes_path),
        )
        replayed = replay_report(outcomes_path, summary.config)
        assert replayed.outcomes == report.outcomes  # byte-for-byte replay
        print(
            f"\nstreaming run: {store_bytes:,} B container -> "
            f"{summary.n_reads} reads streamed -> "
            f"{outcomes_path.stat().st_size:,} B JSONL; "
            f"replayed report identical: {replayed.outcomes == report.outcomes}"
        )
        # A streaming sink's report is counters only: what needs the
        # per-read outcomes (mean identity) reads the replayed report.
        print(f"mean identity of the replayed report: {replayed.mean_identity():.3f}")

    # 8. Signal-native runs: the paper's pipeline starts from raw
    #    current, and so can this one. Persist the Viterbi system's
    #    synthesized signals into a raw-signal container once, then run
    #    the dataset *from stored current*: SignalStoreSource streams
    #    SignalReads, each unit's columnar image carries the float samples
    #    down a worker's pipe, and the signal-space backend decodes exactly what the
    #    container holds -- synthesis never runs. Any worker count
    #    yields the identical report, now guaranteed in signal space.
    from repro.nanopore import write_signals
    from repro.runtime import SignalStoreSource

    with tempfile.TemporaryDirectory() as tmp:
        signal_path = Path(tmp) / "signals.rsig"
        backend = viterbi_system.basecaller
        signal_bytes = write_signals(signal_path, backend.signal_records(shortest))
        signal_serial = viterbi_system.run(SignalStoreSource(signal_path))
        signal_parallel = viterbi_system.run(
            SignalStoreSource(signal_path), workers=2, batch_size=2
        )
        assert signal_parallel.outcomes == signal_serial.outcomes
        print(
            f"\nsignal-native run: {signal_bytes:,} B raw-signal container -> "
            f"{signal_serial.n_reads} reads decoded from stored current, "
            f"{signal_serial.mapped_ratio:.0%} mapped; "
            f"parallel identical: {signal_parallel.outcomes == signal_serial.outcomes}"
        )

    # 9. Signal-domain analysis: real FAST5/SLOW5 data is samples only
    #    (no base-start track), and the paper's ideal is to reject junk
    #    "even before [reads] go through basecalling" (Sec. 2.3). Both
    #    gaps close here: the container is written *without* grids and
    #    each read's chunk grid is recovered by event segmentation
    #    (jump detection over the current), while a SignalRejectionPolicy
    #    -- subsequence DTW of the raw prefix against expected-signal
    #    templates of the reads' reference regions -- stops junk with
    #    ZERO basecalled chunks (status: rejected_signal). Genomic reads
    #    whose regions the templates cover pass through to the normal
    #    CP/ER flow. The policy ships to workers as a pipeline field, so
    #    pooled runs stay identical to serial ones.
    from repro.nanopore import ReadClass, strip_base_starts
    from repro.signal import SegmentationConfig, SignalRejectionPolicy

    backend = viterbi_system.basecaller
    genomic = [r for r in shortest if r.read_class is not ReadClass.JUNK and r.strand > 0]
    junk = [r for r in reads if r.read_class is ReadClass.JUNK][:2]
    demo_reads = genomic + junk
    policy = SignalRejectionPolicy.from_reference(
        backend.pore_model,
        reference.codes,
        segment_starts=[r.ref_start for r in genomic],
        prefix_bases=100,
    )
    ser_system = GenPIPPipeline(index, preset_config("ecoli"), backend, align=False, ser_policy=policy)
    with tempfile.TemporaryDirectory() as tmp:
        raw_path = Path(tmp) / "raw.rsig"
        write_signals(raw_path, strip_base_starts(backend.signal_records(demo_reads)))
        source = SignalStoreSource(raw_path, segmentation=SegmentationConfig())
        ser_report = ser_system.run(source)
        print(
            f"\nsignal-domain run over a grid-less container "
            f"({ser_report.n_reads} reads, grids recovered by segmentation):"
        )
        for outcome in ser_report.outcomes:
            screened = (
                f" (sDTW cost {outcome.ser.best_cost:.3f} vs {outcome.ser.threshold})"
                if outcome.ser is not None
                else ""
            )
            print(
                f"  {outcome.read_id}: {outcome.status.value:<15} "
                f"basecalled {outcome.n_chunks_basecalled}/{outcome.n_chunks_total} "
                f"chunks{screened}"
            )
        print(
            f"  -> {ser_report.ser_rejection_ratio:.0%} rejected before basecalling, "
            f"basecalling work saved {ser_report.basecall_savings:.0%}"
        )

    # 10. The vectorised kernel plane (repro.kernels). Two hot loops
    #     -- sDTW's recurrence and the Viterbi trellis walk -- have
    #     vectorised kernels with scalar references the tests check
    #     them against:
    #     * sDTW runs as an anti-diagonal wavefront (one numpy op per
    #       diagonal) with bit-identical costs: sdtw_cost is what
    #       SignalRejectionPolicy calls;
    #     * the Viterbi trellis is folded: a state's four move
    #       predecessors are one column of the previous row, so one raw
    #       sample costs five whole-vector numpy calls.
    #     Each backend reports its native arithmetic via
    #     kernel_workload(), which repro.perf charges instead of the
    #     generic per-base price.
    import time

    from repro.basecalling import ViterbiBackendConfig, ViterbiChunkBasecaller
    from repro.kernels import sdtw_cost, sdtw_cost_scalar

    rng = np.random.default_rng(12)
    query, template = rng.normal(size=150), rng.normal(size=1_200)
    t0 = time.perf_counter()
    scalar_cost = sdtw_cost_scalar(query, template)
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    wavefront_cost = sdtw_cost(query, template)
    t_wave = time.perf_counter() - t0
    assert wavefront_cost == scalar_cost  # bit-identical, not just close
    print(
        f"\nsDTW kernels: scalar {t_scalar * 1e3:.1f} ms == wavefront "
        f"{t_wave * 1e3:.1f} ms (cost {wavefront_cost:.4f}, "
        f"x{t_scalar / max(t_wave, 1e-9):.1f} faster)"
    )
    trellis = ViterbiChunkBasecaller(ViterbiBackendConfig(pore_k=3)).kernel_workload(1_000)
    print(
        f"viterbi trellis for 1000 bases: {trellis.ops:,} state-ops -- "
        f"what the perf model charges the viterbi backend"
    )

    # 11. Serving: batch runs answer "process this dataset"; the serving
    #     layer (repro.serving) answers "keep the pipeline hot and
    #     verdict reads as they arrive" -- the adaptive-sampling shape,
    #     where a sequencer-side client streams raw reads and needs
    #     accept/eject decisions inside a latency budget. One warm
    #     dispatcher owns the worker pool and publishes the minimizer
    #     index into shared memory exactly once; an asyncio server
    #     multiplexes any number of concurrent sessions onto it over a
    #     newline-delimited-JSON loopback protocol, and every verdict
    #     streams back the moment its read resolves (no batch barrier).
    #     The merged, dataset-order verdict stream is byte-identical to
    #     the serial batch report -- the same records, served. From a
    #     shell: `python -m repro.serving serve ...` and
    #     `python -m repro.serving drive ...`.
    from repro.serving import merged_outcomes, serve_and_drive
    from repro.runtime import outcome_to_record

    results, stats = serve_and_drive(genpip, reads, sessions=2, workers=2)
    served = merged_outcomes(results)
    assert served == [outcome_to_record(o) for o in report.outcomes]
    print(
        f"\nserving run: {stats.sessions} concurrent sessions -> "
        f"{stats.verdicts} verdicts ({stats.mode} x{stats.workers}, "
        f"index published {stats.index_publications}x), "
        f"latency p50 {stats.p50_ms:.1f} ms / p95 {stats.p95_ms:.1f} ms / "
        f"p99 {stats.p99_ms:.1f} ms, {stats.verdicts_per_sec:.0f} verdicts/s; "
        f"byte-identical to the batch report: {served == [outcome_to_record(o) for o in report.outcomes]}"
    )

    # 12. The zero-copy columnar data plane: the worker pool writes
    #     each work unit as one columnar batch (per-batch contiguous
    #     quality/code/sample buffers plus per-read offset handles);
    #     repro.runtime.columnar makes that layout a first-class
    #     representation. Pack once, then *view* everywhere: each unit
    #     goes down its worker's pipe as that one image, and the worker
    #     rebuilds its reads as read-only views into the bytes it
    #     received (the views keep them alive), so the per-read
    #     copy figure is zero -- measured by the genpip_copied_bytes
    #     counter every copy site charges (repro.obs.metrics.record_copy),
    #     no monkeypatching. There is nothing to switch on: the
    #     zero-copy run is simply the pooled run.
    from repro.runtime import ColumnarBatch, DatasetEngine, NullSink

    batch, layout = ColumnarBatch.from_reads(reads[:8])
    window = batch.quality(0)
    print(
        f"\ncolumnar batch: {len(batch)} reads packed into "
        f"{layout.total_bytes:,} contiguous bytes; per-read access is a "
        f"read-only view (writeable={window.flags.writeable})"
    )
    engine = DatasetEngine(genpip, workers=2, batch_size=8, sink=NullSink())
    view_report = engine.run(reads)
    stats = engine.last_stats
    assert view_report.counters == report.counters
    print(
        f"pooled run: {stats.mode} x{stats.workers}, index {stats.transport} "
        f"-> {stats.bytes_copied_per_read:.0f} B "
        f"copied/read worker-side ({stats.bytes_published:,} B published "
        f"parent-side); counters identical to the serial report"
    )

    # 13. The mapping kernel plane: production calls one kernel per
    #     stage -- seeding (the compiled seed.c, or its numpy path
    #     where it cannot be built), the chain DP (the compiled chain.c,
    #     or its scalar reference), lane-fill Gotoh -- and each is
    #     bit-identical to a scalar reference that tests (and this
    #     section) import and call directly: same anchors, same chain
    #     scores *and parents*, same alignment scores and CIGARs.
    #     Nothing selects a kernel by name. As the kernels run they
    #     charge the process registry's genpip_mapping_ops counter
    #     (chain candidates, alignment cells), the data-dependent
    #     counts repro.perf converts to seconds through CostDatabase's
    #     per-base anchors.
    from itertools import groupby

    from repro.kernels import (
        chain_scores,
        chain_scores_scalar,
        gotoh_scalar,
        process_mapping_ops,
    )
    from repro.kernels.native import backend
    from repro.mapping import ChainingConfig, Mapper, align_global
    from repro.mapping.seeding import collect_anchor_arrays

    ledger = process_mapping_ops()
    before = ledger.by_key()
    mapped = Mapper(index).map_read(reads[0].true_bases, "demo")
    delta = {
        kind: ops - before.get(kind, 0) for kind, ops in ledger.by_key().items()
    }
    demo_codes = reads[0].true_codes
    anchors = collect_anchor_arrays(index, demo_codes, read_length=demo_codes.size)[
        mapped.strand
    ]
    chaining = ChainingConfig()
    chain_args = (anchors, index.config.k, chaining.max_gap, chaining.lookback)
    t0 = time.perf_counter()
    ref_scores, ref_parents = chain_scores_scalar(*chain_args)
    t_scalar = time.perf_counter() - t0
    t0 = time.perf_counter()
    scores, parents = chain_scores(*chain_args)
    t_chain = time.perf_counter() - t0
    assert np.array_equal(scores, ref_scores) and np.array_equal(parents, ref_parents)
    segment = demo_codes[:60]
    scoring = (2.0, -4.0, -4.0, -2.0)
    # 3 600 cells: align_global fills this one as a one-lane fill (the
    # compiled gotoh.c, or gotoh_scalar where it cannot be built;
    # align_chain fills all of a chain's segments and both end
    # extensions in one call), and returns the scalar loop's score and
    # CIGAR (its raw 'M' runs split into '=' / 'X').
    ref_score, ref_cigar = gotoh_scalar(segment, segment[::-1], *scoring)
    aligned = align_global(segment, segment[::-1])
    runs = groupby(aligned.cigar, key=lambda run: "M" if run[0] in "=X" else run[0])
    assert aligned.score == ref_score
    assert tuple((op, sum(n for _, n in group)) for op, group in runs) == ref_cigar
    print(
        f"\nmapping kernel plane: read mapped at identity {mapped.identity:.3f} "
        f"({delta.get('chain-candidate', 0):,} chain candidates, "
        f"{delta.get('align-cell', 0):,} alignment cells charged); "
        f"chain DP over its {anchors.shape[0]:,} anchors: scalar reference "
        f"{t_scalar * 1e3:.1f} ms == {backend('chain')} {t_chain * 1e3:.1f} ms, bit for bit"
    )

    # 14. The observability plane: the same run with span tracing on.
    #     DatasetEngine(trace=True) enables the process-local tracer in
    #     the parent and every worker; each read's SER/QSR/CMR probes,
    #     chunk basecalls and seed/chain/align calls become spans in a
    #     per-read tree, shipped home on ShardResult and merged in
    #     dataset order. Tracing is a side channel: the report is
    #     byte-identical to the untraced run (benchmarks/perf reports
    #     the overhead as obs.trace_overhead_ratio).
    #     chrome_trace_document() renders the run for
    #     chrome://tracing / Perfetto (the runtime CLI's --trace PATH
    #     writes the same document), and the metrics registry exposes
    #     every process-wide counter as Prometheus text.
    import json

    from repro.obs import chrome_trace_document, process_registry, prometheus_text
    from repro.obs.metrics import worker_metrics_snapshot

    traced_engine = DatasetEngine(
        genpip, workers=2, batch_size=8, sink=NullSink(), trace=True
    )
    traced_report = traced_engine.run(reads)
    assert traced_report.counters == report.counters  # tracing never leaks in
    traces = traced_engine.last_trace
    read_traces = [t for t in traces if t.kind == "read"]
    document = chrome_trace_document(traces)
    deepest = max(read_traces, key=lambda t: t.n_spans)
    print(
        f"\ntraced run: {len(read_traces)} read span trees "
        f"({sum(t.n_spans for t in traces):,} spans, "
        f"{len(document['traceEvents']):,} Chrome trace events); deepest "
        f"read {deepest.label} has {deepest.n_spans} spans: "
        f"{', '.join(sorted(set(deepest.names()) - {'read'}))}"
    )
    exposition = prometheus_text(process_registry().snapshot())
    print("process metrics exposition (first lines):")
    for line in exposition.splitlines()[:4]:
        print(f"  {line}")
    assert json.dumps(document)  # the document is plain JSON
    assert worker_metrics_snapshot()  # both process counters are in it


if __name__ == "__main__":
    main()

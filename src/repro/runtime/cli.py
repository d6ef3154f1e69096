"""``python -m repro.runtime``: scriptable dataset-scale GenPIP runs.

Builds the index, executes the pipeline through the streaming
:class:`~repro.runtime.engine.DatasetEngine`, and writes a
deterministic JSON report. Reads come from a selectable **source**
(``--source``): a materialised in-memory dataset, a lazy simulator
generator, an on-disk read container streamed incrementally, or an
on-disk **raw-signal** container decoded signal-natively by a
signal-space basecaller (``--store``; containers are written on first
use). Outcomes go to a selectable **sink** (``--sink``): the in-memory
report, or an incremental JSONL file (``--outcomes``) that keeps parent
memory at O(batch).

The JSON report intentionally contains no timing, worker, or streaming
information -- a serial in-memory run and an ``N``-worker
generator-source JSONL-sink run of the same dataset must serialize to
byte-identical files, which is exactly what the CI smoke jobs diff
(with a streaming sink the report is replayed losslessly from the
outcome file).

The dataset and pipeline flags are declared here once for every front
end (:func:`add_dataset_args`, :func:`add_pipeline_args`), range-checked
once (:func:`check_args`) and turned into a profile and a pipeline once
(:func:`profile_from_args`, :func:`pipeline_from_args`). ``python -m
repro.serving`` calls the same five, which is what keeps its verdicts
byte-identical to a batch run given the same flags.

Examples
--------
Serial run, report to stdout::

    python -m repro.runtime --profile ecoli-like --scale 0.001 --json -

Two workers, streaming JSONL sink::

    python -m repro.runtime --profile ecoli-like --scale 0.001 \\
        --workers 2 --sink jsonl --outcomes out.jsonl

Per-read stage tracing (Chrome ``trace_event`` JSON for Perfetto plus a
flat span JSONL; the report stays byte-identical to an untraced run)::

    python -m repro.runtime --profile ecoli-like --scale 0.001 \\
        --workers 2 --trace run.trace.json

Stream from an on-disk read container (written on first use)::

    python -m repro.runtime --source store --store reads.gprd --workers 2

Signal-native run: decode stored raw current end to end (the container
is synthesized and written on first use; keep signal-space backends to
tiny scales -- they decode real signal)::

    python -m repro.runtime --source signals --store signals.rsig \\
        --basecaller viterbi --scale 0.0002 --max-read-length 1500

Fully raw signal: the container is written *without* base-start tracks
(the real FAST5/SLOW5 shape), every read's chunk grid is recovered by
event segmentation, and junk is rejected in signal space before any
basecalling::

    python -m repro.runtime --source signals --store raw.rsig \\
        --basecaller viterbi --scale 0.0002 --max-read-length 1500 \\
        --segmentation --signal-er

Any built-in basecaller backend and pipeline preset plugs in::

    python -m repro.runtime --basecaller viterbi --preset ecoli \\
        --scale 0.0002 --max-read-length 1500
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.core.config import VARIANTS, variant_config
from repro.core.genpip import GenPIPReport
from repro.core.pipeline import GenPIPPipeline, ReadOutcome
from repro.core.registry import basecaller_names, create_basecaller, preset_config, preset_names
from repro.genomics.reference import ReferenceGenome
from repro.kernels.align import gotoh_backend
from repro.kernels.chain import chain_backend
from repro.kernels.seed import seed_backend
from repro.kernels.viterbi import trellis_backend
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import (
    PRESETS,
    DatasetProfile,
    generate_dataset,
    iter_dataset_reads,
    profile_reference,
    small_profile,
)
from repro.nanopore.signal_store import (
    strip_base_starts,
    write_read_store,
    write_signals,
)
from repro.obs.export import chrome_trace_document, span_jsonl
from repro.runtime.engine import DatasetEngine
from repro.runtime.sink import JSONLSink, NullSink, outcome_to_record, replay_report
from repro.runtime.source import SignalStoreSource, SimulatorSource, StoreSource
from repro.signal import SegmentationConfig, SignalRejectionPolicy

SOURCES = ("memory", "generator", "store", "signals")
SINKS = ("memory", "jsonl", "null")


def add_dataset_args(parser: argparse.ArgumentParser, *, sized: bool = True) -> None:
    """Declare the flags :func:`profile_from_args` reads, plus the
    dataset's size: ``sized=False`` leaves out ``--scale``/``--seed`` for
    a command that needs the reference but generates no reads."""
    data = parser.add_argument_group("dataset")
    data.add_argument(
        "--profile", choices=sorted(PRESETS), default="ecoli-like",
        help="dataset preset (Table 1 recipe)",
    )
    if sized:
        data.add_argument(
            "--scale", type=float, default=0.001,
            help="fraction of the real dataset's read count to generate",
        )
        data.add_argument("--seed", type=int, default=42, help="simulation seed")
    data.add_argument(
        "--max-read-length", type=int, default=None, metavar="BASES",
        help="cap read lengths via the small-profile transform (fast smoke runs)",
    )


def add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    """Declare the flags :func:`pipeline_from_args` reads, plus ``--workers``."""
    pipe = parser.add_argument_group("pipeline")
    pipe.add_argument(
        "--basecaller", choices=basecaller_names(), default="surrogate",
        help="basecaller backend from the registry",
    )
    pipe.add_argument(
        "--preset", choices=preset_names(), default=None, metavar="NAME",
        help="pipeline preset (e.g. ecoli, human); default: the profile's Sec. 6.3 parameters",
    )
    pipe.add_argument(
        "--variant", choices=VARIANTS, default="full_er",
        help="early-rejection variant of the evaluation",
    )
    pipe.add_argument("--chunk-size", type=int, default=300, help="bases per chunk")
    pipe.add_argument(
        "--align", action="store_true",
        help="run base-level alignment (slower; off by default like the sweeps)",
    )
    pipe.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes (default: 1, serial in-process)",
    )
    signal = parser.add_argument_group("signal-domain early rejection (raw-current reads only)")
    signal.add_argument(
        "--signal-er", action="store_true",
        help="screen each read's raw-current prefix against reference "
        "templates (subsequence DTW, built once at start) and reject junk "
        "before any basecalling; requires a basecaller with a pore model",
    )
    signal.add_argument(
        "--signal-er-threshold", type=float, default=0.17, metavar="COST",
        help="sDTW accept threshold (per-sample cost) of the SER screen",
    )
    signal.add_argument(
        "--signal-er-templates", type=int, default=6, metavar="N",
        help="reference segments sampled evenly as SER templates (a sparse "
        "screen: acceptances are reliable, rejections include genomic reads "
        "the templates do not cover)",
    )


#: ``(dest, in_range, requirement)`` of every flag here with a fixed range.
_RANGE_CHECKS = (
    ("scale", lambda value: value > 0, "must be positive"),
    ("workers", lambda value: value >= 0, "must be non-negative"),
    ("chunk_size", lambda value: value >= 50, "must be at least 50 bases"),
    ("signal_er_threshold", lambda value: value > 0, "must be positive"),
    ("signal_er_templates", lambda value: value >= 1, "must be at least 1"),
    ("batch_size", lambda value: value >= 1, "must be at least 1"),
)


def check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject out-of-range values of the flags declared here (exit status 2).

    A flag the command did not declare, or left at a ``None`` default,
    is skipped. ``--max-read-length`` has no fixed range (its floor is
    the profile's minimum read length), so it is checked by deriving the
    profile.
    """
    for dest, in_range, requirement in _RANGE_CHECKS:
        value = getattr(args, dest, None)
        if value is not None and not in_range(value):
            parser.error(f"--{dest.replace('_', '-')} {requirement}")
    try:
        profile_from_args(args)
    except ValueError as exc:
        parser.error(
            f"--max-read-length {args.max_read_length} is too small for "
            f"--profile {args.profile} ({exc})"
        )


def profile_from_args(args: argparse.Namespace) -> DatasetProfile:
    """The dataset profile ``--profile`` / ``--max-read-length`` name."""
    profile = PRESETS[args.profile]
    if args.max_read_length is not None:
        profile = small_profile(profile, max_read_length=args.max_read_length)
    return profile


def pipeline_from_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace, reference: ReferenceGenome
) -> GenPIPPipeline:
    """The pipeline the :func:`add_pipeline_args` flags describe over ``reference``."""
    # Constructed up front so the SER policy can be derived from its
    # pore model.
    basecaller = create_basecaller(args.basecaller)
    ser_policy = None
    if args.signal_er:
        pore_model = getattr(basecaller, "pore_model", None)
        if pore_model is None:
            parser.error(
                f"--signal-er needs a basecaller with a pore model to build "
                f"expected-signal templates; backend {args.basecaller!r} has none"
            )
        # Deterministic in (reference, pore model, flags): serial, pooled
        # and served runs rebuild byte-identical template sets.
        ser_policy = SignalRejectionPolicy.from_reference(
            pore_model,
            reference.codes,
            n_templates=args.signal_er_templates,
            threshold=args.signal_er_threshold,
        )
    # The registry's profile-name aliases carry each dataset's Sec. 6.3
    # parameters, so the profile default and --preset share one source.
    config = preset_config(args.preset or args.profile).with_chunk_size(args.chunk_size)
    return GenPIPPipeline(
        MinimizerIndex.build(reference),
        variant_config(config, args.variant),
        basecaller,
        align=args.align,
        ser_policy=ser_policy,
    )


def write_output(path: str | None, payload: str) -> None:
    """Write an output flag's ``payload`` to ``path`` (``-`` is stdout;
    an unset flag is a no-op); an ``OSError`` ends the command with
    ``error: cannot write PATH: ...`` on stderr and exit status 1. Called
    with ``""`` before the run, it claims the path, so that a mistyped
    one costs no run."""
    if path == "-":
        sys.stdout.write(payload)
    elif path is not None:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Run the GenPIP pipeline over a generated dataset preset.",
    )
    add_dataset_args(parser)
    source = parser.add_argument_group("source")
    source.add_argument(
        "--source", choices=SOURCES, default="memory",
        help="where reads come from: materialised dataset, lazy simulator "
        "generator, an on-disk read container streamed incrementally, or an "
        "on-disk raw-signal container decoded signal-natively (requires a "
        "signal-space --basecaller)",
    )
    source.add_argument(
        "--store", default=None, metavar="PATH",
        help="container path for --source store/signals (generated and "
        "written on first use if missing)",
    )
    source.add_argument(
        "--segmentation", action="store_true",
        help="write the raw-signal container without base-start tracks "
        "(FAST5/SLOW5-shaped: samples only) and recover every read's chunk "
        "grid by event segmentation (requires --source signals, as does "
        "--signal-er here)",
    )
    add_pipeline_args(parser)
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="READS",
        help="reads per work unit (default: auto)",
    )
    out = parser.add_argument_group("output")
    out.add_argument(
        "--sink", choices=SINKS, default="memory",
        help="outcome sink: in-memory report, incremental JSONL, or null "
        "(count and discard, for throughput measurement). jsonl keeps "
        "O(batch) parent memory and requires --outcomes",
    )
    out.add_argument(
        "--outcomes", default=None, metavar="PATH",
        help="file the jsonl sink streams outcomes to",
    )
    out.add_argument(
        "--json", dest="json_path", default=None, metavar="PATH",
        help="write the JSON report to PATH ('-' for stdout); with a "
        "streaming sink the report is replayed losslessly from --outcomes",
    )
    out.add_argument(
        "--trace", dest="trace_path", default=None, metavar="PATH",
        help="record per-read stage spans and write a Chrome trace_event "
        "JSON to PATH (load it in Perfetto / chrome://tracing) plus a flat "
        "span log to PATH.spans.jsonl; the report stays byte-identical to "
        "an untraced run",
    )
    out.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    return parser


def _read_record(outcome: ReadOutcome) -> dict:
    """A read's report record: :func:`outcome_to_record` without the QSR
    and CMR decisions, the mapping's read id and its alignment, plus the
    mapping's identity. One function names an outcome's fields."""
    record = outcome_to_record(outcome)
    del record["qsr"], record["cmr"]
    if outcome.mapping is not None:
        mapping = record["mapping"]
        del mapping["read_id"], mapping["alignment"]
        mapping["identity"] = outcome.mapping.identity
    return record


def report_to_json(report: GenPIPReport, run_args: dict) -> str:
    """Serialize a report deterministically (sorted keys, no timing).

    Signal-domain keys (the summary's ``ser_rejection_ratio``, each
    read's ``ser`` record) appear only in runs that enabled SER, so
    SER-less reports stay byte-identical to earlier releases.
    """
    counters = report.counters
    document = {
        "run": run_args,
        "summary": {
            "n_reads": report.n_reads,
            "total_bases": report.total_bases,
            "total_chunks": report.total_chunks,
            "chunks_basecalled": report.chunks_basecalled,
            "bases_basecalled": report.bases_basecalled,
            "chunks_seeded": report.chunks_seeded,
            "reads_aligned": report.reads_aligned,
            "basecall_savings": report.basecall_savings,
            "mapped_ratio": report.mapped_ratio,
            "qsr_rejection_ratio": report.qsr_rejection_ratio,
            "cmr_rejection_ratio": report.cmr_rejection_ratio,
            "mean_identity": report.mean_identity(),
            "status_counts": {
                status.value: count for status, count in counters.status_counts.items()
            },
        },
        "reads": [_read_record(outcome) for outcome in report.outcomes],
    }
    if run_args.get("signal_er"):
        document["summary"]["ser_rejection_ratio"] = report.ser_rejection_ratio
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _ensure_container(parser, store_path: Path, provenance: dict, kind: str, write) -> None:
    """Write a container on first use, guarded by a provenance sidecar.

    The container itself stores reads/signals, not the flags that
    generated them (or the reference they map against), so reusing one
    under different dataset flags would silently mix records with the
    wrong reference/index and mislabel the report's run block. Refuse
    mismatches instead. The unknown-provenance note names every flag
    the sidecar would have checked, so a signal container warns about
    ``--basecaller`` too (stored current is backend-specific).
    """
    flags = ", ".join(f"--{key.replace('_', '-')}" for key in provenance)
    meta_path = store_path.with_name(store_path.name + ".meta.json")
    if store_path.exists():
        if meta_path.exists():
            recorded = json.loads(meta_path.read_text(encoding="utf-8"))
            if recorded != provenance:
                parser.error(
                    f"{kind} container {store_path} was generated with {recorded}, "
                    f"but this run requests {provenance}; rerun with matching "
                    "flags or delete the container to regenerate it"
                )
        else:
            print(
                f"note: reusing {kind} container {store_path} of unknown "
                f"provenance -- its records must match this run's {flags} "
                "(reference/index are built from the flags, not the file)",
                file=sys.stderr,
            )
        return
    # Sidecar first: an interrupt between the two writes then leaves
    # sidecar-without-container, and the next run simply regenerates
    # both -- never a container whose provenance check silently
    # degrades to a note.
    meta_path.write_text(json.dumps(provenance, sort_keys=True) + "\n", encoding="utf-8")
    write()


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    check_args(parser, args)
    if args.source in ("store", "signals") and not args.store:
        parser.error(f"--source {args.source} requires --store PATH")
    if args.store and args.source not in ("store", "signals"):
        parser.error("--store only makes sense with --source store or signals")
    if args.sink == "jsonl" and not args.outcomes:
        parser.error("--sink jsonl requires --outcomes PATH")
    if args.outcomes and args.sink != "jsonl":
        parser.error("--outcomes only makes sense with --sink jsonl")
    if args.sink == "null" and args.json_path:
        parser.error("--sink null discards outcomes; it cannot produce a --json report")
    if args.source != "signals":
        if args.signal_er:
            parser.error("--signal-er only applies to --source signals runs")
        if args.segmentation:
            parser.error("--segmentation only applies to --source signals runs")

    # Claim every output path and construct the sink before any expensive
    # setup (index build, container synthesis): a mistyped path must
    # fail fast, not after minutes of dataset generation.
    spans_path = args.trace_path and args.trace_path + ".spans.jsonl"
    for path in (args.outcomes, args.json_path, args.trace_path, spans_path):
        write_output(path, "")
    if args.sink == "jsonl":
        sink = JSONLSink(args.outcomes)
    else:
        sink = NullSink() if args.sink == "null" else None

    profile = profile_from_args(args)
    # The reference is deterministic in the profile, so every source
    # sees the exact dataset generate_dataset would materialise.
    reference = profile_reference(profile)
    pipeline = pipeline_from_args(parser, args, reference)
    basecaller = pipeline.basecaller

    generated = {"scale": args.scale, "seed": args.seed, "reference": reference}
    # What a container's records depend on (checked by its sidecar).
    provenance = {
        "profile": args.profile,
        "scale": args.scale,
        "seed": args.seed,
        "max_read_length": args.max_read_length,
    }
    if args.source == "memory":
        data = generate_dataset(profile, **generated)
    elif args.source == "generator":
        data = SimulatorSource(profile, **generated)
    elif args.source == "store":
        store_path = Path(args.store)
        _ensure_container(
            parser,
            store_path,
            provenance,
            "read",
            lambda: write_read_store(store_path, iter_dataset_reads(profile, **generated)),
        )
        data = StoreSource(store_path)
    else:  # signals
        if not getattr(basecaller, "accepts_signal_reads", False):
            parser.error(
                f"--source signals requires a signal-space basecaller "
                f"(e.g. viterbi), not {args.basecaller!r}"
            )
        store_path = Path(args.store)
        # accepts_signal_reads is the protocol capability; signal_records
        # (container synthesis) is not, so a third-party signal-native
        # backend can decode an existing container but cannot write one.
        if not store_path.exists() and not hasattr(basecaller, "signal_records"):
            parser.error(
                f"--source signals needs an existing container at {store_path}: "
                f"backend {args.basecaller!r} decodes signal natively but does "
                "not synthesize containers (no signal_records()); provide a "
                "container written by a synthesis-capable backend"
            )
        # The synthesized current depends on the backend's pore model
        # and signal parameters, so the backend is part of a signal
        # container's provenance.
        provenance["basecaller"] = args.basecaller
        if args.segmentation:
            # A segmentation container holds *only* samples (the real
            # FAST5/SLOW5 shape) -- structurally different data, so it
            # is part of the provenance. The key is added only here so
            # pre-existing grid-carrying containers keep matching.
            provenance["segmentation"] = True

        def _write_signal_container() -> None:
            records = basecaller.signal_records(iter_dataset_reads(profile, **generated))
            if args.segmentation:
                records = strip_base_starts(records)
            write_signals(store_path, records)

        _ensure_container(
            parser, store_path, provenance, "raw-signal", _write_signal_container
        )
        data = SignalStoreSource(
            store_path,
            segmentation=SegmentationConfig() if args.segmentation else None,
        )

    engine = DatasetEngine(
        pipeline,
        workers=args.workers,
        batch_size=args.batch_size,
        sink=sink,
        trace=args.trace_path is not None,
    )
    report = engine.run(data)
    if args.trace_path:
        traces = engine.last_trace or []
        write_output(args.trace_path, json.dumps(chrome_trace_document(traces)) + "\n")
        write_output(spans_path, span_jsonl(traces))
        if not args.quiet:
            n_reads = sum(1 for trace in traces if trace.kind == "read")
            print(
                f"trace: {len(traces)} traces ({n_reads} reads) -> "
                f"{args.trace_path} (+ .spans.jsonl)",
                file=sys.stderr,
            )
    if args.json_path and args.sink == "jsonl":
        # The run kept O(batch) outcomes in memory; the per-read records
        # are replayed losslessly from disk only because the full JSON
        # report needs them (the stderr summary is counters-only).
        report = replay_report(args.outcomes, report.config)

    # The run block records only result-determining parameters, so the
    # smoke diff across worker counts / sources / sinks stays
    # byte-identical.
    run_args = {
        "profile": profile.name,
        "scale": args.scale,
        "seed": args.seed,
        "max_read_length": args.max_read_length,
        "basecaller": args.basecaller,
        "preset": args.preset,
        "variant": args.variant,
        "chunk_size": args.chunk_size,
        "align": args.align,
    }
    if args.source == "signals":
        # Signal-native decoding IS result-determining (quantised stored
        # current, modelled-position chunk grid), unlike the read-based
        # sources, which all yield the identical dataset. The key is
        # added only here so read-based reports stay byte-identical to
        # earlier releases -- and the same goes for the segmentation
        # and SER keys (both result-determining: the recovered grid and
        # the template set shape every downstream number).
        run_args["signal_native"] = True
        if args.segmentation:
            run_args["segmentation"] = True
        if args.signal_er:
            run_args["signal_er"] = {
                "templates": args.signal_er_templates,
                "threshold": args.signal_er_threshold,
            }
    if args.json_path:
        write_output(args.json_path, report_to_json(report, run_args))

    if not args.quiet:
        stats = engine.last_stats
        # Gate on the window, not the mode: a run whose pool broke ends
        # in-process but had a pooled phase worth knowing about.
        window = f", window {stats.inflight_window}" if stats.inflight_window > 0 else ""
        # Signal-domain rejects are reported separately from QSR/CMR:
        # they cost zero basecalled chunks, which is the whole point.
        ser_summary = f"SER {report.ser_rejection_ratio:.1%}, " if stats.signal_er else ""
        # Which seeding seeded, which chain DP chained, which trellis
        # decoded and which Gotoh fill aligned (this process resolves
        # each the way every worker did); a surrogate run never loads
        # the trellis, a run without --align never the fill.
        trellis = f", trellis {trellis_backend()}" if args.basecaller == "viterbi" else ""
        gotoh = f", gotoh {gotoh_backend()}" if args.align else ""
        print(
            f"{profile.name}: {report.n_reads} reads, {report.total_bases:,} bases | "
            f"mapped {report.mapped_ratio:.1%}, {ser_summary}"
            f"QSR {report.qsr_rejection_ratio:.1%}, "
            f"CMR {report.cmr_rejection_ratio:.1%}, "
            f"basecall savings {report.basecall_savings:.1%} | "
            f"{stats.mode} x{stats.workers} "
            f"(batch {stats.batch_size}, "
            f"source {args.source}, sink {args.sink}, transport {stats.transport}"
            f"{window}, seed {seed_backend()}, chain {chain_backend()}{trellis}{gotoh}): "
            f"{stats.elapsed_s:.2f}s, {stats.reads_per_sec:.1f} reads/s"
            + (
                f", {stats.bytes_copied_per_read:,.0f} B copied/read"
                if stats.transport != "none"
                else ""
            ),
            file=sys.stderr,
        )
    return 0

"""``python -m repro.serving``: the adaptive-sampling serving endpoint.

Two subcommands bracket the loopback story:

``serve``
    Build the pipeline for a dataset profile, warm the worker pool and
    publish the shared-memory minimizer index **once**, then accept
    sessions on a loopback socket until interrupted. ``--port-file``
    makes the bound port discoverable (written as JSON after the server
    is listening), which is how scripted drivers and CI wait for
    readiness instead of polling.

``drive``
    The bundled loopback client: generate the same deterministic
    dataset the batch CLI would, partition it round-robin across ``N``
    concurrent sessions, stream every read, and reassemble the verdict
    streams into dataset order. ``--outcomes`` writes the merged
    records as JSONL **byte-identical** to a serial batch run's
    ``--sink jsonl`` file over the same dataset -- the serving layer's
    standing equivalence invariant, and exactly what the CI smoke lane
    diffs. ``--summary`` captures the final session's summary frame
    (per-session totals + latency percentiles + server-wide stats).

Examples
--------
Terminal 1 -- serve the ecoli-like profile with two warm workers::

    python -m repro.serving serve --profile ecoli-like \\
        --max-read-length 2500 --workers 2 --port-file /tmp/genpip.port

Terminal 2 -- three concurrent sessions over a tiny dataset::

    python -m repro.serving drive --profile ecoli-like --scale 0.0004 \\
        --max-read-length 2500 --sessions 3 \\
        --port-file /tmp/genpip.port --outcomes served.jsonl --summary -
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.core.config import VARIANTS, variant_config
from repro.core.genpip import GenPIP
from repro.core.registry import (
    basecaller_names,
    create_basecaller,
    preset_config,
    preset_names,
)
from repro.mapping.index import MinimizerIndex
from repro.nanopore.datasets import (
    PRESETS,
    generate_dataset,
    profile_reference,
    small_profile,
)
from repro.serving.client import drive_sessions, merged_outcomes, partition_reads
from repro.serving.dispatch import PoolDispatcher
from repro.serving.server import ServingServer
from repro.signal import SignalRejectionPolicy


def _add_profile_args(parser: argparse.ArgumentParser, *, with_scale: bool) -> None:
    data = parser.add_argument_group("dataset")
    data.add_argument(
        "--profile", choices=sorted(PRESETS), default="ecoli-like",
        help="dataset preset (Table 1 recipe)",
    )
    if with_scale:
        data.add_argument(
            "--scale", type=float, default=0.001,
            help="fraction of the real dataset's read count to generate",
        )
        data.add_argument("--seed", type=int, default=42, help="simulation seed")
    data.add_argument(
        "--max-read-length", type=int, default=None, metavar="BASES",
        help="cap read lengths via the small-profile transform (fast smoke runs)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Long-lived GenPIP serving: warm pool, streaming verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the serving endpoint")
    _add_profile_args(serve, with_scale=False)
    pipe = serve.add_argument_group("pipeline")
    pipe.add_argument(
        "--basecaller", choices=basecaller_names(), default="surrogate",
        help="basecaller backend from the registry",
    )
    pipe.add_argument(
        "--preset", choices=preset_names(), default=None, metavar="NAME",
        help="pipeline preset; default: the profile's Sec. 6.3 parameters",
    )
    pipe.add_argument(
        "--variant", choices=VARIANTS, default="full_er",
        help="early-rejection variant of the evaluation",
    )
    pipe.add_argument("--chunk-size", type=int, default=300, help="bases per chunk")
    pipe.add_argument(
        "--align", action="store_true",
        help="run base-level alignment (slower; off by default)",
    )
    pipe.add_argument(
        "--signal-er", action="store_true",
        help="signal-domain early rejection: build reference sDTW templates "
        "once at start and screen raw-current reads before basecalling "
        "(requires a basecaller with a pore model)",
    )
    pipe.add_argument(
        "--signal-er-threshold", type=float, default=0.17, metavar="COST",
        help="sDTW accept threshold (per-sample cost) of the SER screen",
    )
    pipe.add_argument(
        "--signal-er-templates", type=int, default=6, metavar="N",
        help="reference segments sampled evenly as SER templates",
    )
    run = serve.add_argument_group("runtime")
    run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: GENPIP_WORKERS env or serial)",
    )
    net = serve.add_argument_group("endpoint")
    net.add_argument("--host", default="127.0.0.1", help="bind address (loopback)")
    net.add_argument(
        "--port", type=int, default=0, help="bind port (default: OS-assigned)"
    )
    net.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write {host, port} as JSON once listening (readiness signal)",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress stderr chatter")

    drive = sub.add_parser("drive", help="drive concurrent loopback sessions")
    _add_profile_args(drive, with_scale=True)
    conn = drive.add_argument_group("connection")
    conn.add_argument("--host", default="127.0.0.1", help="server address")
    conn.add_argument("--port", type=int, default=None, help="server port")
    conn.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="read {host, port} from the server's --port-file (waits for it)",
    )
    conn.add_argument(
        "--wait", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait for --port-file to appear",
    )
    load = drive.add_argument_group("load")
    load.add_argument(
        "--sessions", type=int, default=2, metavar="N",
        help="concurrent client sessions the dataset is partitioned across",
    )
    out = drive.add_argument_group("output")
    out.add_argument(
        "--outcomes", default=None, metavar="PATH",
        help="write merged outcome records (dataset order) as JSONL -- "
        "byte-identical to a serial batch --sink jsonl file",
    )
    out.add_argument(
        "--summary", default=None, metavar="PATH",
        help="write the last summary frame as JSON ('-' for stdout)",
    )
    out.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="request the server's live telemetry (protocol 'stats' frame) "
        "after the verdict stream and write its Prometheus text exposition "
        "to PATH ('-' for stdout)",
    )
    drive.add_argument("--quiet", action="store_true", help="suppress stderr chatter")
    return parser


def _build_pipeline(args, parser):
    profile = PRESETS[args.profile]
    if args.max_read_length is not None:
        profile = small_profile(profile, max_read_length=args.max_read_length)
    reference = profile_reference(profile)
    index = MinimizerIndex.build(reference)
    base_config = preset_config(args.preset or args.profile)
    config = variant_config(base_config.with_chunk_size(args.chunk_size), args.variant)
    basecaller = create_basecaller(args.basecaller)
    builder = (
        GenPIP.build().index(index).config(config).basecaller(basecaller).align(args.align)
    )
    if args.signal_er:
        pore_model = getattr(basecaller, "pore_model", None)
        if pore_model is None:
            parser.error(
                f"--signal-er needs a basecaller with a pore model; "
                f"backend {args.basecaller!r} has none"
            )
        builder = builder.signal_rejection(
            SignalRejectionPolicy.from_reference(
                pore_model,
                reference.codes,
                n_templates=args.signal_er_templates,
                threshold=args.signal_er_threshold,
            )
        )
    return builder.build().pipeline


def _cmd_serve(args, parser) -> int:
    if args.chunk_size < 50:
        parser.error("--chunk-size must be at least 50 bases")
    if args.workers is not None and args.workers < 0:
        parser.error("--workers must be non-negative")
    if args.signal_er_threshold <= 0:
        parser.error("--signal-er-threshold must be positive")
    if args.signal_er_templates < 1:
        parser.error("--signal-er-templates must be at least 1")
    pipeline = _build_pipeline(args, parser)

    # Pool + index first, loop second: the workers are forked while the
    # process is still single-threaded (the batch engine's warm-up
    # rationale), and the index is published exactly once for the
    # server's whole lifetime.
    dispatcher = PoolDispatcher(pipeline, workers=args.workers)
    with dispatcher:

        async def _serve() -> None:
            async with ServingServer(dispatcher, host=args.host, port=args.port) as server:
                if args.port_file:
                    Path(args.port_file).write_text(
                        json.dumps({"host": args.host, "port": server.port}) + "\n",
                        encoding="utf-8",
                    )
                if not args.quiet:
                    print(
                        f"serving {args.profile} on {args.host}:{server.port} "
                        f"({dispatcher.mode} x{dispatcher.workers})",
                        file=sys.stderr,
                    )
                try:
                    await server.serve_forever()
                finally:
                    if not args.quiet:
                        stats = server.stats()
                        print(
                            f"served {stats.sessions} sessions, "
                            f"{stats.verdicts} verdicts "
                            f"(p50 {stats.p50_ms:.1f}ms, p99 {stats.p99_ms:.1f}ms)",
                            file=sys.stderr,
                        )

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            # Ctrl-C / SIGINT is the intended way to stop serving; the
            # dispatcher context still tears the pool + index down.
            pass
    return 0


def _resolve_endpoint(args, parser) -> tuple[str, int]:
    if args.port_file:
        deadline = time.monotonic() + args.wait
        path = Path(args.port_file)
        while True:
            if path.exists():
                try:
                    record = json.loads(path.read_text(encoding="utf-8"))
                    return record["host"], int(record["port"])
                except (json.JSONDecodeError, KeyError, ValueError):
                    pass  # server mid-write; retry below
            if time.monotonic() > deadline:
                parser.error(f"--port-file {args.port_file} did not appear in {args.wait}s")
            time.sleep(0.05)
    if args.port is None:
        parser.error("drive needs --port or --port-file")
    return args.host, args.port


def _cmd_drive(args, parser) -> int:
    if args.scale <= 0:
        parser.error("--scale must be positive")
    if args.sessions < 1:
        parser.error("--sessions must be at least 1")
    host, port = _resolve_endpoint(args, parser)

    profile = PRESETS[args.profile]
    if args.max_read_length is not None:
        profile = small_profile(profile, max_read_length=args.max_read_length)
    reads = generate_dataset(profile, scale=args.scale, seed=args.seed).reads
    parts = partition_reads(reads, args.sessions)
    started = time.perf_counter()
    results = drive_sessions(
        host, port, parts, collect_stats=args.metrics_out is not None
    )
    elapsed = time.perf_counter() - started

    merged = merged_outcomes(results)
    if len(merged) != len(reads):
        print(
            f"error: {len(merged)} verdicts for {len(reads)} reads", file=sys.stderr
        )
        return 1
    if args.outcomes:
        with open(args.outcomes, "w", encoding="utf-8") as handle:
            for record in merged:
                handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")))
                handle.write("\n")
    if args.summary:
        payload = json.dumps(results[-1].summary, indent=2, sort_keys=True) + "\n"
        if args.summary == "-":
            sys.stdout.write(payload)
        else:
            Path(args.summary).write_text(payload, encoding="utf-8")
    if args.metrics_out:
        # Every session requested stats; the last one's frame carries
        # the most complete view of the server's registry.
        exposition = (results[-1].stats or {}).get("exposition", "")
        if args.metrics_out == "-":
            sys.stdout.write(exposition)
        else:
            Path(args.metrics_out).write_text(exposition, encoding="utf-8")
    if not args.quiet:
        server_block = (results[-1].summary or {}).get("server", {})
        print(
            f"{args.sessions} sessions, {len(merged)} verdicts in {elapsed:.2f}s | "
            f"server p50 {server_block.get('p50_ms', 0.0)}ms, "
            f"p95 {server_block.get('p95_ms', 0.0)}ms, "
            f"p99 {server_block.get('p99_ms', 0.0)}ms",
            file=sys.stderr,
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    return _cmd_drive(args, parser)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

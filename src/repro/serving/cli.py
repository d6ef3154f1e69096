"""``python -m repro.serving``: the adaptive-sampling serving endpoint.

Two subcommands bracket the loopback story:

``serve``
    Build the pipeline for a dataset profile, warm the worker pool and
    publish the shared-memory minimizer index **once**, then accept
    sessions on a loopback socket until SIGINT or SIGTERM. ``--port-file``
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

The dataset and pipeline flags of both subcommands are not declared
here: :mod:`repro.runtime.cli` owns their only ``add_argument`` calls,
their range checks and the functions that turn them into a profile and
a pipeline, so ``serve`` cannot describe a different pipeline than the
batch run its verdicts are diffed against.

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
import signal
import sys
import time
from collections.abc import Sequence
from pathlib import Path

from repro.nanopore.datasets import generate_dataset, profile_reference
from repro.runtime.cli import (
    add_dataset_args,
    add_pipeline_args,
    check_args,
    pipeline_from_args,
    profile_from_args,
    write_output,
)
from repro.runtime.sink import record_to_json
from repro.serving.client import drive_sessions, merged_outcomes, partition_reads
from repro.serving.dispatch import PoolDispatcher
from repro.serving.server import ServingServer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Long-lived GenPIP serving: warm pool, streaming verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the serving endpoint")
    add_dataset_args(serve, sized=False)
    add_pipeline_args(serve)
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
    add_dataset_args(drive)
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


def _cmd_serve(args, parser) -> int:
    pipeline = pipeline_from_args(parser, args, profile_reference(profile_from_args(args)))

    # Pool + index first, loop second: the workers are forked while the
    # process is still single-threaded (the batch engine's warm-up
    # rationale), and the index is published exactly once for the
    # server's whole lifetime.
    dispatcher = PoolDispatcher(pipeline, workers=args.workers)
    with dispatcher:

        async def _serve() -> None:
            # Explicit handlers, not KeyboardInterrupt: a server started
            # with `&` from a script inherits SIGINT ignored, and an
            # unhandled SIGTERM would skip the teardown below and leave
            # the workers and the index segment behind.
            stop = asyncio.Event()
            for signum in (signal.SIGINT, signal.SIGTERM):
                asyncio.get_running_loop().add_signal_handler(signum, stop.set)
            async with ServingServer(dispatcher, host=args.host, port=args.port) as server:
                write_output(
                    args.port_file, json.dumps({"host": args.host, "port": server.port}) + "\n"
                )
                if not args.quiet:
                    print(
                        f"serving {args.profile} on {args.host}:{server.port} "
                        f"({dispatcher.mode} x{dispatcher.workers})",
                        file=sys.stderr,
                    )
                await stop.wait()
                if not args.quiet:
                    stats = server.stats()
                    print(
                        f"served {stats.sessions} sessions, "
                        f"{stats.verdicts} verdicts "
                        f"(p50 {stats.p50_ms:.1f}ms, p99 {stats.p99_ms:.1f}ms)",
                        file=sys.stderr,
                    )

        asyncio.run(_serve())
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
    host, port = _resolve_endpoint(args, parser)
    # Claimed before the run: a mistyped path must not cost every verdict.
    for path in (args.outcomes, args.summary, args.metrics_out):
        write_output(path, "")

    reads = generate_dataset(profile_from_args(args), scale=args.scale, seed=args.seed).reads
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
    write_output(args.outcomes, "".join(record_to_json(record) + "\n" for record in merged))
    write_output(args.summary, json.dumps(results[-1].summary, indent=2, sort_keys=True) + "\n")
    # Every session requested stats; the last one's frame carries the
    # most complete view of the server's registry.
    write_output(args.metrics_out, (results[-1].stats or {}).get("exposition", ""))
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
    check_args(parser, args)
    if args.command == "serve":
        return _cmd_serve(args, parser)
    return _cmd_drive(args, parser)

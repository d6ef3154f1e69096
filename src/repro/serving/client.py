"""Loopback client: drive sessions against a :class:`ServingServer`.

Two layers, matching how the serving layer is exercised everywhere in
this repo (tests, CI smoke, the ``sessions`` bench lane, the CLI):

* :func:`run_session` -- one async session over an open connection:
  hello, stream every read (tagged with its caller-chosen ``seq``),
  collect verdicts as they arrive (any order), ``end``, return the
  :class:`SessionResult` with the summary frame.
* :func:`drive_sessions` -- the sync entry point: N concurrent sessions
  in one event loop, each streaming its own read list. The caller
  typically partitions a dataset round-robin and uses each read's
  *dataset index* as its ``seq``, so :func:`merged_outcomes` can
  reassemble all sessions' verdicts back into dataset order for the
  byte-diff against a serial batch report.

The client writes all reads before it starts waiting on the summary but
reads verdicts concurrently, so the socket never deadlocks on a full
write buffer and verdict latency is observable from the client side too.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass, field
from typing import Sequence

from repro.serving import protocol


@dataclass
class SessionResult:
    """Everything one session produced, keyed for reassembly."""

    session: str  # server-assigned id ("s1", ...)
    name: str | None
    verdicts: dict[int, dict] = field(default_factory=dict)  # seq -> verdict frame
    summary: dict | None = None
    stats: dict | None = None  # the stats frame, when requested

    def outcomes_by_seq(self) -> list[tuple[int, dict]]:
        """(seq, outcome record) pairs in ascending seq order."""
        return [(seq, self.verdicts[seq]["outcome"]) for seq in sorted(self.verdicts)]


async def run_session(
    host: str,
    port: int,
    reads: Sequence[tuple[int, object]],
    *,
    name: str | None = None,
    collect_stats: bool = False,
) -> SessionResult:
    """Run one session: stream ``(seq, read)`` pairs, return the result.

    With ``collect_stats`` the client requests the server's live
    telemetry (``stats`` frame: summary block + Prometheus exposition)
    after every verdict arrived and before ``end``, storing the frame on
    :attr:`SessionResult.stats`.

    Raises :class:`~repro.serving.protocol.ProtocolError` if the server
    answers with an ``error`` frame.
    """
    reader, writer = await asyncio.open_connection(host, port, limit=protocol.MAX_READ_BYTES)
    try:
        writer.write(protocol.encode_frame(protocol.hello_frame(name)))
        await writer.drain()
        welcome = await _expect(reader, ("welcome",))
        result = SessionResult(session=welcome["session"], name=name)

        async def pump_verdicts() -> None:
            while len(result.verdicts) < len(reads):
                frame = await _expect(reader, ("verdict",))
                result.verdicts[frame["seq"]] = frame

        pump = asyncio.ensure_future(pump_verdicts())
        try:
            for seq, read in reads:
                writer.write(protocol.encode_frame(protocol.read_frame(seq, read)))
                await writer.drain()
            await pump
        except BaseException:
            pump.cancel()
            raise
        if collect_stats:
            # Only after the pump finished: mid-stream the reader is
            # dedicated to verdict frames.
            writer.write(protocol.encode_frame(protocol.stats_request_frame()))
            await writer.drain()
            result.stats = await _expect(reader, ("stats",))
        writer.write(protocol.encode_frame(protocol.end_frame()))
        await writer.drain()
        result.summary = await _expect(reader, ("summary",))
        return result
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError, BrokenPipeError):  # teardown race
            await writer.wait_closed()


async def _expect(reader: asyncio.StreamReader, kinds: tuple[str, ...]) -> dict:
    frame = await protocol.receive_frame(reader, expect=protocol.SERVER_FRAMES)
    if frame is None:
        raise protocol.ProtocolError(f"connection closed while waiting for {kinds}")
    if frame["type"] == "error":
        raise protocol.ProtocolError(f"server error: {frame.get('message')}")
    if frame["type"] not in kinds:
        raise protocol.ProtocolError(f"expected one of {kinds}, got {frame['type']!r}")
    return frame


def partition_reads(reads: Sequence[object], sessions: int) -> list[list[tuple[int, object]]]:
    """Round-robin ``(dataset_index, read)`` pairs across ``sessions`` lists.

    Using the dataset index as the wire ``seq`` is what makes the merged
    verdict stream reassemble into dataset order (:func:`merged_outcomes`).
    """
    if sessions < 1:
        raise ValueError(f"sessions must be >= 1, got {sessions}")
    parts: list[list[tuple[int, object]]] = [[] for _ in range(sessions)]
    for index, read in enumerate(reads):
        parts[index % sessions].append((index, read))
    return parts


def merged_outcomes(results: Sequence[SessionResult]) -> list[dict]:
    """All sessions' outcome records, restored to dataset order."""
    merged: dict[int, dict] = {}
    for result in results:
        for seq, outcome in result.outcomes_by_seq():
            if seq in merged:
                raise ValueError(f"seq {seq} returned by more than one session")
            merged[seq] = outcome
    return [merged[seq] for seq in sorted(merged)]


def drive_sessions(
    host: str,
    port: int,
    read_lists: Sequence[Sequence[tuple[int, object]]],
    *,
    names: Sequence[str] | None = None,
    collect_stats: bool = False,
) -> list[SessionResult]:
    """Run every read list as its own concurrent session (sync wrapper)."""
    if names is not None and len(names) != len(read_lists):
        raise ValueError("names must match read_lists one-to-one")

    async def _drive() -> list[SessionResult]:
        return list(
            await asyncio.gather(
                *(
                    run_session(
                        host,
                        port,
                        reads,
                        name=names[i] if names is not None else f"session-{i}",
                        collect_stats=collect_stats,
                    )
                    for i, reads in enumerate(read_lists)
                )
            )
        )

    return asyncio.run(_drive())


def serve_and_drive(
    pipeline,
    reads: Sequence[object],
    *,
    sessions: int,
    workers: int = 1,
):
    """One-call loopback exercise: serve ``reads`` over N concurrent sessions.

    Stands up a warm dispatcher + server in-process, partitions the
    dataset round-robin across ``sessions`` concurrent loopback clients,
    and returns ``(results, stats)`` -- the per-session
    :class:`SessionResult` list and the server-wide
    :class:`~repro.serving.dispatch.ServingStats` captured after every
    session closed. The dispatcher is started *before* the event loop
    exists (fork-before-threads), exactly as the CLI does it.
    """
    from repro.serving.dispatch import PoolDispatcher
    from repro.serving.server import ServingServer

    parts = partition_reads(reads, sessions)

    async def _serve() -> tuple[list[SessionResult], object]:
        async with ServingServer(dispatcher) as server:
            results = list(
                await asyncio.gather(
                    *(
                        run_session("127.0.0.1", server.port, part, name=f"session-{i}")
                        for i, part in enumerate(parts)
                    )
                )
            )
            return results, server.stats()

    with PoolDispatcher(pipeline, workers=workers) as dispatcher:
        return asyncio.run(_serve())

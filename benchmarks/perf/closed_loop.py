"""Closed-loop load generator for the serving layer.

``sessions`` concurrent sessions each keep exactly one read in flight:
send a read frame, wait for its verdict, send the next. That is the
adaptive-sampling caller the serving layer exists for (it cannot decide
about a pore until the verdict is back), and it measures service time;
the repo's own ``run_session`` writes every read before it waits, which
measures queueing behind the client's own backlog.

Frames are encoded by the caller beforehand, so the generator itself
costs a socket write and a ``json.loads`` per read.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass

import workloads  # noqa: F401 - puts src/ on sys.path

from repro.serving import protocol

#: Matches the server's per-line limit (read frames are large).
_LINE_LIMIT = 64 * 1024 * 1024


@dataclass(frozen=True)
class Verdict:
    """One read's trip: client latency plus the verdict frame (or the failure)."""

    seq: int
    latency_s: float
    frame: dict | None
    error: str | None = None


async def _read_frame(reader: asyncio.StreamReader, timeout_s: float) -> dict:
    line = await asyncio.wait_for(reader.readline(), timeout_s)
    if not line:
        raise protocol.ProtocolError("connection closed by server")
    frame = protocol.decode_frame(line, expect=protocol.SERVER_FRAMES)
    if frame["type"] == "error":
        raise protocol.ProtocolError(f"server error: {frame.get('message')}")
    return frame


async def _session(
    host: str, port: int, name: str, frames: list[tuple[int, bytes]], timeout_s: float
) -> list[Verdict]:
    verdicts: list[Verdict] = []
    reader, writer = await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
    try:
        writer.write(protocol.encode_frame(protocol.hello_frame(name)))
        await writer.drain()
        await _read_frame(reader, timeout_s)
        for position, (seq, payload) in enumerate(frames):
            sent = time.perf_counter()
            try:
                writer.write(payload)
                await writer.drain()
                frame = await _read_frame(reader, timeout_s)
                if frame["type"] != "verdict" or frame.get("seq") != seq:
                    raise protocol.ProtocolError(f"expected verdict {seq}, got {frame['type']}")
            except (TimeoutError, protocol.ProtocolError, ConnectionError) as exc:
                # The stream is out of step after a miss: every read
                # still owed on this session counts as failed.
                elapsed = time.perf_counter() - sent
                verdicts.extend(
                    Verdict(owed, elapsed, None, repr(exc)) for owed, _ in frames[position:]
                )
                return verdicts
            verdicts.append(Verdict(seq, time.perf_counter() - sent, frame))
        writer.write(protocol.encode_frame(protocol.end_frame()))
        await writer.drain()
        await _read_frame(reader, timeout_s)
        return verdicts
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()


def served_pass(
    host: str,
    port: int,
    frames: list[tuple[int, bytes]],
    *,
    sessions: int,
    timeout_s: float,
) -> tuple[float, list[Verdict]]:
    """Stream ``frames`` round-robin over ``sessions`` closed-loop sessions.

    Returns the pass's wall seconds (first connect to last summary) and
    one :class:`Verdict` per frame.
    """
    parts = [frames[i::sessions] for i in range(sessions)]

    async def drive() -> list[list[Verdict]]:
        return await asyncio.gather(
            *(
                _session(host, port, f"bench-{i}", part, timeout_s)
                for i, part in enumerate(parts)
                if part
            )
        )

    started = time.perf_counter()
    results = asyncio.run(drive())
    elapsed = time.perf_counter() - started
    return elapsed, [verdict for part in results for verdict in part]

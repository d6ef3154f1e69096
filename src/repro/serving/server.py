"""The asyncio serving front-end: sessions in, streamed verdicts out.

:class:`ServingServer` binds a loopback TCP socket and speaks protocol
v2 of :mod:`repro.serving.protocol` (NDJSON control lines; a ``read``
is a header line plus the read's columnar bytes): each accepted
connection is one session (hello -> welcome), every ``read`` frame is
dispatched immediately onto the warm pool
(:class:`~repro.serving.dispatch.PoolDispatcher`), and each verdict is
written back **the moment its read resolves** -- reads of one session
overlap each other and every other session's, so there is no batch
barrier anywhere between the socket and the worker pool. ``end`` waits
for the session's in-flight reads, then answers with a ``summary``
frame carrying the session's totals, its enqueue->verdict latency
percentiles, and the server-wide :class:`~repro.serving.dispatch
.ServingStats` block.

Concurrency shape: one handler coroutine per connection reads frames;
each read spawns a task that awaits the dispatcher and writes its
verdict under the connection's write lock (frames are lines, so the
lock is what keeps concurrent verdicts from interleaving mid-line).
Session state lives in the :class:`~repro.serving.session.SessionMux`,
never in the handler, so the server-wide stats survive the connection.
However a session ends -- ``end``, a protocol violation or a read whose
processing raised (one ``error`` frame, then close), a vanished peer --
its in-flight read tasks are cancelled *and awaited* before the handler
returns, so none outlives its connection or dies unobserved.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.nanopore.signal_read import SignalRead
from repro.obs.export import prometheus_text
from repro.serving import protocol
from repro.serving.dispatch import PoolDispatcher, ServingStats
from repro.serving.session import SessionMux, SessionState


class ServingServer:
    """A long-lived serving endpoint over one started dispatcher.

    The dispatcher must already be :meth:`~repro.serving.dispatch
    .PoolDispatcher.start`-ed (before the event loop exists -- the
    single-threaded-fork rationale); the server only multiplexes
    sessions onto it.
    """

    def __init__(self, dispatcher: PoolDispatcher, *, host: str = "127.0.0.1", port: int = 0):
        self._dispatcher = dispatcher
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        self._mux = SessionMux()

    # --- lifecycle ---------------------------------------------------

    async def start(self) -> "ServingServer":
        """Bind and start accepting sessions (returns once listening)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, limit=protocol.LINE_LIMIT
        )
        return self

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._host

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ServingServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # --- stats -------------------------------------------------------

    def stats(self) -> ServingStats:
        """Server-wide totals so far: reads, verdicts and latency are
        charged live at submit/resolve, sessions when they close."""
        mux = self._mux
        return ServingStats.from_registry(
            mux.registry,
            mode=self._dispatcher.mode,
            workers=self._dispatcher.workers,
            transport=self._dispatcher.transport,
            live_sessions=mux.live_sessions,
            elapsed_s=mux.elapsed_s,
            index_publications=self._dispatcher.index_publications,
        )

    def metrics_text(self) -> str:
        """Prometheus text exposition of the mux registry's instruments
        (the ``stats`` frame's payload and ``drive --metrics-out``)."""
        return prometheus_text(self._mux.registry.snapshot())

    # --- connection handling -----------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()

        async def send(frame: dict) -> None:
            async with write_lock:
                writer.write(protocol.encode_frame(frame))
                await writer.drain()

        session: SessionState | None = None
        frames: asyncio.Task | None = None
        tasks: set[asyncio.Task] = set()
        # Resolved, with the message for the client, by the first read
        # whose processing raised: the session ends there and then, not
        # when (if ever) the client gets to `end`.
        failed: asyncio.Future = asyncio.get_running_loop().create_future()
        error: str | None = None
        try:
            hello = await protocol.receive_frame(reader, expect=protocol.CLIENT_FRAMES)
            if hello is None:
                return
            name = protocol.check_hello(hello)
            session = self._mux.open(name)
            await send(protocol.welcome_frame(session.session_id))
            frames = asyncio.ensure_future(self._read_frames(reader, send, session, tasks, failed))
            await asyncio.wait({frames, failed}, return_when=asyncio.FIRST_COMPLETED)
            if failed.done():
                error = failed.result()
            else:
                frames.result()
        except protocol.ProtocolError as exc:
            error = str(exc)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-frame; nothing to answer to
        finally:
            # Reap the frame loop and the reads still in flight before
            # anything else is written, so an `error` frame is the last
            # thing on the wire.
            pending = [*tasks] if frames is None else [frames, *tasks]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            if session is not None:
                self._mux.close(session)
            if error is not None:
                with contextlib.suppress(ConnectionError, RuntimeError):  # peer gone
                    await send(protocol.error_frame(error))
            writer.close()
            with contextlib.suppress(ConnectionError, BrokenPipeError):  # teardown race
                await writer.wait_closed()

    async def _read_frames(
        self,
        reader: asyncio.StreamReader,
        send,
        session: SessionState,
        tasks: set[asyncio.Task],
        failed: asyncio.Future,
    ) -> None:
        """An open session's frames up to ``end`` (or EOF, which abandons
        the reads in flight): each ``read`` becomes a task in ``tasks``."""
        while (
            frame := await protocol.receive_frame(reader, expect=protocol.CLIENT_FRAMES)
        ) is not None:
            if frame["type"] == "read":
                read = protocol.read_from_record(frame["read"])
                if (
                    isinstance(read, SignalRead)
                    and not self._dispatcher.pipeline.accepts_signal_reads()
                ):
                    raise protocol.ProtocolError(
                        "signal read sent to a pipeline whose basecaller decodes "
                        "base-space reads only"
                    )
                try:
                    self._mux.submit(session, frame["seq"])
                except ValueError as exc:  # seq already in flight
                    raise protocol.ProtocolError(str(exc)) from exc
                task = asyncio.ensure_future(
                    self._run_read(session, send, frame["seq"], read, failed)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif frame["type"] == "end":
                if tasks:
                    await asyncio.gather(*tuple(tasks))
                if failed.done():
                    return
                # Close first so the summary's server block already
                # includes this session in the aggregate.
                self._mux.close(session)
                await send(
                    protocol.summary_frame(
                        session.session_id,
                        totals=session.totals(),
                        latency={
                            "count": session.latency.count,
                            **session.latency.percentiles_ms(),
                        },
                        server=self.stats().summary_record(),
                    )
                )
                return
            elif frame["type"] == "stats":
                # Live telemetry probe: answer with the server-wide
                # stats block plus the Prometheus exposition of the
                # mux registry. Valid any time on an open session.
                await send(
                    protocol.stats_frame(self.stats().summary_record(), self.metrics_text())
                )
            elif frame["type"] == "hello":
                raise protocol.ProtocolError("duplicate hello on an open session")

    async def _run_read(
        self, session: SessionState, send, seq: int, read, failed: asyncio.Future
    ) -> None:
        from repro.runtime.sink import outcome_to_record

        try:
            outcome, latency_s = await self._dispatcher.process(read)
        except Exception as exc:  # the session's boundary: tell the client, once
            if not failed.done():
                failed.set_result(f"read seq {seq} failed: {exc}")
            return
        self._mux.resolve(session, seq, outcome, latency_s)
        await send(
            protocol.verdict_frame(
                seq,
                accept=not outcome.rejected_early,
                latency_ms=latency_s * 1e3,
                outcome=outcome_to_record(outcome),
            )
        )

"""Session multiplexing: many clients, one warm pipeline substrate.

A *session* is one client connection's lifetime: hello -> reads ->
verdicts -> summary. The serving layer multiplexes every session's
in-flight reads onto the same worker pool, so the bookkeeping here is
what keeps the streams apart: each submitted read is tagged with its
``(session_id, seq)``; each session accumulates its own verdict
counters and enqueue->verdict :class:`~repro.obs.metrics.Histogram`;
and the :class:`SessionMux` keeps the server-wide aggregate.

The mux's aggregate view lives in a
:class:`~repro.obs.metrics.MetricsRegistry` it owns: sessions, reads,
verdicts and rejects are ``genpip_serving_*`` counters (exposed with
the conventional ``_total`` sample suffix), live and
peak concurrency are gauges, and the merged enqueue->verdict histogram
is the ``genpip_serving_latency_seconds`` instrument. The instruments
update *live* -- per submitted read and per resolved verdict, not at
session close -- so a mid-session ``stats`` frame reads true current
totals. :class:`~repro.serving.dispatch.ServingStats.from_registry`
builds the server-wide stats from that registry, which is also what
the protocol's ``stats`` frame exposes as Prometheus text.

Nothing here touches sockets or the pool -- the mux is plain state, so
it is directly unit-testable and the asyncio server
(:mod:`repro.serving.server`) stays a thin frame loop around it.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.core.pipeline import ReadOutcome
from repro.obs.metrics import Histogram, MetricsRegistry


@dataclass
class SessionState:
    """One live client session's bookkeeping.

    ``seq`` numbers are client-assigned and opaque to the server beyond
    echoing them on verdicts; ``inflight`` holds the seqs submitted but
    not yet resolved, which is what ``end`` waits on before the summary.
    """

    session_id: str
    name: str | None = None
    started: float = field(default_factory=time.perf_counter)
    reads_submitted: int = 0
    verdicts_sent: int = 0
    accepted: int = 0
    rejected: int = 0
    inflight: set[int] = field(default_factory=set)
    latency: Histogram = field(default_factory=Histogram)

    def submit(self, seq: int) -> None:
        if seq in self.inflight:
            raise ValueError(f"duplicate in-flight seq {seq} in {self.session_id}")
        self.inflight.add(seq)
        self.reads_submitted += 1

    def resolve(self, seq: int, outcome: ReadOutcome, latency_s: float) -> None:
        """Fold one resolved read into the session's accounting."""
        self.inflight.discard(seq)
        self.verdicts_sent += 1
        if outcome.rejected_early:
            self.rejected += 1
        else:
            self.accepted += 1
        self.latency.observe(latency_s)

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self.started

    def totals(self) -> dict:
        """The ``summary`` frame's per-session totals block."""
        return {
            "reads": self.reads_submitted,
            "verdicts": self.verdicts_sent,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "elapsed_s": round(self.elapsed_s, 4),
        }


class SessionMux:
    """Registry of live sessions plus the server-wide running totals.

    The server opens a session per accepted connection and closes it when
    the summary goes out (or the connection drops); the mux keeps the
    aggregate view -- total sessions served, total verdicts, the merged
    latency histogram, and the concurrency high-water mark -- as live
    instruments in its :attr:`registry`, from which the server-wide
    :class:`~repro.serving.dispatch.ServingStats` is built.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._ids = itertools.count(1)
        self._live: dict[str, SessionState] = {}
        self._started = time.perf_counter()
        self._registry = registry if registry is not None else MetricsRegistry()
        self._sessions = self._registry.counter(
            "genpip_serving_sessions", help="Sessions served to completion"
        )
        self._reads = self._registry.counter(
            "genpip_serving_reads", help="Reads submitted across all sessions"
        )
        self._verdicts = self._registry.counter(
            "genpip_serving_verdicts", help="Verdicts streamed across all sessions"
        )
        self._rejected = self._registry.counter(
            "genpip_serving_rejected",
            help="Early-rejected verdicts across all sessions",
        )
        self._live_gauge = self._registry.gauge(
            "genpip_serving_live_sessions", help="Currently open sessions"
        )
        self._peak_gauge = self._registry.gauge(
            "genpip_serving_peak_sessions", help="Concurrent-session high-water mark"
        )
        self._latency = self._registry.histogram(
            "genpip_serving_latency_seconds",
            help="Enqueue->verdict latency across all sessions",
        )

    @property
    def registry(self) -> MetricsRegistry:
        """The mux-owned registry (the ``stats`` frame's exposition source)."""
        return self._registry

    def open(self, name: str | None = None) -> SessionState:
        session = SessionState(session_id=f"s{next(self._ids)}", name=name)
        self._live[session.session_id] = session
        self._live_gauge.set(len(self._live))
        self._peak_gauge.set_max(len(self._live))
        return session

    def submit(self, session: SessionState, seq: int) -> None:
        """Register one submitted read with the session *and* the live totals."""
        session.submit(seq)
        self._reads.inc()

    def resolve(
        self, session: SessionState, seq: int, outcome: ReadOutcome, latency_s: float
    ) -> None:
        """Fold one verdict into the session and the live instruments."""
        session.resolve(seq, outcome, latency_s)
        self._verdicts.inc()
        if outcome.rejected_early:
            self._rejected.inc()
        self._latency.observe(latency_s)

    def close(self, session: SessionState) -> None:
        """Retire a session. Read/verdict/latency instruments already
        updated live at submit/resolve time, so this only counts the
        completed session and drops it from the concurrency gauge."""
        if self._live.pop(session.session_id, None) is None:
            return  # already closed (summary raced a disconnect)
        self._live_gauge.set(len(self._live))
        self._sessions.inc()

    @property
    def live_sessions(self) -> int:
        return len(self._live)

    @property
    def elapsed_s(self) -> float:
        return time.perf_counter() - self._started

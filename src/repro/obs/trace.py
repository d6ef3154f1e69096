"""Per-read stage span tracing with a process-local tracer.

The tracer follows the process-registry idiom of
:mod:`repro.obs.metrics`: each process owns at most one
:class:`Tracer`, instrumented code looks it up through
:func:`active_tracer`, and pooled workers ship their completed traces
home as compact tuples on
:class:`~repro.runtime.merge.ShardResult`. When tracing is disabled
(the default) :func:`active_tracer` returns the shared
:class:`NullTracer`, whose every operation is a constant no-op -- the
instrumented hot paths pay one global read and one no-op context
manager per span.

Structure model
---------------
A **trace** is the span tree of one logical item: a read
(``kind="read"``), one worker-loop batch (``kind="unit"``), or one
serving dispatch (``kind="dispatch"``). Spans within a trace form a
tree via parent indices; the root span carries the trace kind's name.
Traces nest dynamically (each read trace opens while its batch trace is
active) but are *emitted* flat, so a run's trace is simply the
dataset-ordered sequence of read traces with unit/dispatch traces
interleaved.

Determinism: span *structure* (names, nesting, counts) depends only on
the control flow of the traced code, never on the clock -- a serial and
a pooled run over the same dataset produce identical per-read span
trees. Timings come from the injected ``clock`` (``time.perf_counter``
by default), which tests replace with a deterministic counter.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass

#: Span tuple layout shipped across process boundaries:
#: ``(name, parent_index, t_start, t_end)`` with ``parent_index == -1``
#: for the root span and clock values in the emitting process's domain.
SpanTuple = tuple[str, int, float, float]

#: Trace kinds and the root-span name each one opens with.
TRACE_KINDS = {"read": "read", "unit": "batch", "dispatch": "dispatch"}


@dataclass(frozen=True)
class ReadTrace:
    """One completed span tree (a read, a worker batch, or a dispatch).

    ``spans`` is the flat tuple-encoded tree: entry ``i`` is
    ``(name, parent, t0, t1)`` where ``parent`` indexes an earlier
    entry (``-1`` for the root). Clock values are only comparable
    within one ``pid``.
    """

    kind: str
    label: str
    pid: int
    spans: tuple[SpanTuple, ...]

    @property
    def n_spans(self) -> int:
        return len(self.spans)

    def names(self) -> tuple[str, ...]:
        """Span names in open order (root first)."""
        return tuple(span[0] for span in self.spans)

    def structure(self) -> tuple[tuple[str, int], ...]:
        """The clock-free shape of the tree: ``(name, parent)`` pairs.

        Two traces of the same read from different runs (serial vs
        pooled, different workers) compare equal on ``structure()``.
        """
        return tuple((span[0], span[1]) for span in self.spans)

    def count(self, name: str) -> int:
        """Number of spans carrying ``name``."""
        return sum(1 for span in self.spans if span[0] == name)

    def to_tuple(self) -> tuple:
        """Compact wire form for ShardResult transport."""
        return (self.kind, self.label, self.pid, self.spans)

    @classmethod
    def from_tuple(cls, payload: tuple) -> "ReadTrace":
        kind, label, pid, spans = payload
        return cls(kind=kind, label=label, pid=int(pid), spans=tuple(map(tuple, spans)))


class _NullContext:
    """Shared reusable no-op context manager (tracing disabled)."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The disabled tracer: every operation is a constant no-op."""

    __slots__ = ()
    enabled = False

    def read(self, label) -> _NullContext:
        return _NULL_CONTEXT

    def unit(self, label) -> _NullContext:
        return _NULL_CONTEXT

    def span(self, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def drain(self) -> list[ReadTrace]:
        return []


NULL_TRACER = NullTracer()


class _LiveTrace:
    """Mutable build state of one open trace."""

    __slots__ = ("kind", "label", "spans", "open")

    def __init__(self, kind: str, label: str):
        self.kind = kind
        self.label = label
        self.spans: list[list] = []  # [name, parent, t0, t1]
        self.open: list[int] = []  # indices of not-yet-closed spans


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_index")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self) -> "_SpanContext":
        self._index = self._tracer._open_span(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        if self._index >= 0:
            self._tracer._close_span(self._index)


class _TraceContext:
    __slots__ = ("_tracer", "_kind", "_label", "_root")

    def __init__(self, tracer: "Tracer", kind: str, label: str):
        self._tracer = tracer
        self._kind = kind
        self._label = label
        self._root = -1

    def __enter__(self) -> "_TraceContext":
        self._root = self._tracer._open_trace(self._kind, self._label)
        return self

    def __exit__(self, *exc_info) -> None:
        self._tracer._close_trace(self._root)


class Tracer:
    """Collects span trees per read/unit/dispatch in one process.

    Parameters
    ----------
    clock:
        Zero-argument callable returning a monotonically non-decreasing
        float. Defaults to :func:`time.perf_counter`; tests inject a
        deterministic counter so span times are reproducible.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.perf_counter
        self._stack: list[_LiveTrace] = []
        self._done: list[ReadTrace] = []

    # -- trace contexts ------------------------------------------------
    def read(self, label) -> _TraceContext:
        """Open the span tree of one read (root span ``"read"``)."""
        return _TraceContext(self, "read", str(label))

    def unit(self, label) -> _TraceContext:
        """Open the worker-loop span of one work unit (root ``"batch"``)."""
        return _TraceContext(self, "unit", str(label))

    def span(self, name: str) -> _SpanContext | _NullContext:
        """A child span in the innermost open trace (no-op outside one)."""
        if not self._stack:
            return _NULL_CONTEXT
        return _SpanContext(self, name)

    def drain(self) -> list[ReadTrace]:
        """Completed traces in completion order; clears the buffer."""
        done = self._done
        self._done = []
        return done

    # -- internals -----------------------------------------------------
    def _open_trace(self, kind: str, label: str) -> int:
        live = _LiveTrace(kind, label)
        self._stack.append(live)
        return self._open_span(TRACE_KINDS[kind])

    def _close_trace(self, root: int) -> None:
        self._close_span(root)
        live = self._stack.pop()
        self._done.append(
            ReadTrace(
                kind=live.kind,
                label=live.label,
                pid=os.getpid(),
                spans=tuple(tuple(span) for span in live.spans),
            )
        )

    def _open_span(self, name: str) -> int:
        live = self._stack[-1]
        parent = live.open[-1] if live.open else -1
        index = len(live.spans)
        live.spans.append([name, parent, self._clock(), 0.0])
        live.open.append(index)
        return index

    def _close_span(self, index: int) -> None:
        live = self._stack[-1]
        live.spans[index][3] = self._clock()
        # Close any children left open by an exception unwinding through
        # the trace, then the span itself.
        while live.open and live.open[-1] >= index:
            live.open.pop()


#: Per-process tracer (None == tracing disabled).
_PROCESS: Tracer | None = None


def active_tracer() -> Tracer | NullTracer:
    """The process tracer, or the shared no-op when tracing is off."""
    return _PROCESS if _PROCESS is not None else NULL_TRACER


def tracing_enabled() -> bool:
    return _PROCESS is not None


def enable_tracing(clock: Callable[[], float] | None = None) -> Tracer:
    """Enable process-wide tracing (idempotent; returns the tracer).

    An already-enabled process keeps its tracer (and its clock) -- pool
    workers call this unconditionally when their pool traces.
    """
    global _PROCESS
    if _PROCESS is None:
        _PROCESS = Tracer(clock)
    return _PROCESS


def disable_tracing() -> None:
    """Disable process-wide tracing and drop any undrained traces."""
    global _PROCESS
    _PROCESS = None


class _TracerScope:
    """Temporarily install a tracer as the process tracer."""

    __slots__ = ("_tracer", "_prev")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._prev: Tracer | None = None

    def __enter__(self) -> Tracer:
        global _PROCESS
        self._prev = _PROCESS
        _PROCESS = self._tracer
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        global _PROCESS
        _PROCESS = self._prev


def use_tracer(tracer: Tracer) -> _TracerScope:
    """Scope ``tracer`` as the process tracer (explicit-injection path).

    Every instrumentation site (the pipeline's stage spans, the mapper's
    seed/chain/align spans) looks the tracer up via
    :func:`active_tracer`, so a tracer with a pinned clock scoped here
    records a whole ``process_read`` call.
    """
    return _TracerScope(tracer)


def drain_read_traces() -> tuple[tuple, ...]:
    """Drain completed traces as compact wire tuples (ShardResult cargo).

    Returns ``()`` when tracing is disabled, so worker entry points can
    attach the result unconditionally at zero cost.
    """
    if _PROCESS is None:
        return ()
    return tuple(trace.to_tuple() for trace in _PROCESS.drain())


def decode_traces(payload: Iterable[tuple]) -> list[ReadTrace]:
    """Rehydrate wire tuples (from ShardResult) into :class:`ReadTrace`."""
    return [ReadTrace.from_tuple(item) for item in payload]

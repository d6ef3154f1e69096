"""Benchmark-owned spans around the program's public entry points.

The per-layer numbers must keep their meaning when a later change
restructures the program's own tracer, so they are recorded here, from
outside: :func:`installed` swaps six public callables for timing
wrappers for the duration of one serial pass and puts the originals
back. Spans are kept in memory as ``(name, start, end, parent, read_id)``
and written out by the runner when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Callable, Iterator

import workloads  # noqa: F401 - puts src/ on sys.path

from repro.core.pipeline import GenPIPPipeline
from repro.genomics import alphabet
from repro.mapping.mapper import IncrementalChunkMapper

#: Span name of each layer boundary the recorder wraps.
PASS = "runtime.pass"
PROCESS_READ = "core.process_read"
BASECALL_CHUNK = "basecalling.basecall_chunk"
ENCODE = "genomics.encode"
ADD_CHUNK = "mapping.add_chunk"
CHAIN_PREFIX = "mapping.chain_prefix"
FINALIZE = "mapping.finalize"


class SpanRecorder:
    """An in-memory span list with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._stack: list[int] = []
        self._read_id = ""

    @contextlib.contextmanager
    def span(self, name: str, read_id: str | None = None) -> Iterator[None]:
        if read_id is not None:
            self._read_id = read_id
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self._read_id))
        self._stack.append(index)
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, started, ended, parent, self._read_id)

    def wrap(self, name: str, fn: Callable, read_id_of: Callable | None = None) -> Callable:
        """``fn`` timed as a span; ``read_id_of(*args)`` opens a new read."""

        def wrapper(*args, **kwargs):
            read_id = read_id_of(*args, **kwargs) if read_id_of is not None else None
            with self.span(name, read_id):
                return fn(*args, **kwargs)

        return wrapper


@contextlib.contextmanager
def installed(recorder: SpanRecorder, pipeline: GenPIPPipeline) -> Iterator[None]:
    """Wrap the public per-layer entry points for the duration of the block."""
    basecaller_type = type(pipeline.basecaller)
    targets = [
        (GenPIPPipeline, "process_read", PROCESS_READ, lambda _self, read: read.read_id),
        (basecaller_type, "basecall_chunk", BASECALL_CHUNK, None),
        (alphabet, "encode", ENCODE, None),
        (IncrementalChunkMapper, "add_chunk", ADD_CHUNK, None),
        (IncrementalChunkMapper, "chain_prefix", CHAIN_PREFIX, None),
        (IncrementalChunkMapper, "finalize", FINALIZE, None),
    ]
    # An inherited method is not in the owner's own namespace: restoring
    # it means deleting the wrapper, not pinning the base's function.
    inherited = object()
    originals = [(owner, attr, vars(owner).get(attr, inherited)) for owner, attr, _, _ in targets]
    try:
        for owner, attr, name, read_id_of in targets:
            setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), read_id_of))
        yield
    finally:
        for owner, attr, original in originals:
            if original is inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

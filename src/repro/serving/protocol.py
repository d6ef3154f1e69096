"""The serving wire protocol, version 2: NDJSON lines, columnar read payloads.

Every frame starts with one line: a JSON object with a ``type`` key
(sorted keys, compact, ``\\n``-terminated), over any byte stream (the
server binds a loopback TCP socket). Control frames are that line and
nothing else. A ``read`` frame's line is a small *header* that is
followed by exactly ``nbytes`` raw bytes -- the read's arrays in the
:mod:`repro.runtime.columnar` layout, so between socket and kernel an
array is only ever an ``np.frombuffer`` view (inline serving runs on
views over the received bytes) or one ``memcpy`` into a shared segment
(pooled serving), never a per-element Python object.

========== ========== ====================================================
type       direction  content
========== ========== ====================================================
hello      client ->  ``protocol`` (version), optional ``session`` name
welcome    server ->  ``session`` id assigned, ``protocol`` echoed
read       client ->  header: ``seq`` (client-assigned sequence number),
                      ``nbytes``, ``read`` (the record: ``kind`` plus the
                      read's scalar fields and element counts); then
                      ``nbytes`` payload bytes (diagram below)
verdict    server ->  ``seq`` echoed, ``accept`` flag, ``latency_ms``, and
                      the full lossless ``outcome`` record (exactly
                      :func:`repro.runtime.sink.outcome_to_record`)
stats      client ->  empty request for live server telemetry
stats      server ->  ``server`` (the stats summary block, with
                      ``p50_ms``/``p95_ms``/``p99_ms``) + ``exposition``
                      (the Prometheus text of the serving registry)
end        client ->  no more reads in this session
summary    server ->  per-session totals + latency percentiles + server
                      totals; closes the session
error      server ->  ``message``; the connection is then closed
========== ========== ====================================================

The read frame, byte for byte::

    {"nbytes":B,"read":{"kind":...,"read_id":...,<scalars>,<counts>},"seq":N,"type":"read"}\\n
    <B payload bytes>

    kind "read"    f64 qualities[n_bases] | u8 codes[n_bases]            B = 9*n_bases
    kind "signal"  i64 base_starts[n_starts] | f32 samples[n_samples]    B = 8*n_starts + 4*n_samples

The payload **is** the packed one-read batch of the layout diagram in
:mod:`repro.runtime.columnar` (8-byte section, sample section, code
section): the bytes ``ColumnarLayout.plan([read]).pack_into(...)`` writes
into a shared segment, little-endian (this module refuses to import on
a big-endian host rather than carry a byteswap path nobody runs). The
record is the read's columnar handle minus its offsets; the receiver
derives the offsets from the counts (:meth:`ColumnarLayout.single`),
checks ``nbytes`` against them and against :data:`MAX_READ_BYTES`
*before* reading the payload, and never reads an offset off the wire.

Verdicts stream back as each read resolves, so they may arrive in any
order; ``seq`` is the client's handle to restore submission order. The
``outcome`` record is byte-for-byte the batch runtime's serialisation,
which is what lets a client diff its (seq-ordered) verdict stream
against a serial batch report -- the serving layer's standing
equivalence invariant.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys

from repro.nanopore.read_simulator import ReadClass, SimulatedRead, check_read_metadata, check_read_payload
from repro.nanopore.signal_read import SignalRead
from repro.runtime.columnar import ColumnarBatch, ColumnarLayout, ReadHandle, SignalHandle

assert sys.byteorder == "little", "read payloads are native numpy memory, declared little-endian"

#: Protocol version; a ``hello`` carrying any other value is refused.
PROTOCOL_VERSION = 2

#: Longest frame line the server accepts (asyncio's StreamReader
#: default): control frames and read headers are a few hundred bytes.
LINE_LIMIT = 64 * 1024

#: Largest read payload. A header announcing more is refused before a
#: byte of it is buffered; it also bounds what a client buffers for one
#: server line (a verdict's CIGAR grows with its read).
MAX_READ_BYTES = 64 * 1024 * 1024

#: Every frame type the protocol knows, by direction. ``stats`` appears
#: in both: an empty client frame requests it, the server's carries the
#: telemetry payload.
CLIENT_FRAMES = ("hello", "read", "stats", "end")
SERVER_FRAMES = ("welcome", "verdict", "stats", "summary", "error")
FRAME_TYPES = CLIENT_FRAMES + tuple(
    kind for kind in SERVER_FRAMES if kind not in CLIENT_FRAMES
)


class ProtocolError(ValueError):
    """A frame violated the wire protocol (malformed, wrong type/version)."""


def _line(frame: dict) -> bytes:
    return (json.dumps(frame, sort_keys=True, separators=(",", ":")) + "\n").encode()


def encode_frame(frame: dict) -> bytes:
    """One frame's wire bytes: an NDJSON line (sorted keys, compact,
    trailing newline); for a ``read`` frame the header line, stamped
    with ``nbytes``, then the record's payload."""
    kind = frame.get("type")
    if kind not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {kind!r}")
    if kind != "read":
        return _line(frame)
    record = dict(frame["read"])
    payload = record.pop("payload")
    return _line({**frame, "nbytes": len(payload), "read": record}) + payload


def decode_frame(
    data: bytes | bytearray | str, *, expect: tuple[str, ...] | None = None
) -> dict:
    """Parse and validate one encoded frame.

    ``data`` is a frame line or a whole ``read`` frame (header line +
    payload, which lands on the record as a zero-copy ``memoryview``
    under ``"payload"``). A read header on its own decodes too, fully
    checked but without a payload: :func:`receive_frame` reads exactly
    ``nbytes`` more and attaches them.

    ``expect`` restricts the accepted frame types (e.g. a server decoding
    client input passes :data:`CLIENT_FRAMES`); anything else raises
    :class:`ProtocolError` instead of a bare KeyError downstream.
    """
    if isinstance(data, str):
        data = data.encode()
    end = data.find(b"\n") + 1
    if not end:
        raise ProtocolError(f"frame line has no terminating newline: {bytes(data[:80])!r}")
    try:
        frame = json.loads(data[:end])
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ProtocolError(f"frame is not valid JSON: {bytes(data[:80])!r}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(frame).__name__}")
    kind = frame.get("type")
    if kind not in FRAME_TYPES:
        raise ProtocolError(f"unknown frame type {kind!r}")
    if expect is not None and kind not in expect:
        raise ProtocolError(f"unexpected frame type {kind!r}; expected one of {expect}")
    rest = memoryview(data)[end:]
    if kind == "read":
        nbytes = _check_read_header(frame)
        if len(rest) == nbytes:
            frame["read"]["payload"] = rest
        elif rest:
            raise ProtocolError(f"read frame carries {len(rest)} payload bytes, not {nbytes}")
    elif rest:
        raise ProtocolError(f"{len(rest)} bytes trail a {kind!r} frame line")
    return frame


async def receive_frame(
    reader: asyncio.StreamReader, *, expect: tuple[str, ...] | None = None
) -> dict | None:
    """The next frame off a stream, or ``None`` at EOF between frames.

    A read frame's payload is only awaited once its header passed every
    check (``nbytes`` within :data:`MAX_READ_BYTES` and equal to what the
    counts imply), so a hostile header cannot make the receiver buffer.
    A peer that closes mid-payload raises ``asyncio.IncompleteReadError``.
    """
    try:
        line = await reader.readline()
    except ValueError as exc:  # StreamReader's limit overrun
        raise ProtocolError(f"frame line exceeds the reader's limit: {exc}") from exc
    if not line:
        return None
    frame = decode_frame(line, expect=expect)
    if frame["type"] == "read":
        frame["read"]["payload"] = await reader.readexactly(frame["nbytes"])
    return frame


# --- frame constructors -----------------------------------------------------


def hello_frame(session: str | None = None) -> dict:
    """Client session opener (the only frame carrying the version)."""
    frame: dict = {"type": "hello", "protocol": PROTOCOL_VERSION}
    if session is not None:
        frame["session"] = session
    return frame


def welcome_frame(session: str) -> dict:
    return {"type": "welcome", "protocol": PROTOCOL_VERSION, "session": session}


def read_frame(seq: int, read: SimulatedRead | SignalRead) -> dict:
    return {"type": "read", "seq": int(seq), "read": read_to_record(read)}


def verdict_frame(seq: int, accept: bool, latency_ms: float, outcome: dict) -> dict:
    return {
        "type": "verdict",
        "seq": int(seq),
        "accept": bool(accept),
        "latency_ms": round(float(latency_ms), 3),
        "outcome": outcome,
    }


def stats_request_frame() -> dict:
    """Client request for live server telemetry (valid any time)."""
    return {"type": "stats"}


def stats_frame(server: dict, exposition: str) -> dict:
    """Server telemetry: the stats summary block plus Prometheus text."""
    return {"type": "stats", "server": server, "exposition": str(exposition)}


def end_frame() -> dict:
    return {"type": "end"}


def summary_frame(session: str, totals: dict, latency: dict, server: dict) -> dict:
    """Session closer: totals, latency percentiles, server-wide stats."""
    return {
        "type": "summary",
        "session": session,
        "totals": totals,
        "latency": latency,
        "server": server,
    }


def error_frame(message: str) -> dict:
    return {"type": "error", "message": str(message)}


def check_hello(frame: dict) -> str | None:
    """Validate a ``hello`` and return the requested session name."""
    if frame.get("type") != "hello":
        raise ProtocolError(f"expected hello, got {frame.get('type')!r}")
    version = frame.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version!r} not supported (server speaks "
            f"{PROTOCOL_VERSION})"
        )
    session = frame.get("session")
    if session is not None and not isinstance(session, str):
        raise ProtocolError("session name must be a string")
    return session


# --- read records: the columnar handle on the wire ---------------------------

_JSON_TYPES = {"str": (str,), "int": (int,), "int | None": (int, type(None))}


def _wire_fields(handle_type: type) -> dict[str, tuple[type, ...]]:
    """A record's fields and their JSON types: the handle's, offsets left out."""
    return {
        field.name: _JSON_TYPES[field.type]
        for field in dataclasses.fields(handle_type)
        if not field.name.endswith("_offset")
    }


_RECORD_FIELDS = {"read": _wire_fields(ReadHandle), "signal": _wire_fields(SignalHandle)}
_READ_CLASSES = frozenset(read_class.value for read_class in ReadClass)


def _record_layout(record) -> ColumnarLayout:
    """Validate a read record and lay its payload out from the counts."""
    if not isinstance(record, dict):
        raise ProtocolError("read record must be a JSON object")
    kind = record.get("kind")
    if kind not in _RECORD_FIELDS:
        raise ProtocolError(f"unknown read record kind {kind!r}")
    values = {}
    for name, types in _RECORD_FIELDS[kind].items():
        # Exact types: JSON never yields a subclass, and bool is not an int here.
        if name not in record or type(record[name]) not in types:
            wanted = " or ".join(t.__name__ for t in types)
            raise ProtocolError(f"read record field {name!r} must be present and {wanted}")
        values[name] = record[name]
    if kind == "read":
        counts = (values["n_bases"],)
        if values["read_class"] not in _READ_CLASSES:
            raise ProtocolError(f"unknown read_class {values['read_class']!r}")
        try:
            check_read_metadata(
                values["strand"], values["ref_start"], values["ref_end"], values["seed"]
            )
        except ValueError as exc:
            raise ProtocolError(f"read {values['read_id']!r}: {exc}") from exc
    else:
        counts = (values["n_starts"], values["n_samples"])
        if values["declared_bases"] < values["n_starts"]:
            raise ProtocolError("declared_bases is below the signal's n_starts")
    if min(counts) < 0:
        raise ProtocolError(f"read record counts must be >= 0, got {counts}")
    return ColumnarLayout.single(**values)


def _check_read_header(frame: dict) -> int:
    """Validate a read frame's header line; returns its ``nbytes``."""
    seq, nbytes = frame.get("seq"), frame.get("nbytes")
    if type(seq) is not int:
        raise ProtocolError(f"read frame needs an int seq, got {seq!r}")
    if type(nbytes) is not int or not 0 <= nbytes <= MAX_READ_BYTES:
        raise ProtocolError(
            f"read frame nbytes must be an int in [0, {MAX_READ_BYTES}], got {nbytes!r}"
        )
    implied = _record_layout(frame.get("read")).total_bytes
    if nbytes != implied:
        raise ProtocolError(f"read frame nbytes {nbytes} != {implied} implied by its counts")
    return nbytes


def read_to_record(read: SimulatedRead | SignalRead) -> dict:
    """One read's wire record: its columnar handle minus the offsets,
    ``kind``, and under ``"payload"`` the packed one-read batch."""
    layout = ColumnarLayout.plan([read])
    payload = bytearray(layout.total_bytes)
    layout.pack_into(payload, [read])
    (handle,) = layout.handles
    kind = "signal" if isinstance(handle, SignalHandle) else "read"
    record = {name: getattr(handle, name) for name in _RECORD_FIELDS[kind]}
    record.update(kind=kind, payload=payload)
    return record


def read_from_record(record: dict) -> SimulatedRead | SignalRead:
    """Inverse of :func:`read_to_record`: the read as read-only views
    over the record's payload (no copy; the arrays keep it alive). A
    payload the read refuses (a non-finite sample, or base starts that
    decrease or point past the samples) is a protocol error, and so is
    a base read's payload :func:`check_read_payload` refuses, once per
    served read."""
    layout = _record_layout(record)
    payload = record.get("payload")
    if not isinstance(payload, bytes | bytearray | memoryview) or len(payload) != layout.total_bytes:
        raise ProtocolError(f"read record needs a {layout.total_bytes}-byte payload")
    try:
        read = ColumnarBatch(payload, layout.handles).reads(copy=False)[0]
        if isinstance(read, SimulatedRead):
            check_read_payload(read.true_codes, read.qualities)
    except ValueError as exc:
        raise ProtocolError(f"read {record['read_id']!r}: {exc}") from exc
    return read

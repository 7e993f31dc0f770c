"""Versioned wire protocol for the network estimate service.

One frame = a 4-byte big-endian length prefix + a UTF-8 JSON object.
Length-prefixing keeps the codec trivial and misframing detectable: a
frame that claims more than ``max_frame`` bytes is rejected before a
single body byte is read, and a connection that ends mid-frame raises
:class:`FrameError` instead of silently truncating a request.

Every payload carries the protocol version (``"v"``) and a client-chosen
request id (``"id"``); responses echo the id, so a client may pipeline
requests and match responses out of order.

Request frames (client -> server)::

    {"v": 1, "id": 7, "op": "hello",  "token": "..."}
    {"v": 1, "id": 8, "op": "submit", "plan": {...Plan.to_dict()...},
                      "deadline_s": 2.5}
    {"v": 1, "id": 9, "op": "gather", "tickets": ["t3"], "timeout": 30.0}
    {"v": 1, "id": 10, "op": "estimate", "plan": {...Plan.to_dict()...},
                       "deadline_s": 2.5, "timeout": 30.0}
    {"v": 1, "id": 11, "op": "status", "mix": false}
    {"v": 1, "id": 12, "op": "warm",   "mix": {...mix payload...}}
    {"v": 1, "id": 13, "op": "shutdown"}

``estimate`` is ``submit`` then ``gather`` of its one ticket in a single
round trip; its reply is the gathered entry (``"report"`` on success, an
error frame of the ticket's kind otherwise).  ``timeout`` (optional,
``gather`` and ``estimate``) bounds the server-side wait in seconds: a
finite number >= 0, capped by the server; anything else is a
``protocol`` error.

``deadline_s`` (optional, ``submit`` and ``estimate``) is the request's
*remaining* time budget in seconds — a relative duration, not a
timestamp, so the two ends never need synchronized clocks (the gRPC
convention).  The server rebuilds a local monotonic deadline from it: a
request that arrives already expired is rejected with kind
``deadline_exceeded``, and a ticket whose budget runs out
mid-computation resolves to the same structured error instead of
silence.  Missing or malformed values mean "no deadline" — old clients
keep working unchanged.

Response frames (server -> client)::

    {"v": 1, "id": 8, "ok": true, ...op-specific fields...}
    {"v": 1, "id": 8, "ok": false, "error": {
        "kind": "backpressure",        # see ERROR_KINDS
        "message": "...",
        "retry_after": 0.25,           # seconds; optional
        "report": {...},               # AnalysisReport; admission only
    }}

The ``report`` field serializes the static-analysis diagnostics of a
plan rejected at admission (PR 6's :class:`AdmissionError`), so a remote
client sees exactly what an in-process caller would.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Dict, List, Optional, Tuple

from repro import codec
from repro.analysis import AnalysisReport
from repro.errors import ReproError
from repro.faults import InjectedFault, fault_point

#: Bump on incompatible frame-layout changes; both ends check it.
PROTOCOL_VERSION = 1

#: Default ceiling on one frame's JSON body (requests and responses).
#: A HELR-class plan payload is ~11 KB; a warm-mix frame carries dozens
#: of plans — 4 MiB leaves two orders of magnitude of headroom while
#: still bounding what one client can make the server buffer.
DEFAULT_MAX_FRAME = 4 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Machine-readable failure classes an error frame may carry.
ERROR_KINDS = (
    "protocol",      # malformed frame / unknown op / bad version
    "auth",          # missing, unknown or unauthorized token
    "plan",          # plan payload failed to parse/validate
    "admission",     # static verification rejected the plan (has report)
    "rate",          # tenant token-bucket empty (has retry_after)
    "quota",         # tenant in-flight quota exhausted (has retry_after)
    "backpressure",  # server queue full (has retry_after)
    "worker",        # execution failed in a worker process
    "timeout",       # gather wait expired (the ticket stays valid)
    "shutdown",      # server is draining and not accepting work
    #: The request's ``deadline_s`` budget expired — on arrival, in the
    #: queue, or mid-computation.  Terminal: the ticket is consumed and
    #: the work was skipped or abandoned; resubmit with a fresh budget.
    "deadline_exceeded",
    #: A live-but-hung shard worker was killed by the pool's stall
    #: reaper with this request in flight and the requeue budget ran
    #: out (see ShardPool.MAX_REQUEUES) — the payload itself likely
    #: wedges workers.
    "stalled_worker",
    "internal",      # anything else
)


class FrameError(ReproError):
    """A frame violated the wire protocol (length, encoding, or JSON)."""


# -- codec ----------------------------------------------------------------------

class EncodedJSON:
    """One JSON value, already encoded to UTF-8 bytes.

    As a top-level value of a payload, :func:`encode_json` (and so
    :func:`encode_frame`) writes these bytes into the body as they are:
    a cached report is encoded once, not once per reply.  The body
    decodes exactly as if the value itself had been in the payload.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes):
        self.data = data


def encode_json(payload: Dict[str, object]) -> bytes:
    """``payload`` as a compact UTF-8 JSON object, each top-level
    :class:`EncodedJSON` value spliced in as its bytes."""
    spliced = [(key, value) for key, value in payload.items()
               if isinstance(value, EncodedJSON)]
    if not spliced:
        return json.dumps(payload, separators=(",", ":")).encode("utf-8")
    rest = {key: value for key, value in payload.items()
            if not isinstance(value, EncodedJSON)}
    parts = [json.dumps(rest, separators=(",", ":")).encode("utf-8")[1:-1]] \
        if rest else []
    parts += [json.dumps(key).encode("utf-8") + b":" + value.data
              for key, value in spliced]
    return b"{" + b",".join(parts) + b"}"


def encode_frame(payload: Dict[str, object], *,
                 max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Serialize one payload to its length-prefixed wire form."""
    body = encode_json(payload)
    if len(body) > max_frame:
        raise FrameError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{max_frame}-byte limit"
        )
    try:
        if fault_point("net.encode", context=str(payload.get("op", ""))) \
                == "corrupt":
            # Flip the last body byte: a correctly framed but damaged
            # payload, so the receiver's JSON-level recovery runs.
            body = body[:-1] + bytes([body[-1] ^ 0x01])
    except InjectedFault as exc:
        raise FrameError(str(exc)) from exc
    return _HEADER.pack(len(body)) + body


def decode_frames(buffer: bytes, *, max_frame: int = DEFAULT_MAX_FRAME
                  ) -> Tuple[List[Dict[str, object]], bytes]:
    """Split a byte buffer into complete payloads plus the unconsumed tail.

    The synchronous mirror of :func:`read_frame` (tests and non-asyncio
    callers).  Raises :class:`FrameError` on an oversized declared length
    or a body that is not a JSON object.
    """
    frames: List[Dict[str, object]] = []
    offset = 0
    while len(buffer) - offset >= _HEADER.size:
        (length,) = _HEADER.unpack_from(buffer, offset)
        if length > max_frame:
            raise FrameError(
                f"declared frame length {length} exceeds the "
                f"{max_frame}-byte limit"
            )
        if len(buffer) - offset - _HEADER.size < length:
            break
        start = offset + _HEADER.size
        frames.append(_parse_body(buffer[start:start + length]))
        offset = start + length
    return frames, buffer[offset:]


def _parse_body(body: bytes) -> Dict[str, object]:
    # An injected decode fault must surface as FrameError — it is the
    # one exception type every reader loop already handles gracefully.
    try:
        if fault_point("net.decode") == "corrupt" and body:
            body = body[:-1] + bytes([body[-1] ^ 0x01])
    except InjectedFault as exc:
        raise FrameError(str(exc)) from exc
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and an integer literal
        # past the int-digits limit; RecursionError, arrays or objects
        # nested deeper than the parser's stack.
        raise FrameError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


async def read_frame(reader: asyncio.StreamReader, *,
                     max_frame: int = DEFAULT_MAX_FRAME
                     ) -> Optional[Dict[str, object]]:
    """Read one frame; ``None`` on clean EOF (peer closed between frames).

    EOF *inside* a frame — header or body — is a protocol violation and
    raises :class:`FrameError`, as does an oversized declared length
    (detected before the body is buffered).
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            f"connection closed mid-header ({len(exc.partial)}/"
            f"{_HEADER.size} bytes)"
        ) from exc
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise FrameError(
            f"declared frame length {length} exceeds the "
            f"{max_frame}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} "
            f"body bytes)"
        ) from exc
    return _parse_body(body)


async def write_frame(writer: asyncio.StreamWriter,
                      payload: Dict[str, object], *,
                      max_frame: int = DEFAULT_MAX_FRAME) -> None:
    writer.write(encode_frame(payload, max_frame=max_frame))
    await writer.drain()


# -- payload builders -----------------------------------------------------------

def ok_payload(req_id: object, **fields: object) -> Dict[str, object]:
    payload: Dict[str, object] = {"v": PROTOCOL_VERSION, "id": req_id,
                                  "ok": True}
    payload.update(fields)
    return payload


def error_payload(req_id: object, kind: str, message: str, *,
                  retry_after: Optional[float] = None,
                  report: Optional[AnalysisReport] = None
                  ) -> Dict[str, object]:
    if kind not in ERROR_KINDS:
        raise ValueError(f"unknown error kind {kind!r}")
    error: Dict[str, object] = {"kind": kind, "message": message}
    if retry_after is not None:
        error["retry_after"] = round(max(0.0, float(retry_after)), 4)
    if report is not None:
        error["report"] = codec.to_dict(report)
    return {"v": PROTOCOL_VERSION, "id": req_id, "ok": False, "error": error}


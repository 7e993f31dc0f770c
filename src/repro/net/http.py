"""Thin HTTP/1.1 adapter over the TCP estimate server.

Curl-ability, not a web framework: the adapter parses just enough
HTTP/1.1 (request line, headers, ``Content-Length`` body) to map three
endpoints onto the same admission/queueing/dispatch path the native
frame protocol uses — no second implementation of any policy.

* ``GET /healthz`` — liveness (no auth), 200 once the server accepts;
* ``GET /v1/status`` — the ``status`` op's payload as JSON;
* ``POST /v1/estimate`` — body is one ``Plan.to_dict()`` JSON object;
  blocks until the report is ready and returns it (the frame
  protocol's ``estimate`` op: one coroutine serves both).

Authentication is ``Authorization: Bearer <token>`` against the same
tenant registry (open registries accept anything, including no header).
Error kinds map onto status codes (429 + ``Retry-After`` for rate/quota,
503 + ``Retry-After`` for backpressure, 422 for admission rejections
with the diagnostics in the body), so generic HTTP clients back off
correctly without speaking the frame protocol.

Each connection serves one request (``Connection: close``): the adapter
is for probes, dashboards and ad-hoc estimates; sustained load belongs
on the frame protocol, whose clients pipeline and batch.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro import codec
from repro.api.plan import Plan
from repro.errors import ParameterError
from repro.net import protocol
from repro.net.server import Rejection
from repro.net.tenants import AuthError

if TYPE_CHECKING:
    from repro.net.server import EstimateServer

#: Protocol error kind -> HTTP status.
STATUS_BY_KIND = {
    "protocol": 400,
    "plan": 400,
    "auth": 401,
    "admission": 422,
    "rate": 429,
    "quota": 429,
    "backpressure": 503,
    "shutdown": 503,
    "timeout": 504,
    "deadline_exceeded": 504,
    "worker": 500,
    "stalled_worker": 500,
    "internal": 500,
}

_REASONS = {
    200: "OK", 400: "Bad Request", 401: "Unauthorized", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Bound on request head + body (reuses the frame limit's rationale).
_MAX_BODY = protocol.DEFAULT_MAX_FRAME


class HTTPFrontend:
    """Serve the HTTP endpoints of one :class:`EstimateServer`."""

    def __init__(self, server: "EstimateServer"):
        self.server = server
        self._listener: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        if self._listener is None:
            raise ParameterError("HTTP frontend is not started")
        return self._listener.sockets[0].getsockname()[1]

    async def start(self, host: str, port: int) -> None:
        self._listener = await asyncio.start_server(self._handle, host, port)

    async def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()

    # -- request handling -------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, payload, retry_after = await self._respond(reader)
        except asyncio.CancelledError:
            writer.close()
            raise
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            status, retry_after = 500, None
            payload = _error_body("internal",
                                  f"{type(exc).__name__}: {exc}")
        body = protocol.encode_json(payload)
        reason = _REASONS.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
        try:
            writer.write(head.encode("ascii") + b"\r\n" + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, Dict[str, object], Optional[float]]:
        try:
            method, path, headers, body = await _read_request(reader)
        except _BadRequest as exc:
            return exc.status, _error_body("protocol", str(exc)), None

        if path == "/healthz":
            if method != "GET":
                return 405, _error_body("protocol", "healthz is GET"), None
            return 200, {"ok": True, "draining": self.server.draining}, None

        try:
            tenant = self.server.registry.authenticate(_token(headers))
            if path == "/v1/status":
                if method != "GET":
                    return 405, _error_body("protocol", "status is GET"), None
                return 200, {"ok": True, **self.server.status_payload()}, None
            if path == "/v1/estimate":
                if method != "POST":
                    return 405, _error_body("protocol",
                                            "estimate is POST"), None
                return await self._estimate(tenant, body)
        except AuthError as exc:
            return 401, _error_body("auth", str(exc)), None
        except Rejection as rej:
            body_payload = _error_body(rej.kind, str(rej))
            if rej.report is not None:
                body_payload["error"]["report"] = codec.to_dict(rej.report)
            return (STATUS_BY_KIND.get(rej.kind, 500), body_payload,
                    rej.retry_after)
        return 404, _error_body("protocol", f"no such endpoint {path}"), None

    async def _estimate(self, tenant, body: bytes
                        ) -> Tuple[int, Dict[str, object], Optional[float]]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise Rejection("plan", f"body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise Rejection("plan", "body must be a Plan JSON object")
        # Accept both the bare Plan object and the framed-protocol shape
        # ``{"plan": {...}}`` — clients coming from the TCP API wrap it.
        if isinstance(payload.get("plan"), dict):
            payload = payload["plan"]
        try:
            plan = Plan.from_dict(payload)
        except ParameterError as exc:
            raise Rejection("plan", f"plan payload rejected: {exc}") from exc
        # The frame protocol's ``estimate`` op, so one policy decides
        # every error kind.
        result = await self.server.admit_and_gather(tenant, plan)
        if result["ok"]:
            return 200, {"ok": True, "digest": plan.digest,
                         "report": result["report"]}, None
        error = result["error"]
        return (STATUS_BY_KIND.get(error["kind"], 500),
                {"ok": False, "error": error}, None)


def _error_body(kind: str, message: str) -> Dict[str, object]:
    return {"ok": False, "error": {"kind": kind, "message": message}}


class _BadRequest(Exception):
    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _token(headers: Dict[str, str]) -> Optional[str]:
    auth = headers.get("authorization")
    if auth is None:
        return None
    scheme, _, credential = auth.partition(" ")
    if scheme.lower() != "bearer" or not credential.strip():
        raise AuthError("Authorization header must be 'Bearer <token>'")
    return credential.strip()


async def _read_request(reader: asyncio.StreamReader
                        ) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, headers, body)."""
    try:
        request_line = await reader.readline()
    except (ValueError, ConnectionError) as exc:
        raise _BadRequest(f"unreadable request line: {exc}") from exc
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest("malformed HTTP request line")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length", "0") or "0"
    try:
        length = int(declared)
    except ValueError:
        raise _BadRequest(f"Content-Length {declared!r} is not a number") \
            from None
    if length < 0:
        raise _BadRequest(f"Content-Length {length} is negative")
    if length > _MAX_BODY:
        raise _BadRequest(
            f"body of {length} bytes exceeds the {_MAX_BODY}-byte limit",
            status=413,
        )
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as exc:
        raise _BadRequest(f"body ended after {len(exc.partial)} of "
                          f"{length} bytes") from exc
    return method, path.split("?", 1)[0], headers, body

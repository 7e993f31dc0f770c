"""Asyncio client for the network estimate service.

:class:`EstimateClient` speaks the frame protocol end-to-end: it
pipelines requests (a background reader matches responses to requests by
id, so many submits/gathers are in flight on one connection), rebuilds
typed results (``RunReport`` via the wire codec, ``AnalysisReport`` on
admission rejections), and turns the server's structured error frames
into typed exceptions — the retryable ones (:class:`RateLimited`,
:class:`QuotaExceeded`, :class:`Backpressure`) carry the server's
``retry_after`` hint, which :meth:`EstimateClient.estimate` honors when
asked to retry.

Typical use::

    async with EstimateClient("127.0.0.1", 7420, token="s3cret") as cli:
        report = await cli.estimate(plan)           # one frame each way
        reports = await cli.estimate_many(plans)    # pipelined batch
"""

from __future__ import annotations

import asyncio
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro import codec
from repro.analysis import AnalysisReport
from repro.api.plan import Plan, report_from_dict
from repro.errors import ReproError
from repro.faults import Deadline, DeadlineExceeded
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    FrameError,
    read_frame,
    write_frame,
)
from repro.net.warming import build_mix_payload

if TYPE_CHECKING:
    from repro.api.backends import RunReport


class RemoteError(ReproError):
    """An error frame from the server, rebuilt as a typed exception."""

    def __init__(self, kind: str, message: str, *,
                 retry_after: Optional[float] = None, report=None):
        super().__init__(message)
        self.kind = kind
        self.retry_after = retry_after
        #: The server-side :class:`~repro.analysis.AnalysisReport` for
        #: admission rejections; ``None`` otherwise.
        self.report = report


class RemoteAdmissionError(RemoteError):
    """The server's static analysis rejected the plan (see ``.report``)."""


class RateLimited(RemoteError):
    """Tenant token bucket empty; retry after ``.retry_after`` seconds."""


class QuotaExceeded(RemoteError):
    """Tenant in-flight quota exhausted; gather results or back off."""


class Backpressure(RemoteError):
    """Server queue full; retry after ``.retry_after`` seconds."""


class RemoteDeadlineExceeded(RemoteError):
    """The server answered ``deadline_exceeded``: the request's budget
    ran out before (or while) it was computed.  Terminal, not retryable
    — the same budget would expire again."""


_ERROR_CLASSES = {
    "admission": RemoteAdmissionError,
    "rate": RateLimited,
    "quota": QuotaExceeded,
    "backpressure": Backpressure,
    "deadline_exceeded": RemoteDeadlineExceeded,
}

#: Error kinds :meth:`EstimateClient.estimate` may transparently retry.
RETRYABLE_KINDS = ("rate", "quota", "backpressure")


def backoff_delay(attempt: int, hint: Optional[float] = None,
                  rng: Optional[random.Random] = None, *,
                  base: float = 0.05, cap: float = 2.0) -> float:
    """Capped exponential backoff with full-range jitter.

    ``(hint or base) * 2**attempt`` capped at ``cap``, then scaled by a
    uniform factor in ``[0.5, 1.5)`` so a fleet of clients refused at
    the same instant does not re-arrive in lockstep (a retry storm
    re-synchronizing against a recovering server).  Deterministic when
    given a seeded ``rng`` — chaos tests replay exact retry schedules.
    """
    delay = min(cap, (hint if hint else base) * (2.0 ** attempt))
    jitter = (rng or random).random()
    return delay * (0.5 + jitter)


def _raise_error(error: Dict[str, object]) -> None:
    kind = str(error.get("kind", "internal"))
    report = error.get("report")
    if report is not None:
        report = codec.from_dict(AnalysisReport, report)
    cls = _ERROR_CLASSES.get(kind, RemoteError)
    raise cls(kind, str(error.get("message", "remote error")),
              retry_after=error.get("retry_after"), report=report)


class EstimateClient:
    """One authenticated, pipelined connection to an estimate server."""

    def __init__(self, host: str, port: int, *,
                 token: Optional[str] = None,
                 max_frame: int = DEFAULT_MAX_FRAME,
                 timeout: float = 60.0,
                 backoff_seed: Optional[int] = None):
        self.host = host
        self.port = port
        self.token = token
        self.max_frame = max_frame
        #: Client-side ceiling on one request/response round trip.
        self.timeout = timeout
        #: Jitter stream for retry backoff; seed it for reproducible
        #: retry schedules (chaos tests), leave None for real traffic.
        self._rng = random.Random(backoff_seed)
        #: Set by ``hello``: tenant name, limits, server admission mode.
        self.session: Dict[str, object] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._waiting: Dict[int, asyncio.Future] = {}
        self._seq = 0
        self._write_lock = asyncio.Lock()

    # -- lifecycle --------------------------------------------------------------

    async def connect(self) -> "EstimateClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )
        self.session = await self._request("hello", token=self.token)
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_waiters(ConnectionError("client closed"))

    async def __aenter__(self) -> "EstimateClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- plumbing ---------------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader,
                                         max_frame=self.max_frame)
                if frame is None:
                    self._fail_waiters(
                        ConnectionError("server closed the connection")
                    )
                    return
                future = self._waiting.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except asyncio.CancelledError:
            raise
        except (FrameError, ConnectionError, OSError) as exc:
            self._fail_waiters(exc)

    def _fail_waiters(self, exc: BaseException) -> None:
        waiting, self._waiting = self._waiting, {}
        for future in waiting.values():
            if not future.done():
                future.set_exception(exc)

    async def _request(self, op: str,
                       rpc_timeout: Optional[float] = None,
                       **fields: object) -> Dict[str, object]:
        """Send one frame and await its (id-matched) response payload."""
        if self._writer is None:
            raise ConnectionError("client is not connected")
        self._seq += 1
        req_id = self._seq
        frame: Dict[str, object] = {"v": PROTOCOL_VERSION, "id": req_id,
                                    "op": op}
        frame.update({k: v for k, v in fields.items() if v is not None})
        future = asyncio.get_running_loop().create_future()
        self._waiting[req_id] = future
        try:
            async with self._write_lock:
                # Re-check under the lock: close() may have nulled the
                # writer while we awaited it.  A clean ConnectionError
                # here, never an AttributeError.
                writer = self._writer
                if writer is None:
                    raise ConnectionError("client closed")
                await write_frame(writer, frame, max_frame=self.max_frame)
            response = await asyncio.wait_for(
                future,
                self.timeout if rpc_timeout is None else rpc_timeout,
            )
        finally:
            self._waiting.pop(req_id, None)
        if not response.get("ok"):
            _raise_error(response.get("error") or {})
        return response

    # -- operations -------------------------------------------------------------

    async def submit(self, plan: Plan, *,
                     deadline: Optional[Deadline] = None) -> str:
        """Submit one plan; returns its ticket id (gather it later).

        ``deadline`` travels in the frame as a remaining-seconds budget
        (``deadline_s``) — the server rejects expired arrivals and
        answers ``deadline_exceeded`` if the budget runs out later.
        """
        response = await self._request(
            "submit", plan=plan.to_dict(),
            deadline_s=deadline.to_wire() if deadline else None,
        )
        return str(response["ticket"])

    async def gather(self, tickets: Sequence[str], *,
                     timeout: Optional[float] = None,
                     deadline: Optional[Deadline] = None,
                     ) -> List["RunReport"]:
        """Resolve tickets into reports (order preserved); raises on the
        first failed ticket.  With a ``deadline``, both the server-side
        wait and the client-side RPC timeout are clipped to it."""
        response = await self._request(
            "gather", tickets=list(tickets),
            **self._wait_fields(timeout, deadline),
        )
        reports = []
        for entry in response["results"]:
            if not entry.get("ok"):
                _raise_error(entry.get("error") or {})
            reports.append(report_from_dict(entry["report"]))
        return reports

    def _wait_fields(self, timeout: Optional[float],
                     deadline: Optional[Deadline]) -> Dict[str, object]:
        """The server-side wait (``timeout``) and the client-side RPC
        watchdog of one ticket wait; with a ``deadline``, both are
        clipped to it."""
        if deadline is None:
            return {"timeout": timeout}
        remaining = deadline.remaining()
        return {
            "timeout": remaining if timeout is None
            else min(timeout, remaining),
            # Give the server a moment to answer `timeout` cleanly
            # before the client-side watchdog gives up on the RPC.
            "rpc_timeout": min(self.timeout, remaining + 1.0),
        }

    async def estimate(self, plan: Plan, *, retries: int = 0,
                       deadline: "Union[None, float, Deadline]" = None,
                       ) -> "RunReport":
        """Estimate one plan: one ``estimate`` frame out, its report back.

        The server admits the plan and answers when it is resolved; a
        warm plan is answered at admission.  ``retries`` > 0
        transparently re-sends after retryable refusals (rate, quota,
        backpressure), sleeping a capped exponential backoff seeded from
        the server's ``retry_after`` hint (with jitter, so refused
        fleets desynchronize) — load shed
        by the server becomes deferral, not failure, up to the retry
        budget.  ``deadline`` (seconds, or a
        :class:`~repro.faults.Deadline`) bounds the *whole* call,
        retries included: when the next backoff would overrun it, the
        last refusal is re-raised as
        :class:`~repro.faults.DeadlineExceeded` — a refusing server can
        never pin a client forever.
        """
        deadline = Deadline.coerce(deadline)
        attempt = 0
        while True:
            if deadline is not None and deadline.expired:
                raise DeadlineExceeded(
                    f"deadline expired before plan {plan.name} was "
                    f"submitted"
                )
            try:
                response = await self._request(
                    "estimate", plan=plan.to_dict(),
                    deadline_s=deadline.to_wire() if deadline else None,
                    **self._wait_fields(None, deadline),
                )
                return report_from_dict(response["report"])
            except RemoteError as exc:
                if exc.kind not in RETRYABLE_KINDS or attempt >= retries:
                    raise
                delay = backoff_delay(attempt, exc.retry_after, self._rng)
                attempt += 1
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= delay:
                        raise DeadlineExceeded(
                            f"deadline expired after {attempt} attempt(s) "
                            f"for plan {plan.name}; last refusal: "
                            f"{exc.kind}"
                        ) from exc
                await asyncio.sleep(delay)

    async def estimate_many(self, plans: Sequence[Plan], *,
                            retries: int = 0,
                            deadline: "Union[None, float, Deadline]" = None,
                            ) -> List["RunReport"]:
        """Pipelined batch estimate over this one connection."""
        deadline = Deadline.coerce(deadline)
        return list(await asyncio.gather(
            *(self.estimate(plan, retries=retries, deadline=deadline)
              for plan in plans)
        ))

    async def status(self, *, mix: bool = False) -> Dict[str, object]:
        response = await self._request("status", mix=mix or None)
        return {k: v for k, v in response.items()
                if k not in ("v", "id", "ok")}

    async def warm(self, entries: Sequence[Tuple[Plan, int]]) -> int:
        """Pre-submit a request mix server-side; returns plans warmed."""
        response = await self._request(
            "warm", mix=build_mix_payload(list(entries))
        )
        return int(response["warmed"])

    async def shutdown(self) -> Dict[str, object]:
        """Ask the server to drain and stop (admin tenants only)."""
        return await self._request("shutdown")

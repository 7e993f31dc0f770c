"""The asyncio network front-end: multi-tenant estimate serving over TCP.

:class:`EstimateServer` puts a wire protocol (:mod:`repro.net.protocol`)
in front of :class:`~repro.serve.aio.AsyncEstimateService` and adds the
pieces an in-process service never needed:

* **sessions** — connections authenticate with a tenant token
  (``hello``); all of a tenant's connections share one quota/rate state;
* **load-based admission** — PR 6 gated ``submit()`` on *validity*
  (static verification); the server adds the *load* half: a per-tenant
  token bucket and in-flight quota, plus a bounded global queue.  A
  request over any bound is answered immediately with a structured
  error frame carrying ``retry_after`` — deferred, not dropped;
* **fair dequeue** — under backlog, queued submissions enter the
  micro-batch round-robin across tenants, so one chatty tenant cannot
  starve the rest;
* **worker supervision** — a :class:`WorkerSupervisor` heals the shard
  pool between batches (the pool requeues in-flight plans of a worker
  that dies mid-batch, so a kill loses no submitted request) and
  ``SIGHUP`` triggers a graceful rolling restart;
* **speculative warming** — the observed digest stream predicts the
  next requests; on idle the server pre-submits the top-K mix so caches
  stay hot across evictions and restarts.

The request path stays the serving stack's: submissions land in the
async service's micro-batch, dedup by digest, hit the report LRU / disk
cache, and shard across worker processes — the server only decides
*whether* and *in which order* they get there.  The one exception is a
warm plan: once every admission gate has passed, a digest the service
has already admitted and holds in its report LRU is answered there and
then, on the event loop (:meth:`EstimateService.hit
<repro.serve.service.EstimateService.hit>`).  Its ticket is born
resolved and never queues, dispatches or waits for a flush, and the
``estimate`` op (admit, then gather, in one frame each way) returns its
report at once.

A warm ``estimate`` need not even carry its plan: each tenant keeps the
plans it sent in full, by digest (bounded by ``cache_size``), so a frame
that names only a ``digest`` runs the same gates and the same hit on the
kept :class:`~repro.api.plan.Plan` object, with nothing parsed or
rebuilt.  A digest the tenant has no plan for — never sent, evicted, or
sent before a restart — is answered ``need_plan``, and the client sends
the plan in full.
"""

from __future__ import annotations

import asyncio
import math
import signal
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro import codec
from repro.api.plan import Plan, report_to_dict
from repro.errors import ParameterError, ReproError
from repro.faults import Deadline, DeadlineExceeded, fault_point
from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    EncodedJSON,
    FrameError,
    encode_json,
    error_payload,
    ok_payload,
    read_frame,
    write_frame,
)
from repro.net.supervisor import WorkerSupervisor
from repro.net.tenants import (
    AuthError,
    FairQueue,
    TenantRegistry,
    TenantSpec,
    TenantState,
)
from repro.net.warming import DigestStream, parse_mix_payload
from repro.serve import (
    AdmissionError,
    AsyncEstimateService,
    EstimateService,
    StalledWorker,
)

if TYPE_CHECKING:
    from repro.api.backends import RunReport

#: Frame ops the server understands.
OPS = ("hello", "submit", "gather", "estimate", "status", "warm",
       "shutdown")


class Rejection(ReproError):
    """A request refused at the protocol boundary (before any queueing).

    ``kind`` is one of :data:`repro.net.protocol.ERROR_KINDS`;
    ``retry_after`` (seconds) is set for load-based refusals so clients
    defer instead of hammering; ``report`` carries the static-analysis
    diagnostics for admission refusals.
    """

    def __init__(self, kind: str, message: str, *,
                 retry_after: Optional[float] = None, report=None):
        super().__init__(message)
        self.kind = kind
        self.retry_after = retry_after
        self.report = report


@dataclass
class ServerConfig:
    """Tuning knobs of one :class:`EstimateServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (read it back from .port)
    http_port: Optional[int] = None  # enable the HTTP/1.1 adapter
    workers: int = 2  # shard-pool size (0/1 = in-process execution)
    admission: str = "strict"  # validity half (PR 6): strict | warn | off
    disk_cache: bool = True
    cache_size: int = 256
    #: Load half of admission: global bound on accepted-but-undispatched
    #: submissions; past it, submits get backpressure frames.
    max_queue_depth: int = 256
    #: Most submissions dispatched into the micro-batch per queue drain.
    batch_max: int = 64
    max_frame: int = DEFAULT_MAX_FRAME
    #: Seconds of quiet before the observed top-K mix is pre-submitted.
    idle_warm_after: float = 2.0
    warm_top_k: int = 4
    warming: bool = True
    supervisor_interval: float = 1.0
    #: Default/ceiling for a gather's server-side wait.
    gather_timeout: float = 120.0
    #: Grace given to in-flight requests during a draining stop.
    drain_timeout: float = 30.0
    #: Kill a live-but-hung shard worker after this many seconds of no
    #: progress mid-batch (its jobs requeue).  ``None``/``0`` disables.
    stall_timeout: Optional[float] = 30.0
    tenants: Sequence[TenantSpec] = ()
    #: (plan, count) entries pre-warmed at startup (a saved request mix).
    warm_mix: Sequence[Tuple[Plan, int]] = ()

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1 or self.batch_max < 1:
            raise ParameterError(
                "max_queue_depth and batch_max must be positive"
            )


@dataclass
class ServerStats:
    """Monotonic counters of one server lifetime."""

    connections: int = 0
    accepted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_rate: int = 0
    rejected_quota: int = 0
    rejected_backpressure: int = 0
    rejected_admission: int = 0
    rejected_shutdown: int = 0
    #: Submits that arrived with their ``deadline_s`` already expired.
    rejected_deadline: int = 0
    #: Accepted tickets answered ``deadline_exceeded`` (not in ``failed``).
    deadline_exceeded: int = 0
    protocol_errors: int = 0
    warmed: int = 0
    idle_warms: int = 0
    gathered: int = 0
    #: Estimates answered from a digest-only frame (no plan shipped).
    by_digest: int = 0
    #: Digest-only estimates refused ``need_plan``: the tenant has no
    #: plan under that digest.
    need_plan: int = 0

    def as_row(self) -> Dict[str, int]:
        return dict(self.__dict__)


class Ticket:
    """One accepted submission: resolves exactly once, gathered at most once."""

    __slots__ = ("id", "tenant", "plan", "event", "report", "report_json",
                 "error", "created_at", "resolved_at", "deadline")

    def __init__(self, ticket_id: str, tenant: TenantState, plan: Plan,
                 now: float, deadline: Optional[Deadline] = None):
        self.id = ticket_id
        self.tenant = tenant
        self.plan = plan
        self.event = asyncio.Event()
        self.report: Optional["RunReport"] = None
        #: The report's JSON bytes, when the report came from the LRU.
        self.report_json: Optional[bytes] = None
        self.error: Optional[BaseException] = None
        self.created_at = now
        self.resolved_at: Optional[float] = None
        #: Local monotonic deadline rebuilt from the frame's
        #: ``deadline_s`` budget; ``None`` = unbounded.
        self.deadline = deadline

    @property
    def resolved(self) -> bool:
        return self.event.is_set()

    def resolve(self, report: "RunReport", now: float) -> None:
        self.report = report
        self.resolved_at = now
        self.event.set()

    def fail(self, error: BaseException, now: float) -> None:
        self.error = error
        self.resolved_at = now
        self.event.set()


class EstimateServer:
    """Serve estimate plans to remote tenants over length-prefixed TCP."""

    def __init__(self, config: Optional[ServerConfig] = None):
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self.registry = TenantRegistry(self.config.tenants,
                                       max_plans=self.config.cache_size)
        self._queue = FairQueue(self.config.max_queue_depth)
        self._queue_event = asyncio.Event()
        self._stream = DigestStream()
        self._tickets: Dict[str, Ticket] = {}
        self._ticket_seq = 0
        self._latency_ewma = 0.05  # seconds; seeds the retry-after hints
        self._idle_warmed = True  # nothing observed yet: nothing to warm
        self._draining = False
        self._last_activity = 0.0
        self._tasks: Set[asyncio.Task] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._http = None
        self._stopping = False
        self._stopped = asyncio.Event()
        self._sighup_installed = False
        service = EstimateService(
            workers=self.config.workers,
            admission=self.config.admission,
            disk_cache=self.config.disk_cache,
            cache_size=self.config.cache_size,
            stall_timeout=self.config.stall_timeout,
        )
        self.service = AsyncEstimateService(service)
        self.supervisor = WorkerSupervisor(
            service.pool, interval=self.config.supervisor_interval
        )

    # -- lifecycle --------------------------------------------------------------

    @property
    def port(self) -> int:
        """The actually bound TCP port (useful with ``port=0``)."""
        if self._server is None:
            raise ParameterError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def http_port(self) -> Optional[int]:
        return None if self._http is None else self._http.port

    @property
    def draining(self) -> bool:
        """Whether new submissions are refused (shutdown under way)."""
        return self._draining

    async def start(self) -> "EstimateServer":
        loop = asyncio.get_running_loop()
        self._last_activity = loop.time()
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        self._spawn(self._dispatch_loop(), name="dispatch")
        if self.config.warming:
            self._spawn(self._warm_loop(), name="warmer")
        pool = self.service.service.pool
        if pool is not None:
            # Pre-fork the workers: the first cold burst should shard,
            # not pay worker spawn latency, and status/kill tooling can
            # see pids immediately.
            await loop.run_in_executor(None, pool.worker_pids)
        self.supervisor.start()
        self._install_sighup(loop)
        if self.config.http_port is not None:
            from repro.net.http import HTTPFrontend

            self._http = HTTPFrontend(self)
            await self._http.start(self.config.host, self.config.http_port)
        if self.config.warm_mix:
            plans = [plan for plan, _count in self.config.warm_mix]
            self._spawn(self._warm_plans(plans), name="startup-warm")
        return self

    def _install_sighup(self, loop: asyncio.AbstractEventLoop) -> None:
        """Graceful worker recycling on ``SIGHUP`` (unix, main thread only)."""
        if threading.current_thread() is not threading.main_thread():
            return
        if not hasattr(signal, "SIGHUP"):
            return  # pragma: no cover - non-unix
        try:
            loop.add_signal_handler(
                signal.SIGHUP,
                lambda: self._spawn(self.supervisor.rolling_restart(),
                                    name="sighup-restart"),
            )
            self._sighup_installed = True
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass

    def _spawn(self, coro, name: str) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def stop(self, *, drain: bool = True) -> None:
        """Stop serving; with ``drain``, finish accepted work first."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._http is not None:
            await self._http.stop()
        if drain:
            await self._drain_tickets()
        # stop() may itself run as one of the spawned tasks (the
        # ``shutdown`` op) — never cancel or await ourselves.
        current = asyncio.current_task()
        for task in list(self._tasks):
            if task is not current:
                task.cancel()
        for task in list(self._tasks):
            if task is current:
                continue
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        await self.supervisor.stop()
        await self.service.aclose()
        if self._server is not None:
            await self._server.wait_closed()
        if self._sighup_installed:  # pragma: no branch
            try:
                asyncio.get_running_loop().remove_signal_handler(signal.SIGHUP)
            except (NotImplementedError, RuntimeError, ValueError):
                pass
        self._stopped.set()

    async def _drain_tickets(self) -> None:
        """Let queued + in-flight submissions resolve (bounded grace)."""
        # Anything still queued gets dispatched one last time.
        self._queue_event.set()
        pending = [t.event.wait() for t in self._tickets.values()
                   if not t.resolved]
        deadline = self.config.drain_timeout
        if pending:
            try:
                await asyncio.wait_for(asyncio.gather(*pending), deadline)
            except asyncio.TimeoutError:  # pragma: no cover - pathological
                pass

    async def wait_closed(self) -> None:
        await self._stopped.wait()

    async def __aenter__(self) -> "EstimateServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- connection handling ----------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        conn = _Connection(writer)
        frame_tasks: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    frame = await read_frame(
                        reader, max_frame=self.config.max_frame
                    )
                except FrameError as exc:
                    # Framing is broken: report once and hang up (there
                    # is no way to resynchronize a length-prefixed
                    # stream after a bad header).
                    self.stats.protocol_errors += 1
                    await conn.send(error_payload(None, "protocol", str(exc)))
                    break
                if frame is None:
                    break
                task = asyncio.get_running_loop().create_task(
                    self._handle_frame(conn, frame)
                )
                frame_tasks.add(task)
                task.add_done_callback(frame_tasks.discard)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for task in list(frame_tasks):
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # The coroutine ends right after this cleanup, so
                # swallowing a late cancellation here is harmless.
                pass

    async def _handle_frame(self, conn: "_Connection",
                            frame: Dict[str, object]) -> None:
        req_id = frame.get("id")
        try:
            fault_point("server.handle", context=str(frame.get("op", "")))
            if frame.get("v") != PROTOCOL_VERSION:
                raise Rejection(
                    "protocol",
                    f"unsupported protocol version {frame.get('v')!r} "
                    f"(server speaks {PROTOCOL_VERSION})",
                )
            op = frame.get("op")
            if op not in OPS:
                raise Rejection("protocol", f"unknown op {op!r}")
            handler = getattr(self, f"_op_{op}")
            response = await handler(conn, req_id, frame)
        except Rejection as rej:
            if rej.kind == "protocol":
                self.stats.protocol_errors += 1
            response = error_payload(req_id, rej.kind, str(rej),
                                     retry_after=rej.retry_after,
                                     report=rej.report)
        except AuthError as exc:
            response = error_payload(req_id, "auth", str(exc))
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            response = error_payload(
                req_id, "internal", f"{type(exc).__name__}: {exc}"
            )
        try:
            await conn.send(response)
        except (ConnectionError, OSError):
            pass  # peer went away; its tickets still resolve server-side

    def _session(self, conn: "_Connection") -> TenantState:
        if conn.session is None:
            raise Rejection("auth", "say hello first (no session token)")
        return conn.session

    # -- ops --------------------------------------------------------------------

    async def _op_hello(self, conn, req_id, frame):
        token = frame.get("token")
        conn.session = self.registry.authenticate(
            None if token is None else str(token)
        )
        spec = conn.session.spec
        return ok_payload(
            req_id, tenant=spec.name, admin=spec.admin,
            limits={
                "max_inflight": spec.max_inflight,
                "rate": spec.rate,
                "burst": conn.session.bucket.burst,
            },
            admission=self.config.admission,
            protocol=PROTOCOL_VERSION,
        )

    async def _op_submit(self, conn, req_id, frame):
        tenant = self._session(conn)
        plan = _plan_of(frame)
        deadline = Deadline.from_wire(frame.get("deadline_s"))
        ticket = await self.admit_and_submit(tenant, plan,
                                             deadline=deadline)
        return ok_payload(req_id, ticket=ticket.id, digest=plan.digest,
                          queue_depth=self._queue.depth)

    async def _op_gather(self, conn, req_id, frame):
        tenant = self._session(conn)
        ids = frame.get("tickets")
        if not isinstance(ids, list) or not ids:
            raise Rejection("protocol", "gather needs a 'tickets' list")
        timeout = self._wait_timeout(frame)
        results = [
            await self.gather_one(tenant, str(ticket_id), timeout)
            for ticket_id in ids
        ]
        # An entry's report may be EncodedJSON, which encode_json splices
        # only at a payload's top level: encode each entry on its own.
        return ok_payload(req_id, results=EncodedJSON(
            b"[" + b",".join(encode_json(entry) for entry in results) + b"]"))

    async def _op_estimate(self, conn, req_id, frame):
        """``submit`` and ``gather`` of one plan, one frame each way.

        The plan is the frame's ``plan`` payload, or, for a frame that
        names only a ``digest``, the plan this tenant sent in full under
        it.  The reply is the gathered entry: ``ok`` with the
        ``report``, or an error frame of the ticket's error kind.
        """
        tenant = self._session(conn)
        by_digest = "plan" not in frame and "digest" in frame
        plan = self._recalled(tenant, frame["digest"]) if by_digest \
            else _plan_of(frame)
        timeout = self._wait_timeout(frame)
        result = await self.admit_and_gather(
            tenant, plan, deadline=Deadline.from_wire(frame.get("deadline_s")),
            timeout=timeout,
        )
        if by_digest:
            self.stats.by_digest += 1
        else:
            tenant.remember(plan)
        return {"v": PROTOCOL_VERSION, "id": req_id, "digest": plan.digest,
                **result}

    def _recalled(self, tenant: TenantState, digest: object) -> Plan:
        """The plan ``tenant`` sent in full under ``digest``, or a
        ``need_plan`` rejection."""
        if not isinstance(digest, str):
            raise Rejection("protocol", f"'digest' must be a string, got "
                                        f"{type(digest).__name__}")
        plan = tenant.recall(digest)
        if plan is None:
            self.stats.need_plan += 1
            raise Rejection("need_plan", f"no plan under digest "
                                         f"{digest[:12]!r}; send it in full")
        return plan

    def _wait_timeout(self, frame: Dict[str, object]) -> float:
        """A frame's ``timeout``: seconds to wait for a ticket, capped at
        the configured ceiling (the ceiling when absent).  Anything but a
        finite number >= 0 is a ``protocol`` rejection."""
        timeout = frame.get("timeout")
        if timeout is None:
            return self.config.gather_timeout
        if isinstance(timeout, bool) or \
                not isinstance(timeout, (int, float)) or \
                not 0 <= timeout < math.inf:  # NaN fails both comparisons
            raise Rejection(
                "protocol",
                f"'timeout' must be a finite number of seconds >= 0, "
                f"got {timeout!r}",
            )
        return float(min(timeout, self.config.gather_timeout))

    async def admit_and_gather(self, tenant: TenantState, plan: Plan, *,
                               deadline: Optional[Deadline] = None,
                               timeout: Optional[float] = None,
                               ) -> Dict[str, object]:
        """Admit ``plan``, then wait up to ``timeout`` seconds (default:
        the configured ceiling) for its answer.

        :meth:`admit_and_submit` followed by :meth:`gather_one`: the one
        composition behind the ``estimate`` op and the HTTP adapter's
        ``POST /v1/estimate``.  Raises :class:`Rejection` as admission
        does; returns the gathered entry.  A warm plan's ticket is
        resolved at admission, so its entry comes back without a wait.

        The ticket is this call's own: neither :class:`EstimateClient`
        nor the HTTP adapter hands its id back, so a ticket whose wait
        timed out is forgotten once it resolves.  Its report still lands
        in the service's LRU, where a retry of the plan finds it.
        """
        ticket = await self.admit_and_submit(tenant, plan, deadline=deadline)
        entry = await self.gather_one(
            tenant, ticket.id,
            self.config.gather_timeout if timeout is None else timeout,
        )
        if not ticket.resolved:
            self._spawn(self._forget_when_resolved(ticket),
                        name=f"forget-{ticket.id}")
        return entry

    async def _forget_when_resolved(self, ticket: Ticket) -> None:
        await ticket.event.wait()
        self._tickets.pop(ticket.id, None)

    async def gather_one(self, tenant: TenantState, ticket_id: str,
                         timeout: float) -> Dict[str, object]:
        """Wait up to ``timeout`` seconds for one ticket and answer it.

        The one policy that turns a ticket into a reply, for the frame
        protocol's ``gather`` and ``estimate`` and the HTTP adapter
        alike: ``{"ticket", "ok": True, "report"}`` or ``{"ticket", "ok":
        False, "error": {"kind", "message"}}``.  A report served from the
        LRU is its cached bytes, as :class:`EncodedJSON`
        (:func:`~repro.net.protocol.encode_json` writes it).  A timeout
        leaves the ticket live; a resolved ticket is answered once and
        forgotten.
        """
        ticket = self._tickets.get(ticket_id)
        if ticket is None:
            return self._ticket_error(
                ticket_id, "protocol",
                "unknown ticket (already gathered, or never issued)",
            )
        if ticket.tenant is not tenant:
            return self._ticket_error(
                ticket_id, "auth", "ticket belongs to another tenant"
            )
        if not ticket.resolved:
            try:
                await asyncio.wait_for(ticket.event.wait(), timeout)
            except asyncio.TimeoutError:
                return self._ticket_error(
                    ticket_id, "timeout",
                    f"not resolved within {timeout:.1f}s (ticket stays "
                    f"valid)",
                )
        # Single delivery: the ticket table must not grow with history.
        if self._tickets.pop(ticket_id, None) is None:
            return self._ticket_error(
                ticket_id, "protocol",
                "unknown ticket (already gathered, or never issued)",
            )
        self.stats.gathered += 1
        if ticket.error is None:
            report = report_to_dict(ticket.report) \
                if ticket.report_json is None \
                else EncodedJSON(ticket.report_json)
            return {"ticket": ticket_id, "ok": True, "report": report}
        error = ticket.error
        if isinstance(error, AdmissionError):
            payload = self._ticket_error(ticket_id, "admission", str(error))
            if error.report is not None:
                payload["error"]["report"] = codec.to_dict(error.report)
            return payload
        if isinstance(error, DeadlineExceeded):
            kind = "deadline_exceeded"
        elif isinstance(error, StalledWorker):
            kind = "stalled_worker"
        elif isinstance(error, ReproError):
            kind = "worker"
        else:
            kind = "internal"
        return self._ticket_error(
            ticket_id, kind, f"{type(error).__name__}: {error}"
        )

    @staticmethod
    def _ticket_error(ticket_id: str, kind: str, message: str
                      ) -> Dict[str, object]:
        return {"ticket": ticket_id, "ok": False,
                "error": {"kind": kind, "message": message}}

    async def _op_status(self, conn, req_id, frame):
        self._session(conn)
        payload = ok_payload(req_id, **self.status_payload())
        if frame.get("mix"):
            payload["mix"] = self._stream.mix_payload()
        return payload

    async def _op_warm(self, conn, req_id, frame):
        self._session(conn)
        try:
            entries = parse_mix_payload(frame.get("mix"))
        except ParameterError as exc:
            raise Rejection("plan", f"warm mix rejected: {exc}") from exc
        warmed = await self._warm_plans([plan for plan, _count in entries])
        return ok_payload(req_id, warmed=warmed)

    async def _op_shutdown(self, conn, req_id, frame):
        tenant = self._session(conn)
        if not tenant.spec.admin:
            raise AuthError(
                f"tenant {tenant.name!r} is not allowed to shut the "
                f"server down"
            )
        self._draining = True  # refuse new submissions immediately
        self._spawn(self.stop(drain=True), name="shutdown")
        return ok_payload(req_id, draining=True,
                          pending=self._pending_tickets())

    # -- admission (load half) --------------------------------------------------

    async def admit_and_submit(self, tenant: TenantState, plan: Plan, *,
                               deadline: Optional[Deadline] = None,
                               ) -> Ticket:
        """Apply every admission gate, then answer or queue the plan.

        Gate order is cheapest-first: deadline, drain state, token
        bucket, quota, queue depth, and only then static verification
        (the validity half, memoized per digest in the service).  A
        plan that passes them all and whose report is in the service's
        memory LRU gets a ticket that is already resolved; any other
        plan is queued for dispatch.  Raises :class:`Rejection`; returns
        the :class:`Ticket`.
        """
        loop = asyncio.get_running_loop()
        if deadline is not None and deadline.expired:
            self.stats.rejected_deadline += 1
            raise Rejection(
                "deadline_exceeded",
                "the request's deadline budget expired before admission",
            )
        if self._draining:
            self.stats.rejected_shutdown += 1
            raise Rejection("shutdown", "server is draining",
                            retry_after=self.config.drain_timeout)
        wait = tenant.bucket.try_take()
        if wait > 0:
            tenant.rejected_rate += 1
            self.stats.rejected_rate += 1
            raise Rejection(
                "rate",
                f"tenant {tenant.name!r} exceeded {tenant.spec.rate:g} "
                f"req/s",
                retry_after=wait,
            )
        if tenant.inflight >= tenant.spec.max_inflight:
            tenant.rejected_quota += 1
            self.stats.rejected_quota += 1
            raise Rejection(
                "quota",
                f"tenant {tenant.name!r} has {tenant.inflight} requests in "
                f"flight (max {tenant.spec.max_inflight}); gather or wait",
                retry_after=self._retry_after(),
            )
        if self._queue.full:
            tenant.rejected_backpressure += 1
            self.stats.rejected_backpressure += 1
            raise Rejection(
                "backpressure",
                f"server queue is full ({self._queue.depth} queued); "
                f"batches are backed up",
                retry_after=self._retry_after(),
            )
        service = self.service.service
        if not service.admitted(plan.digest):
            try:
                # The validity half: static verification, once per
                # digest.  A first analysis runs in the executor — it is
                # pure CPU and must not stall the event loop under load.
                await loop.run_in_executor(None, service.admit, plan)
            except AdmissionError as exc:
                tenant.rejected_admission += 1
                self.stats.rejected_admission += 1
                raise Rejection(
                    "admission",
                    str(exc),
                    report=exc.report,
                ) from exc
        # Looked up before the ticket exists, so a raise leaves no ticket
        # behind that nothing would resolve.
        cached = service.hit(plan)
        now = loop.time()
        self._ticket_seq += 1
        ticket = Ticket(f"t{self._ticket_seq}", tenant, plan, now, deadline)
        self._tickets[ticket.id] = ticket
        tenant.submitted += 1
        self.stats.accepted += 1
        self._stream.observe(plan)
        self._idle_warmed = False
        self._last_activity = now
        if cached is not None:
            # Nothing to queue or compute: resolved where it stands, and
            # left out of the latency EWMA, which times queue slots.
            ticket.report_json = cached.json
            ticket.resolve(cached.report, now)
            tenant.completed += 1
            self.stats.completed += 1
            return ticket
        tenant.inflight += 1
        self._queue.push(tenant.name, ticket)
        self._queue_event.set()
        return ticket

    def _retry_after(self) -> float:
        """Backpressure hint: how long until a queue slot likely frees.

        A full queue drains in batches of ``batch_max`` that each take
        about one (EWMA-smoothed) request latency, so the head of the
        next batch is roughly one latency away.
        """
        backlog_batches = max(1.0, self._queue.depth / self.config.batch_max)
        return max(0.01, self._latency_ewma * backlog_batches)

    # -- dispatch ---------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._queue_event.wait()
            self._queue_event.clear()
            while True:
                batch = self._queue.pop_round(self.config.batch_max)
                if not batch:
                    break
                for ticket in batch:
                    self._spawn(self._run_ticket(ticket),
                                name=f"run-{ticket.id}")
                # Yield once so the whole fair-ordered batch lands in
                # the same service micro-batch before it is gathered.
                await asyncio.sleep(0)

    async def _run_ticket(self, ticket: Ticket) -> None:
        loop = asyncio.get_running_loop()
        try:
            report = await self.service.estimate(
                ticket.plan, deadline=ticket.deadline
            )
            ticket.resolve(report, loop.time())
            ticket.tenant.completed += 1
            self.stats.completed += 1
        except asyncio.CancelledError:
            ticket.fail(Rejection("shutdown", "server stopped"), loop.time())
            raise
        except DeadlineExceeded as exc:
            # The tenant's budget ran out — an answered contract, not a
            # server failure; tracked apart from ``failed``.
            ticket.fail(exc, loop.time())
            self.stats.deadline_exceeded += 1
        except Exception as exc:  # noqa: BLE001 - resolves the ticket
            ticket.fail(exc, loop.time())
            ticket.tenant.failed += 1
            self.stats.failed += 1
        finally:
            ticket.tenant.inflight -= 1
            if ticket.resolved_at is not None:
                latency = ticket.resolved_at - ticket.created_at
                self._latency_ewma += 0.2 * (latency - self._latency_ewma)
            self._last_activity = loop.time()

    # -- warming ----------------------------------------------------------------

    async def _warm_loop(self) -> None:
        interval = max(0.05, self.config.idle_warm_after / 4)
        while True:
            await asyncio.sleep(interval)
            if self._draining or self._idle_warmed:
                continue
            loop = asyncio.get_running_loop()
            idle_for = loop.time() - self._last_activity
            if idle_for < self.config.idle_warm_after:
                continue
            if not self._stream.distinct:
                continue
            # One warm pass per idle period: re-warming an unchanged mix
            # is pure cache hits, but there is no reason to spin on it.
            self._idle_warmed = True
            await self._warm_plans(
                self._stream.top(self.config.warm_top_k)
            )
            self.stats.idle_warms += 1

    async def _warm_plans(self, plans: List[Plan]) -> int:
        """Pre-submit plans so their reports are cached; count successes.

        Warming is speculative — a plan that fails (admission or
        execution) is skipped, never fatal.
        """
        warmed = 0
        for plan in plans:
            try:
                await self.service.estimate(plan)
                warmed += 1
            except Exception:  # noqa: BLE001 - speculative by design
                continue
        self.stats.warmed += warmed
        return warmed

    # -- reporting --------------------------------------------------------------

    def _pending_tickets(self) -> int:
        return sum(1 for t in self._tickets.values() if not t.resolved)

    def status_payload(self) -> Dict[str, object]:
        """The ``status`` op's body (shared with the HTTP adapter)."""
        return {
            "server": {
                **self.stats.as_row(),
                "queue_depth": self._queue.depth,
                "pending": self._pending_tickets(),
                "draining": self._draining,
                "latency_ewma_ms": round(self._latency_ewma * 1e3, 3),
                "max_queue_depth": self.config.max_queue_depth,
            },
            "service": self.service.stats.as_row(),
            "tenants": [state.as_row() for state in self.registry.states()],
            "workers": self.supervisor.status(),
            "warming": {
                "observed": self._stream.observed,
                "distinct": self._stream.distinct,
                "warmed": self.stats.warmed,
                "idle_warms": self.stats.idle_warms,
            },
        }


def _plan_of(frame: Dict[str, object]) -> Plan:
    """The frame's ``plan`` payload as a :class:`Plan`, or a ``plan``
    rejection."""
    payload = frame.get("plan")
    if not isinstance(payload, dict):
        raise Rejection("plan", f"{frame.get('op')} needs a 'plan' object "
                                f"payload")
    try:
        return Plan.from_dict(payload)
    except ParameterError as exc:
        raise Rejection("plan", f"plan payload rejected: {exc}") from exc


class _Connection:
    """Per-connection write lock + session slot (reads stay in the loop)."""

    __slots__ = ("writer", "session", "_lock")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.session: Optional[TenantState] = None
        self._lock = asyncio.Lock()

    async def send(self, payload: Dict[str, object]) -> None:
        async with self._lock:
            await write_frame(self.writer, payload)


async def serve(config: Optional[ServerConfig] = None) -> EstimateServer:
    """Start an :class:`EstimateServer` and return it (caller stops it)."""
    return await EstimateServer(config).start()

"""The batching estimate service: many sessions, one computation.

``estimate()`` is a pure function of its :class:`~repro.api.plan.Plan`,
which makes serving it a caching problem.  :class:`EstimateService`
exploits that in three layers:

1. **micro-batching + dedup** — ``submit()`` parks requests; ``gather()``
   drains the batch, groups submissions by plan digest and computes each
   distinct plan exactly once, fanning the one report out to every
   waiting handle (N sessions asking for the same HELR estimate cost one
   backend run);
2. **report LRU + disk cache** — finished reports are kept in an
   in-memory LRU keyed by plan digest and, by default, persisted through
   :mod:`repro.cache` under the ``report`` namespace, so a *second
   process* answering the same plan never recomputes it (the serving
   analogue of PR 4's cross-process kernel-table cache);
3. **sharding** — distinct cold plans fan out across a
   :class:`~repro.serve.pool.ShardPool` of worker processes when the
   service is built with ``workers`` > 1.

A plan already admitted and held in the report LRU needs none of that
machinery: :meth:`EstimateService.hit` answers it on the caller's thread,
with no batch, flush or executor hop, and counts it as a submission and
a memory hit.  The entry it returns also keeps the report's JSON bytes,
encoded on the first hit and evicted with the report, so a warm reply
is not encoded again.  The network server answers warm requests this
way at admission (see :mod:`repro.net.server`); disk-tier hits and
misses take the submit/gather path.

The service is thread-safe (one lock around the batch and cache state);
:mod:`repro.serve.aio` puts an ``asyncio`` front-end on top of it.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Union

from repro import __version__, cache
from repro.api.plan import Plan, report_from_dict, report_to_dict
from repro.errors import ParameterError
from repro.faults import Deadline, DeadlineExceeded, fault_point

if TYPE_CHECKING:
    from repro.api.backends import RunReport

    from repro.serve.pool import ShardPool

#: Disk-cache namespace for serialized :class:`RunReport` payloads.
REPORT_CACHE_KIND = "report"

#: Stamped into every disk-cached report.  A plan digest covers the
#: *request* content only — the answer additionally depends on the
#: pricing-model code, so reports written by a different library version
#: are treated as misses rather than served stale after an upgrade.
#: (The kernel-table cache needs no such stamp: tables are mathematically
#: determined by their key.)
REPORT_MODEL_VERSION = __version__


class ServeError(ParameterError):
    """Misuse of the serving API (e.g. reading an ungathered handle)."""


class AdmissionError(ServeError):
    """A plan failed static verification at ``submit()`` time.

    Carries the full :class:`~repro.analysis.AnalysisReport` as
    ``.report`` so callers can inspect every diagnostic, not just the
    first."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


#: Accepted values for ``EstimateService(admission=...)``.
ADMISSION_MODES = ("strict", "warn", "off")


@dataclass
class ServiceStats:
    """Where the service's answers came from (monotonic counters).

    ``submitted``/``batch_hits`` count submissions; ``computed``,
    ``memory_hits``, ``disk_hits`` and ``failed`` count the *batch-
    distinct digests* each gather had to look up (same-batch duplicates
    appear in ``batch_hits``, later-batch repeats in the hit buckets).
    A :meth:`EstimateService.hit` is a batch of one: one submission and
    one memory hit.
    """

    submitted: int = 0
    #: Truly distinct digests seen over the service's lifetime.
    unique: int = 0
    #: Full backend executions (the only expensive bucket).
    computed: int = 0
    #: Computations that raised instead of producing a report.
    failed: int = 0
    #: Submissions that joined an already-pending identical plan.
    batch_hits: int = 0
    #: Batch-distinct digests answered from the in-memory report LRU.
    memory_hits: int = 0
    #: Batch-distinct digests answered from the cross-process disk cache.
    disk_hits: int = 0
    #: Handles answered with DeadlineExceeded instead of a result.
    deadline_exceeded: int = 0
    #: Batch-distinct digests whose computation was skipped outright
    #: because every waiter's deadline had already expired.
    deadline_skipped: int = 0

    @property
    def dedup_hit_rate(self) -> float:
        """Fraction of submissions that did not trigger a computation."""
        if not self.submitted:
            return 0.0
        return 1.0 - (self.computed + self.failed) / self.submitted

    def as_row(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "unique": self.unique,
            "computed": self.computed,
            "failed": self.failed,
            "batch_hits": self.batch_hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "dedup_hit_rate": round(self.dedup_hit_rate, 4),
            "deadline_exceeded": self.deadline_exceeded,
            "deadline_skipped": self.deadline_skipped,
        }


class EstimateHandle:
    """A pending result: resolved by the service's next ``gather()``.

    A handle always resolves — with the report, or with the exception the
    computation raised (``result()`` re-raises it); a failed neighbour in
    the same batch never strands cache-served waiters.
    """

    __slots__ = ("digest", "deadline", "_report", "_error", "_done")

    def __init__(self, digest: str, deadline: Optional[Deadline] = None):
        self.digest = digest
        #: Optional expiry: a gather past it answers the handle with
        #: :class:`~repro.faults.DeadlineExceeded` instead of a report.
        self.deadline = deadline
        self._report: Optional["RunReport"] = None
        self._error: Optional[BaseException] = None
        self._done = False

    @property
    def done(self) -> bool:
        return self._done

    @property
    def failed(self) -> bool:
        return self._error is not None

    def _resolve(self, report: "RunReport") -> None:
        self._report = report
        self._done = True

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done = True

    def result(self) -> "RunReport":
        if not self._done:
            raise ServeError(
                "handle is still pending; call service.gather() first"
            )
        if self._error is not None:
            raise self._error
        return self._report

    def __repr__(self) -> str:
        state = ("failed" if self._error is not None else "done") \
            if self._done else "pending"
        return f"EstimateHandle({self.digest[:12]}..., {state})"


class CachedReport:
    """One report-LRU entry: the report, and its JSON once asked for."""

    __slots__ = ("report", "_json")

    def __init__(self, report: "RunReport"):
        self.report = report
        self._json: Optional[bytes] = None

    @property
    def json(self) -> bytes:
        """``report_to_dict(report)`` as compact UTF-8 JSON, encoded on
        first use and kept until the entry is evicted."""
        if self._json is None:
            self._json = json.dumps(report_to_dict(self.report),
                                    separators=(",", ":")).encode("utf-8")
        return self._json


class EstimateService:
    """Batch, dedup, cache and shard estimate plans across sessions.

    Parameters
    ----------
    cache_size:
        Capacity of the in-memory report LRU (distinct plan digests).
    disk_cache:
        Persist reports through :mod:`repro.cache` so other processes
        start warm.  Honors ``REPRO_CACHE_DIR`` (empty string disables,
        like the kernel-table cache).
    workers:
        ``workers=K`` (K > 1) builds a lazy
        :class:`~repro.serve.pool.ShardPool`: distinct cold plans in one
        batch then execute across its K worker processes.  0 or 1 runs
        every plan in process.
    admission:
        Static verification of each submitted plan through
        :func:`repro.analysis.analyze`: ``"strict"`` (default) rejects
        plans whose report carries errors with :class:`AdmissionError`
        before they enter the batch, ``"warn"`` admits them but emits a
        :class:`UserWarning`, ``"off"`` skips analysis entirely.  A
        digest is analyzed at most once per service lifetime — repeat
        submissions of an admitted plan pay only a set lookup.
    stall_timeout:
        Forwarded to the shard pool: a live worker showing no progress
        for this many seconds mid-batch is killed and its jobs requeued.
        ``None``/``0`` disables stall reaping.
    """

    def __init__(self, *, cache_size: int = 256, disk_cache: bool = True,
                 workers: int = 0, admission: str = "strict",
                 stall_timeout: Optional[float] = None):
        if cache_size < 1:
            raise ParameterError("cache_size must be positive")
        if admission not in ADMISSION_MODES:
            raise ParameterError(
                f"admission must be one of {ADMISSION_MODES}, "
                f"got {admission!r}"
            )
        self._pool: Optional["ShardPool"] = None
        if workers > 1:
            from repro.serve.pool import ShardPool

            self._pool = ShardPool(workers, stall_timeout=stall_timeout)
        self._closed = False
        self._cache_size = cache_size
        self._disk_cache = disk_cache
        self._admission = admission
        self._admitted: Set[str] = set()
        self._lru: "OrderedDict[str, CachedReport]" = OrderedDict()
        #: digest -> (plan, handles waiting on it), insertion-ordered.
        self._pending: "OrderedDict[str, List[EstimateHandle]]" = OrderedDict()
        self._pending_plans: Dict[str, Plan] = {}
        self._seen_digests: Set[str] = set()
        self._lock = threading.Lock()
        #: Held by the one admission analysis under way (see _admit).
        self._analysis_lock = threading.Lock()
        self.stats = ServiceStats()

    # -- submit / gather --------------------------------------------------------

    def submit(self, plan: Plan, *,
               deadline: Union[None, float, Deadline] = None,
               ) -> EstimateHandle:
        """Queue one plan; the handle resolves on the next :meth:`gather`.

        ``deadline`` (seconds from now, or a :class:`~repro.faults.Deadline`)
        bounds how stale an answer may be: a gather that completes after
        it fails the handle with
        :class:`~repro.faults.DeadlineExceeded`, and a digest whose
        waiters have *all* expired is skipped without computing.
        """
        self._check_open()
        if not isinstance(plan, Plan):
            raise ParameterError(
                f"submit() takes a Plan (see FHESession.plan), "
                f"got {type(plan).__name__}"
            )
        digest = plan.digest
        self._admit(plan, digest)
        handle = EstimateHandle(digest, Deadline.coerce(deadline))
        with self._lock:
            self.stats.submitted += 1
            waiters = self._pending.get(digest)
            if waiters is None:
                self._pending[digest] = [handle]
                self._pending_plans[digest] = plan
            else:
                self.stats.batch_hits += 1
                waiters.append(handle)
        return handle

    def admit(self, plan: Plan) -> None:
        """Run the admission check for ``plan`` without queueing it.

        The network front-end calls this at the protocol boundary so a
        rejected plan is answered with an error frame *before* it
        occupies a queue slot; the later ``submit()`` of an admitted
        digest is then a memoized set lookup.  Raises
        :class:`AdmissionError` exactly like ``submit()`` would.
        """
        self._admit(plan, plan.digest)

    def admitted(self, digest: str) -> bool:
        """Whether :meth:`admit` of ``digest`` returns without analysis
        (admission is off, or the digest passed it before): a set lookup,
        cheap enough for an event loop."""
        if self._admission == "off":
            return True
        with self._lock:
            return digest in self._admitted

    def hit(self, plan: Plan) -> Optional[CachedReport]:
        """Answer an admitted ``plan`` from the in-memory report LRU.

        Returns the LRU entry (``.report``, and ``.json``, its bytes) and
        counts one submission and one memory hit, as a batch of one
        would; returns ``None`` and counts nothing when the digest is not
        in memory (submit it: the gather looks at the disk cache, then
        computes).  No batch, flush or thread is involved, so an event
        loop may call it.  The caller admits the plan first, as
        :meth:`submit` would.
        """
        self._check_open()
        digest = plan.digest
        with self._lock:
            entry = self._memory_hit(digest)
            if entry is not None:
                self.stats.submitted += 1
        return entry

    def _admit(self, plan: Plan, digest: str) -> None:
        """Statically verify ``plan`` once per digest, per the admission
        mode.  Analyses run one at a time, outside the service lock so
        batches keep flowing.  Side by side they buy nothing (analysis
        is Python under the GIL), and a herd of first analyses each
        builds the same cold model tables: the bootstrap plan's sine fit
        is a run of multi-threaded BLAS solves, and a few of those at
        once on a loaded CPU kept a fresh server's first submits
        unanswered for tens of seconds."""
        if self._admission == "off":
            return
        with self._lock:
            if digest in self._admitted:
                return
        from repro.analysis import analyze

        with self._analysis_lock:
            with self._lock:
                if digest in self._admitted:
                    return  # admitted while this caller waited
            report = analyze(plan)
            if report.errors:
                lines = "; ".join(d.render() for d in report.errors[:3])
                message = (
                    f"plan {digest[:12]}... rejected by static analysis "
                    f"({len(report.errors)} error(s)): {lines}"
                )
                if self._admission == "strict":
                    raise AdmissionError(message, report=report)
                import warnings

                warnings.warn(message, stacklevel=3)
            with self._lock:
                self._admitted.add(digest)

    def gather(self) -> int:
        """Drain the batch: answer every pending handle, computing each
        distinct plan at most once.  Returns the number of submissions
        resolved.  A plan whose computation raises resolves its own
        waiters with that exception (re-raised by ``result()``) — it
        never strands the rest of the batch.  Deadlines are honored
        twice: a digest whose waiters have all expired is never
        computed, and a handle whose deadline passed mid-gather is
        answered with :class:`~repro.faults.DeadlineExceeded` even when
        a result exists — a handle always resolves, never in silence."""
        self._check_open()
        with self._lock:
            batch = self._pending
            plans = self._pending_plans
            self._pending = OrderedDict()
            self._pending_plans = {}
            self.stats.unique += sum(
                1 for d in plans if d not in self._seen_digests
            )
            self._seen_digests.update(plans)
        if not batch:
            return 0

        to_compute: List[Plan] = []
        outcome: Dict[str, Union["RunReport", BaseException]] = {}
        skipped = 0
        for digest, plan in plans.items():
            report = self._lookup(digest)
            if report is not None:
                outcome[digest] = report
            elif _all_expired(batch[digest]):
                outcome[digest] = DeadlineExceeded(
                    f"deadline expired before plan {plan.name} was computed"
                )
                skipped += 1
            else:
                to_compute.append(plan)

        if to_compute:
            computed = failed = 0
            deadline = _latest_deadline(batch, to_compute)
            for plan, result in zip(
                to_compute, self._compute(to_compute, deadline)
            ):
                outcome[plan.digest] = result
                if isinstance(result, BaseException):
                    failed += 1
                else:
                    computed += 1
                    self._remember(plan.digest, result)
            with self._lock:
                self.stats.computed += computed
                self.stats.failed += failed

        answered, expired = _resolve_all(batch, outcome)
        with self._lock:
            self.stats.deadline_exceeded += expired
            self.stats.deadline_skipped += skipped
        return answered

    # -- synchronous facade -----------------------------------------------------

    def estimate(self, plan: Plan, *,
                 deadline: Union[None, float, Deadline] = None,
                 ) -> "RunReport":
        """Submit one plan and resolve it immediately (one-call facade)."""
        handle = self.submit(plan, deadline=deadline)
        self.gather()
        return handle.result()

    def estimate_many(self, plans: Sequence[Plan]) -> List["RunReport"]:
        """Submit a batch of plans and resolve them all in one gather."""
        handles = [self.submit(plan) for plan in plans]
        self.gather()
        return [handle.result() for handle in handles]

    # -- cache layers -----------------------------------------------------------

    def _memory_hit(self, digest: str) -> Optional[CachedReport]:
        """The LRU's entry for ``digest``, counted; under ``self._lock``."""
        entry = self._lru.get(digest)
        if entry is not None:
            self._lru.move_to_end(digest)
            self.stats.memory_hits += 1
        return entry

    def _lookup(self, digest: str) -> Optional["RunReport"]:
        with self._lock:
            entry = self._memory_hit(digest)
        if entry is not None:
            return entry.report
        if self._disk_cache:
            payload = cache.load_json(REPORT_CACHE_KIND, digest)
            if payload is not None:
                if not isinstance(payload, dict) or \
                        payload.get("model_version") != REPORT_MODEL_VERSION:
                    return None  # priced by other model code: recompute
                try:
                    report = report_from_dict(payload.get("report"))
                except ParameterError:
                    return None  # foreign/corrupt payload: recompute
                with self._lock:
                    self.stats.disk_hits += 1
                    self._lru_put(digest, report)
                return report
        return None

    def _remember(self, digest: str, report: "RunReport") -> None:
        with self._lock:
            self._lru_put(digest, report)
        if self._disk_cache:
            cache.store_json(REPORT_CACHE_KIND, digest, {
                "model_version": REPORT_MODEL_VERSION,
                "report": report_to_dict(report),
            })

    def _lru_put(self, digest: str, report: "RunReport") -> None:
        """Insert under ``self._lock`` and evict the oldest past capacity."""
        self._lru[digest] = CachedReport(report)
        self._lru.move_to_end(digest)
        while len(self._lru) > self._cache_size:
            self._lru.popitem(last=False)

    def _compute(
        self, plans: List[Plan], deadline: Optional[Deadline] = None,
    ) -> List[Union["RunReport", BaseException]]:
        """Run the cold plans, isolating failures per plan.

        A raising plan yields its exception in place of a report.  The
        shard pool requeues the in-flight plans of a dead worker onto
        the survivors (plans are pure, so re-execution is safe) — a
        worker kill never loses a submitted request.  If the pool fails
        wholesale anyway, fall back to in-process execution so one sick
        pool cannot take the batch down with it.  ``deadline`` (the
        latest waiter expiry, when every waiter has one) bounds the
        pool wait and the in-process loop."""
        if self._pool is not None and len(plans) > 1:
            try:
                return list(self._pool.run_plans(
                    plans, requeue=True, return_exceptions=True,
                    deadline=deadline,
                ))
            except Exception:
                pass  # fall through to the isolated in-process path
        results: List[Union["RunReport", BaseException]] = []
        for plan in plans:
            try:
                if deadline is not None:
                    deadline.check(plan.name)
                fault_point("service.compute", context=plan.name)
                results.append(plan.run())
            except Exception as exc:
                results.append(exc)
        return results

    # -- lifecycle --------------------------------------------------------------

    @property
    def pending(self) -> int:
        with self._lock:
            return sum(len(h) for h in self._pending.values())

    @property
    def pool(self) -> Optional["ShardPool"]:
        """The attached shard pool, if any (for supervisors and stats)."""
        return self._pool

    def _check_open(self) -> None:
        if self._closed:
            raise ServeError(
                "service is closed; create a new EstimateService"
            )

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down permanently: later submit/gather raise
        :class:`ServeError` (a clean error, never an attribute error)."""
        self._closed = True
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "EstimateService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"EstimateService(lru={len(self._lru)}/{self._cache_size}, "
            f"pending={self.pending}, pool={self._pool!r}, "
            f"stats={self.stats.as_row()})"
        )


# -- deadline helpers ------------------------------------------------------------

def _all_expired(handles: List[EstimateHandle]) -> bool:
    """True when every waiter carries a deadline and all have expired —
    the only case where skipping the computation loses nothing."""
    return bool(handles) and all(
        h.deadline is not None and h.deadline.expired for h in handles
    )


def _latest_deadline(batch, plans: Sequence[Plan]) -> Optional[Deadline]:
    """The loosest waiter deadline across ``plans``, or ``None`` as soon
    as one waiter has no deadline (the computation must then run to
    completion regardless)."""
    latest: Optional[Deadline] = None
    for plan in plans:
        for handle in batch.get(plan.digest, ()):
            if handle.deadline is None:
                return None
            if latest is None or \
                    handle.deadline.expires_at > latest.expires_at:
                latest = handle.deadline
    return latest


def _resolve_all(batch, outcome) -> "tuple[int, int]":
    """Answer every handle from ``outcome``; returns (answered, expired).

    A handle whose own deadline has passed is failed with
    :class:`~repro.faults.DeadlineExceeded` even when a result is
    available — its caller has already given up, and the contract is a
    structured error, not a stale success."""
    answered = expired = 0
    for digest, handles in batch.items():
        result = outcome[digest]
        for handle in handles:
            if isinstance(result, BaseException):
                handle._fail(result)
                if isinstance(result, DeadlineExceeded):
                    expired += 1
            elif handle.deadline is not None and handle.deadline.expired:
                handle._fail(DeadlineExceeded(
                    f"deadline expired while gathering {digest[:12]}..."
                ))
                expired += 1
            else:
                handle._resolve(result)
            answered += 1
    return answered, expired

"""Multi-process plan execution: shard non-identical plans across workers.

One estimate request is single-threaded (the schedulers and the RPU
simulator are pure Python), so a busy service's only road to more
throughput on cold plans is more processes.  :class:`ShardPool` keeps a
small pool of supervised worker processes and round-robins distinct
plans across them; plans travel as canonical JSON (:meth:`Plan.to_json`)
and reports come back as JSON payloads, so the transport is the same
wire format the disk cache uses — no pickling of library internals.

Workers share the machine-wide kernel disk cache (``repro.cache``): the
first process to need an NTT twiddle or BConv hat table persists it, and
every other worker — and every *future* worker — starts warm.  Cold-start
cost is paid once per machine, not once per worker.

The pool supervises its own processes.  A worker that dies mid-request
(OOM-killed, segfaulted, ``SIGKILL``-ed) is detected by liveness
polling, reaped, and replaced; its in-flight plans are either requeued
onto the surviving workers (``run_plans(..., requeue=True)`` — what the
serving layer uses, so a kill loses no requests) or surfaced to the
caller as :class:`WorkerDied` (the default — never a silent hang).
A worker that is alive but *hung* (stuck in a syscall, spinning, paused
by the fault injector) is caught by the same sweep when a
``stall_timeout`` is set: a worker showing no progress for that long is
killed, counted in ``stalls``, and handled exactly like a death —
requeue or :class:`StalledWorker`.  Requeues per job are capped
(:data:`ShardPool.MAX_REQUEUES`) so a payload that reliably wedges its
worker fails loudly instead of cycling forever.  Either way the pool
stays usable afterwards.  The network front-end's
:class:`~repro.net.supervisor.WorkerSupervisor` builds on the same
primitives: :meth:`reap` for idle-time health checks and
:meth:`rolling_restart` for graceful ``SIGHUP`` recycling.
"""

from __future__ import annotations

import faulthandler
import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ParameterError, ReproError
from repro.faults import Deadline, DeadlineExceeded, fault_point

if TYPE_CHECKING:
    from repro.api.backends import RunReport
    from repro.api.plan import Plan


class WorkerDied(ReproError):
    """A shard worker process died with plans still in flight.

    Raised by :meth:`ShardPool.run_plans` when requeueing is not enabled.
    ``lost`` names the workloads whose results were lost; the pool itself
    has already reaped the dead worker and remains usable — resubmitting
    is always safe because plans are pure.
    """

    def __init__(self, message: str, lost: Sequence[str] = ()):
        super().__init__(message)
        self.lost = tuple(lost)


class StalledWorker(WorkerDied):
    """A live-but-hung shard worker was retired mid-batch.

    Subclasses :class:`WorkerDied` so existing requeue/error handling
    applies unchanged; the distinct type (and the ``stalled_worker``
    error kind on the wire) tells operators the worker was killed by the
    pool's stall reaper, not by the OS.
    """


class RemotePlanError(ReproError):
    """A plan raised inside a worker process.

    Carries the original exception type name and message (the traceback
    object itself cannot cross the process boundary as JSON).
    """

    def __init__(self, exc_type: str, message: str):
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type


def _run_payload(payload: str) -> dict:
    """Worker entry: plan JSON in, report JSON out (module-level for mp)."""
    from repro.api.plan import Plan, report_to_dict

    return report_to_dict(Plan.from_json(payload).run())


def _worker_main(task_q, result_q) -> None:
    """Worker loop: execute queued plan payloads until the stop sentinel.

    Per-plan failures are reported as structured error results — a bad
    plan must never take the worker (let alone the batch) down with it.
    ``kill -USR1 <pid>`` dumps every thread's stack to stderr, so a hung
    worker can be read without being killed.
    """
    if hasattr(signal, "SIGUSR1"):
        faulthandler.register(signal.SIGUSR1, all_threads=True)
    while True:
        item = task_q.get()
        if item is None:
            break
        job, payload = item
        try:
            # "worker.run" fires before the computation: a crash here
            # models an OOM kill mid-request, a delay models a hung
            # worker (what stall_timeout reaps), an error is isolated
            # like any plan failure.  The full payload is the context so
            # fault plans can match on any workload field.
            fault_point("worker.run", context=payload)
            result = {"ok": True, "report": _run_payload(payload)}
        except BaseException as exc:  # noqa: BLE001 - isolate any failure
            result = {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }
        # "worker.result" fires after the computation but before the
        # result is published — a crash here loses finished work and
        # exercises the parent's requeue path end to end.
        fault_point("worker.result", context=payload)
        result_q.put((job, result))


def _default_workers() -> int:
    cpus = os.cpu_count() or 2
    return max(2, min(4, cpus))


class _Worker:
    """One supervised worker process and its private task queue."""

    __slots__ = ("process", "task_q", "outstanding", "busy_since")

    def __init__(self, process, task_q):
        self.process = process
        self.task_q = task_q
        #: Job ids dispatched to this worker and not yet answered.
        self.outstanding: Set[Tuple[int, int]] = set()
        #: Monotonic time of the last observed progress while busy
        #: (a dispatch onto an idle worker, or any result it returned);
        #: ``None`` when idle.  The stall reaper measures against this.
        self.busy_since: Optional[float] = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def retire(self) -> None:
        """Ask the worker to exit after finishing its queued work."""
        try:
            self.task_q.put(None)
        except (ValueError, OSError):
            pass  # queue already closed alongside a dead worker


class ShardPool:
    """A supervised pool of worker processes that execute plans in parallel.

    Workers are created lazily on first use (forking before they are
    needed would copy nothing useful) and prefer the ``fork`` start
    method where available so they inherit the parent's warm in-process
    caches on top of the shared disk cache.

    Liveness is the pool's contract: a dead worker is always detected
    (no silent hangs), reaped, and replaced, and its in-flight plans are
    requeued or reported via :class:`WorkerDied`.  With a
    ``stall_timeout``, a live worker showing no progress for that long
    is killed and handled the same way (:class:`StalledWorker`).
    ``deaths`` counts workers observed dead (stall kills included);
    ``stalls`` counts the subset the pool killed for hanging;
    ``restarts`` counts replacement and recycle spawns.
    """

    #: Liveness poll interval while waiting on batch results (seconds).
    POLL_S = 0.05
    #: Grace period for a retiring worker to drain its queue (seconds).
    RETIRE_GRACE_S = 10.0
    #: Times one job may be requeued after worker deaths/stalls before
    #: it fails with :class:`WorkerDied` — a payload that reliably
    #: wedges its worker must not cycle through the pool forever.
    MAX_REQUEUES = 3

    def __init__(self, workers: Optional[int] = None, *,
                 start_method: Optional[str] = None,
                 stall_timeout: Optional[float] = None):
        self.workers = _default_workers() if workers is None else int(workers)
        if self.workers < 1:
            raise ParameterError("a shard pool needs at least one worker")
        if stall_timeout is not None and stall_timeout <= 0:
            stall_timeout = None
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: List[_Worker] = []
        self._result_q = None
        self._batch_seq = 0
        self._rr = 0  # round-robin dispatch cursor
        self._lock = threading.RLock()
        #: Kill a live worker that makes no progress for this many
        #: seconds mid-batch; ``None`` disables stall reaping.
        self.stall_timeout = stall_timeout
        self.deaths = 0
        self.restarts = 0
        self.stalls = 0

    # -- worker lifecycle -------------------------------------------------------

    @property
    def start_method(self) -> str:
        return self._ctx.get_start_method()

    @property
    def started(self) -> bool:
        with self._lock:
            return bool(self._workers)

    def worker_pids(self) -> List[int]:
        """Pids of the current workers (spawning them if needed)."""
        with self._lock:
            self._ensure_workers()
            return [w.process.pid for w in self._workers]

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers if w.alive)

    def _spawn_worker(self) -> _Worker:
        task_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main, args=(task_q, self._result_q), daemon=True
        )
        process.start()
        worker = _Worker(process, task_q)
        self._workers.append(worker)
        return worker

    def _ensure_workers(self) -> None:
        if self._result_q is None:
            self._result_q = self._ctx.Queue()
        while len(self._workers) < self.workers:
            self._spawn_worker()

    def reap(self, *, restart: bool = True) -> int:
        """Remove dead workers; optionally spawn replacements.

        The idle-time half of supervision (the in-batch half lives in
        :meth:`run_plans`).  Returns the number of dead workers found.
        Safe to call from a supervisor thread at any time — batch
        execution holds the same lock.
        """
        with self._lock:
            dead = [w for w in self._workers if not w.alive]
            for worker in dead:
                self._workers.remove(worker)
                self.deaths += 1
            if dead and restart and self._result_q is not None:
                while len(self._workers) < self.workers:
                    self._spawn_worker()
                    self.restarts += 1
            return len(dead)

    def rolling_restart(self) -> int:
        """Recycle every worker gracefully, one at a time.

        Each replacement is spawned *before* its predecessor is retired,
        so capacity never drops below ``workers - 0`` live processes and
        queued work drains normally.  This is what the network server
        runs on ``SIGHUP``.  Returns the number of workers recycled.
        """
        with self._lock:
            if not self._workers:
                return 0  # nothing running: next use starts fresh workers
            old = list(self._workers)
            for worker in old:
                self._workers.remove(worker)
                self._spawn_worker()
                self.restarts += 1
                worker.retire()
            deadline = time.monotonic() + self.RETIRE_GRACE_S
            for worker in old:
                worker.process.join(max(0.0, deadline - time.monotonic()))
                if worker.alive:
                    worker.process.terminate()
                    worker.process.join(1.0)
            return len(old)

    # -- batch execution --------------------------------------------------------

    def run_plans(
        self, plans: Sequence["Plan"], *, requeue: bool = False,
        return_exceptions: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> List[Union["RunReport", ReproError]]:
        """Execute ``plans`` across the workers, preserving order.

        Plans should already be deduplicated (the
        :class:`~repro.serve.service.EstimateService` does this) — the
        pool itself runs exactly what it is given.

        A worker that dies mid-batch is detected within :data:`POLL_S`
        seconds and replaced.  With ``requeue=True`` its in-flight plans
        are redistributed and the batch completes normally (plans are
        pure, so re-execution is safe); otherwise :class:`WorkerDied` is
        raised naming the lost workloads.  A live worker that hangs is
        reaped the same way once ``stall_timeout`` elapses
        (:class:`StalledWorker`).  With ``return_exceptions=True`` a
        plan that *raises* inside a worker yields a
        :class:`RemotePlanError` in its slot instead of raising here.
        With a ``deadline``, the wait for results is bounded: on expiry
        unfinished slots become :class:`DeadlineExceeded`
        (``return_exceptions=True``) or the batch raises it.
        """
        from repro.api.plan import report_from_dict

        plans = list(plans)
        if not plans:
            return []
        if len(plans) == 1:
            # Not worth a round-trip through the pool.
            return [self._run_inline(plans[0], return_exceptions, deadline)]
        with self._lock:
            self._ensure_workers()
            batch = self._batch_seq
            self._batch_seq += 1
            payloads = {
                (batch, i): plan.to_json() for i, plan in enumerate(plans)
            }
            names = {(batch, i): plan.name for i, plan in enumerate(plans)}
            for job in payloads:
                self._dispatch(job, payloads[job])
            results: Dict[int, Union["RunReport", ReproError]] = {}
            remaining = set(payloads)
            requeues: Dict[Tuple[int, int], int] = {}
            while remaining:
                if deadline is not None and deadline.expired:
                    expired = DeadlineExceeded(
                        f"batch deadline expired with {len(remaining)} "
                        f"job(s) unfinished"
                    )
                    if not return_exceptions:
                        self._abandon(remaining)
                        raise expired
                    for job in list(remaining):
                        results[job[1]] = expired
                    self._abandon(remaining)
                    break
                self._check_liveness(remaining, payloads, names, requeue,
                                     requeues, results, return_exceptions)
                try:
                    job, result = self._result_q.get(timeout=self.POLL_S)
                except queue_mod.Empty:
                    continue
                now = time.monotonic()
                if job not in remaining:
                    continue  # stale (aborted batch) or already requeued+done
                remaining.discard(job)
                for worker in self._workers:
                    if job in worker.outstanding:
                        worker.outstanding.discard(job)
                        # Any returned result is progress: restart that
                        # worker's stall clock (or park it when idle).
                        worker.busy_since = now if worker.outstanding else None
                if result["ok"]:
                    results[job[1]] = report_from_dict(result["report"])
                else:
                    error = RemotePlanError(result["error"]["type"],
                                            result["error"]["message"])
                    if not return_exceptions:
                        self._abandon(remaining)
                        raise error
                    results[job[1]] = error
            return [results[i] for i in range(len(plans))]

    @staticmethod
    def _run_inline(plan: "Plan", return_exceptions: bool,
                    deadline: Optional[Deadline] = None,
                    ) -> Union["RunReport", ReproError]:
        try:
            if deadline is not None:
                deadline.check(plan.name)
            return plan.run()
        except DeadlineExceeded as exc:
            if return_exceptions:
                return exc
            raise
        except Exception as exc:
            if return_exceptions:
                return RemotePlanError(type(exc).__name__, str(exc))
            raise

    def _dispatch(self, job: Tuple[int, int], payload: str) -> None:
        """Hand one job to the next live worker (round-robin)."""
        fault_point("pool.dispatch", context=payload)
        live = [w for w in self._workers if w.alive] or self._workers
        worker = live[self._rr % len(live)]
        self._rr += 1
        if not worker.outstanding:
            worker.busy_since = time.monotonic()
        worker.outstanding.add(job)
        worker.task_q.put((job, payload))

    def _check_liveness(self, remaining, payloads, names, requeue,
                        requeues, results, return_exceptions) -> None:
        """Reap dead *and hung* workers; requeue or surface their jobs.

        A worker is hung when it is alive but has shown no progress (no
        result returned) for longer than ``stall_timeout``; it is
        killed, counted in both ``stalls`` and ``deaths``, and its
        in-flight jobs take the same path as a genuine death.  Each
        job's requeue count is capped at :data:`MAX_REQUEUES`, after
        which the job fails with the appropriate error instead of
        cycling through (and wedging) every replacement worker.
        """
        stalled: Set[Tuple[int, int]] = set()
        if self.stall_timeout is not None:
            now = time.monotonic()
            for worker in self._workers:
                if (worker.alive and worker.busy_since is not None
                        and worker.outstanding & remaining
                        and now - worker.busy_since > self.stall_timeout):
                    stalled |= worker.outstanding & remaining
                    self.stalls += 1
                    worker.process.kill()
                    worker.process.join(1.0)
        dead = [w for w in self._workers if not w.alive]
        if not dead:
            return
        lost: Set[Tuple[int, int]] = set()
        for worker in dead:
            self._workers.remove(worker)
            self.deaths += 1
            lost |= worker.outstanding & remaining
        while len(self._workers) < self.workers:
            self._spawn_worker()
            self.restarts += 1
        if not lost:
            return
        if requeue:
            over_cap: Set[Tuple[int, int]] = set()
            for job in sorted(lost):
                requeues[job] = requeues.get(job, 0) + 1
                if requeues[job] > self.MAX_REQUEUES:
                    over_cap.add(job)
                else:
                    self._dispatch(job, payloads[job])
            if not over_cap:
                return
            lost = over_cap
            if return_exceptions:
                for job in over_cap:
                    remaining.discard(job)
                    results[job[1]] = self._lost_error({job}, names, stalled)
                return
        else:
            self._abandon(remaining)
        error = self._lost_error(lost, names, stalled)
        if not requeue:
            raise error
        # requeue=True but some jobs exhausted their cap without
        # return_exceptions: fail the batch loudly.
        self._abandon(remaining)
        raise error

    @staticmethod
    def _lost_error(jobs, names, stalled) -> WorkerDied:
        """Build the WorkerDied/StalledWorker naming the lost workloads."""
        workloads = sorted({names[job] for job in jobs})
        if jobs & stalled:
            return StalledWorker(
                f"shard worker hung past stall_timeout with {len(jobs)} "
                f"plan(s) in flight ({', '.join(workloads)}); the pool "
                f"killed and replaced it — resubmit, or use "
                f"run_plans(..., requeue=True)",
                lost=workloads,
            )
        return WorkerDied(
            f"shard worker died with {len(jobs)} plan(s) in flight "
            f"({', '.join(workloads)}); the pool has respawned the worker — "
            f"resubmit, or use run_plans(..., requeue=True)",
            lost=workloads,
        )

    def _abandon(self, remaining) -> None:
        """Forget a failed batch's outstanding jobs before raising.

        Results that still arrive for them are discarded by the batch-id
        check in the next ``run_plans`` wait loop.
        """
        for worker in self._workers:
            worker.outstanding -= remaining
        remaining.clear()

    # -- shutdown ---------------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down (a later ``run_plans`` starts fresh ones)."""
        with self._lock:
            for worker in self._workers:
                worker.retire()
            deadline = time.monotonic() + 2.0
            for worker in self._workers:
                worker.process.join(max(0.0, deadline - time.monotonic()))
                if worker.alive:
                    worker.process.terminate()
                    worker.process.join(1.0)
            self._workers = []

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._lock:
            state = f"live={self.alive_workers()}" if self._workers else "lazy"
        return (
            f"ShardPool(workers={self.workers}, "
            f"start_method={self.start_method!r}, {state}, "
            f"deaths={self.deaths}, stalls={self.stalls}, "
            f"restarts={self.restarts})"
        )

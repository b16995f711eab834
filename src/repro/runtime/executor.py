"""Executors — one attempt machine, three transports.

Every job reaches the simulator through one attempt machine with three
parts, so the retry/timeout/escalation policy is decided in one place:

* **start** (``_start``) charges an attempt to each job of a submitted
  batch, waits once for the largest retry backoff the batch owes, and
  emits ``job_started``;
* **settle** (``_settle``) is the one decision point: it turns an
  attempt's result — a worker envelope (``ok``, ``timeout`` or
  ``error``), a worker that died running only this job, or an exception
  raised on the way — into a terminal :class:`JobOutcome` or a retry,
  escalates timeouts and emits ``trace_built``;
* **the driver loop** (``_drive``) runs rounds of attempts until every
  job has a terminal outcome and, on ``KeyboardInterrupt`` (Ctrl-C,
  SIGTERM converted by the runtime, or a cancelled lease), marks
  whatever is left ``"interrupted"`` — callers keep (and cache) the
  finished cells.

The three executors keep their public methods and supply only a
*transport*, the way an attempt is carried out:

* :class:`SerialExecutor` — an in-process call, each job run to a
  terminal outcome before the next starts.  No worker processes, so it
  is the ``--jobs 1`` default and the safe choice on platforms where
  ``fork`` is unavailable (Windows) or undesirable.
* :class:`ParallelExecutor` — one shared ``ProcessPoolExecutor`` per
  round.  A worker dying (segfault, ``os._exit``, OOM kill) breaks the
  whole pool and the parent cannot tell culprit from victim, so the
  attempts in flight are uncharged and every later round gives each job
  its own single-worker pool, where a dying worker indicts exactly one
  job.  A job that keeps killing its worker exhausts its attempts and
  becomes one failed cell; everything else completes normally.
* :class:`JobLease` — the leasable unit behind the :mod:`repro.serve`
  scheduler: one persistent single-worker pool running one job at a
  time, with ``worker_heartbeat`` events and the :meth:`~JobLease.cancel`
  and :meth:`~JobLease.reap` hooks.

Every pool comes from :func:`_make_pool`.  Its workers are forked from
the caller when the caller has one thread (a ``Runtime`` grid, the CLI),
and started from a forkserver otherwise (the serve gateway, whose leases
make their pools on worker threads); see :func:`_pool_context`.

Trace groups (cells sharing one trace key, see
:meth:`SerialExecutor.run_grouped`) ride the in-process and pool
transports: the first round submits each group as one call that
acquires the trace once and runs every cell, and each cell is settled
on its own; a cell that needs another attempt is resubmitted alone.

The failure policy:

* **Bounded retries** — an error or a dead worker is retried while the
  job has attempts left (``retries`` extra attempts).
* **Deterministic retry backoff** — attempt *n* waits
  ``backoff * 2**(n-2)`` seconds, a fixed schedule with no jitter so
  chaos runs and their journals are reproducible.  A batch of attempts
  waits once, for the largest delay among them.
* **Timeout escalation** — with ``timeout_factor`` set, a timed-out
  job is retried (within its bounded attempts) with its timeout
  multiplied by the factor, which turns "this cell is slow today" into
  a recoverable condition instead of a dead cell.  Without it a timeout
  is final.

Timeouts are enforced *inside* the worker via ``SIGALRM`` (each pool
worker runs jobs on its main thread), so a timed-out job ends cleanly
without tearing down the pool.  Where ``SIGALRM`` does not exist the
timeout degrades to best-effort (the job runs to completion) and a
one-time :class:`RuntimeWarning` makes the degradation visible.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
import time
import traceback
import warnings
from collections.abc import Callable, Generator, Iterator, Sequence
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures import TimeoutError as PoolWaitTimeout
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, replace

from repro.pipeline import SimResult
from repro.runtime.jobs import (
    _TRACE_MEMO,
    Job,
    TraceGroup,
    execute_job_info,
    result_from_payload,
)

# events callback: (kind, job, extra-fields) -> None
EventFn = Callable[[str, Job, dict], None]
# outcome callback: invoked the moment a job's outcome is final, before
# run() returns — callers journal/cache each cell as it settles so a
# later hang, crash or interrupt cannot lose already-finished work
OutcomeFn = Callable[["JobOutcome"], None]

INTERRUPTED_ERROR = "interrupted by signal before completion"


class JobTimeoutError(RuntimeError):
    """A job exceeded its per-job timeout."""


@dataclass
class JobOutcome:
    """What happened to one job."""

    job: Job
    status: str         # "ok" | "error" | "timeout" | "interrupted"
    result: SimResult | None = None
    error: str | None = None
    duration: float = 0.0
    attempts: int = 1
    cache_hit: bool = False
    resumed: bool = False
    # How the worker obtained the trace it simulated against:
    # "built" | "cache" | "memo" | "shared" (None for cache hits and
    # failures — no simulation happened).
    trace_source: str | None = None
    # pid of the process that ran the final attempt (None when no
    # attempt reported back: a cache hit, or a worker that died)
    worker_pid: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def finished_fields(self) -> dict:
        """The fields of this outcome's ``job_finished`` journal event.

        An ok outcome embeds its result payload: it is what ``--resume``
        and the farm's recovery replay.
        """
        fields = dict(
            key=self.job.key,
            workload=self.job.workload,
            scheme=self.job.scheme_id,
            status=self.status,
            duration=round(self.duration, 6),
            attempts=self.attempts,
            error=self.error,
        )
        if self.trace_source is not None:
            fields["trace_source"] = self.trace_source
        if self.worker_pid is not None:
            fields["worker_pid"] = self.worker_pid
        if self.ok:
            assert self.result is not None
            fields["result"] = self.result.to_dict()
        return fields


_timeout_degraded_warned = False


def _call_with_timeout(fn: Callable[[], object], timeout: float | None) -> object:
    """Run ``fn``, raising :class:`JobTimeoutError` after ``timeout`` s.

    Uses ``SIGALRM``/``setitimer``, which only works on the main thread
    of a process with POSIX signals — exactly where executor workers
    (and the serial driver) run.  Anywhere else the call is unbounded,
    and a one-time :class:`RuntimeWarning` says so instead of silently
    dropping the limit.
    """
    wanted = timeout is not None and timeout > 0
    usable = (
        wanted
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        global _timeout_degraded_warned
        if wanted and not _timeout_degraded_warned:
            _timeout_degraded_warned = True
            warnings.warn(
                "per-job timeout requested but SIGALRM is unavailable here "
                "(no POSIX signals or not on the main thread); jobs run "
                "unbounded",
                RuntimeWarning,
                stacklevel=2,
            )
        return fn()

    def _on_alarm(signum, frame):
        raise JobTimeoutError(f"job exceeded timeout of {timeout:.3f}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _run_attempt(job: Job, call: Callable[[], tuple[dict, dict]]) -> dict:
    """One attempt of ``job`` under its timeout, as an envelope.

    ``call`` returns ``(payload, trace info)``.  The envelope is
    ``{"status": "ok", "result": payload, "duration": s, **info}`` or
    ``{"status": "timeout" | "error", "error": message, "duration": s}``,
    and either carries the running process's ``worker_pid``.  The
    duration is measured where the job runs, so it excludes time spent
    queued in a pool.
    """
    started = time.monotonic()
    try:
        payload, info = _call_with_timeout(call, job.timeout)
    except JobTimeoutError as exc:
        envelope = {"status": "timeout", "error": str(exc)}
    except Exception as exc:
        envelope = {"status": "error", "error": _format_error(exc)}
    else:
        envelope = {"status": "ok", "result": payload, **info}
    envelope.update(duration=time.monotonic() - started,
                    worker_pid=os.getpid())
    return envelope


def _worker_run(
    jobs: Sequence[Job],
    cache_dir: str | None,
    attempt: int = 1,
    fault_spec: str | None = None,
) -> list[dict]:
    """Run one attempt of each job; one :func:`_run_attempt` envelope each.

    The entry point of every transport, in a pool worker or in the
    calling process.  A lone job runs through :func:`execute_job_info`.
    Several jobs are a trace group sharing one trace key: the trace is
    acquired once (attach → memo → cache → build) and every cell
    simulates against it under its own timeout.  Cells are independent
    — one raising or timing out does not stop its siblings — and the
    first cell's envelope reports the group's ``trace_built_attempt``.
    A group whose trace cannot be acquired raises.
    """
    if len(jobs) == 1:
        job = jobs[0]
        return [_run_attempt(job, lambda: execute_job_info(
            job, cache_dir, attempt=attempt, fault_spec=fault_spec))]
    with TraceGroup(list(jobs), cache_dir) as group:
        source = {"trace_source": group.trace_source}
        cells = [
            _run_attempt(job, lambda job=job: (
                group.run_cell(job, attempt=attempt, fault_spec=fault_spec),
                source))
            for job in jobs
        ]
    if group.trace_built_attempt is not None:
        cells[0]["trace_built_attempt"] = group.trace_built_attempt
    return cells


def _no_events(kind: str, job: Job, fields: dict) -> None:
    pass


def _no_outcome(outcome: "JobOutcome") -> None:
    pass


def _may_fork() -> bool:
    """Whether this process may fork pool workers: Linux, CPython 3.11+
    and one thread as the kernel counts it (threads started by C code
    included; CPython 3.12 counts the same before it warns about fork)."""
    if sys.platform != "linux" or sys.version_info < (3, 11):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _pool_context():
    """The multiprocessing context a new pool's workers start from.

    ``fork`` when :func:`_may_fork`: a worker is then a copy of
    the caller, which has imported the simulator already.  From 3.11 a
    fork-context ``ProcessPoolExecutor`` forks all its workers inside
    its first ``submit``, before it starts its manager and queue-feeder
    threads, and never forks again (a dead worker breaks the pool), so
    no worker can inherit a lock some thread holds.  The check holds
    only if no thread starts between it and that first submit, which
    :func:`_make_pool`'s callers keep.

    ``forkserver`` otherwise, as from the serve gateway, whose leases
    make their pools on ``asyncio.to_thread`` threads: a worker forked
    while another thread holds a lock inherits it held forever and
    deadlocks on first acquire.  Every worker then forks from one
    single-threaded server process; preloading this module keeps the
    per-worker cost at a plain fork after the server's one-time import.
    Falls back to the platform default where forkserver does not exist
    (Windows).
    """
    if _may_fork():
        return multiprocessing.get_context("fork")
    try:
        ctx = multiprocessing.get_context("forkserver")
    except ValueError:
        return multiprocessing.get_context()
    ctx.set_forkserver_preload(["repro.runtime.executor"])
    return ctx


def _exit_with_owner(owner: int) -> None:
    """Pool-worker initializer: start from a fresh worker's state, and
    exit once the pool's owner is gone.

    A forked worker inherits what its owner had when it forked, so
    SIGTERM gets back its default disposition (the owner may be inside
    ``Runtime``'s SIGTERM-to-``KeyboardInterrupt`` handler, which would
    turn a killed worker into the user's Ctrl-C) and the trace memo is
    emptied (a memo hit would skip the build the journal and the trace
    cache expect).  A forkserver child has both already.

    A worker blocks on its call queue and never notices its owner die
    (it holds the queue's writing end itself, so it never reads end of
    file), and a forkserver child's forkserver lives as long as any
    worker holds its alive pipe.  So a daemon thread polls the owner's
    pid twice a second.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _TRACE_MEMO.clear()

    def watch() -> None:
        while True:
            time.sleep(0.5)
            try:
                os.kill(owner, 0)
            except OSError:
                os._exit(1)

    threading.Thread(target=watch, name="repro-owner-watch",
                     daemon=True).start()


def _make_pool(max_workers: int) -> ProcessPoolExecutor:
    """A pool whose workers start from :func:`_pool_context`.

    Call it directly before the pool's first ``submit`` and start no
    thread in between: the start method is chosen from the thread count
    now, and a fork pool forks at that submit.
    """
    return ProcessPoolExecutor(max_workers=max_workers,
                               mp_context=_pool_context(),
                               initializer=_exit_with_owner,
                               initargs=(os.getpid(),))


@dataclass
class _Attempt:
    """One job's way through the attempt machine."""

    job: Job            # as its next attempt runs it (timeout escalated)
    attempts: int = 0   # attempts charged so far


# What a transport yields per finished attempt: the job's state, the
# attempt's envelope or the exception its submission raised, and the
# seconds since submission.
Settling = tuple[_Attempt, dict | Exception, float]
# A transport carries out one round: (batches, cache_dir, events,
# fault_spec) -> the round's finished attempts.  A batch of several jobs
# is a trace group, submitted as one call.
Transport = Callable[
    [list[list[_Attempt]], str | None, EventFn, str | None],
    Iterator[Settling],
]


def _results(batch: list[_Attempt], result: list[dict] | Exception,
             duration: float) -> list[Settling]:
    """Pair each job of a submitted batch with its attempt's result:
    its envelope, or the exception the whole submission raised."""
    if isinstance(result, Exception):
        return [(state, result, duration) for state in batch]
    return [(state, envelope, duration)
            for state, envelope in zip(batch, result)]


def _uncharge(batches: list[list[_Attempt]]) -> None:
    for batch in batches:
        for state in batch:
            state.attempts -= 1


class _AttemptMachine:
    """Start, settle and the driver loop, shared by every executor."""

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
    ) -> None:
        self.retries = max(0, retries)
        self.backoff = max(0.0, backoff)
        self.timeout_factor = timeout_factor

    def _drive(
        self,
        units: list[list[list[Job]]],
        transport: Transport,
        cache_dir: str | None,
        events: EventFn | None,
        fault_spec: str | None,
        on_outcome: OutcomeFn | None,
    ) -> list[JobOutcome]:
        """The one driver loop: every job to a terminal outcome.

        ``units`` run one after another, each a list of trace groups
        (lists of jobs with distinct keys; callers deduplicate).  A
        unit's first round submits each group as one batch; later rounds
        resubmit every job still without an outcome alone, until none is
        left.  Returns the outcomes in job order.
        """
        events = events or _no_events
        on_outcome = on_outcome or _no_outcome
        order = [job for unit in units for group in unit for job in group]
        states = {job.key: _Attempt(job) for job in order}
        done: dict[str, JobOutcome] = {}
        try:
            for unit in units:
                batches = [[states[job.key] for job in group]
                           for group in unit if group]
                while batches:
                    with closing(transport(batches, cache_dir, events,
                                           fault_spec)) as finished:
                        for state, result, duration in finished:
                            outcome = self._settle(state, result, duration,
                                                   events)
                            if outcome is not None:
                                done[state.job.key] = outcome
                                on_outcome(outcome)
                    batches = [[state] for batch in batches
                               for state in batch
                               if state.job.key not in done]
        except KeyboardInterrupt:
            for key, state in states.items():
                if key not in done:
                    done[key] = JobOutcome(
                        state.job, "interrupted", error=INTERRUPTED_ERROR,
                        attempts=state.attempts,
                    )
                    on_outcome(done[key])
        return [done[job.key] for job in order]

    def _start(self, batch: list[_Attempt], events: EventFn) -> None:
        """Charge each job of ``batch`` an attempt, wait the batch's
        backoff once, then announce every attempt."""
        for state in batch:
            state.attempts += 1
        retry = max(state.attempts for state in batch)
        if self.backoff > 0.0 and retry > 1:
            time.sleep(self.backoff * 2 ** (retry - 2))
        for state in batch:
            events("job_started", state.job, {"attempt": state.attempts})

    def _settle(
        self,
        state: _Attempt,
        result: dict | Exception,
        duration: float,
        events: EventFn,
    ) -> JobOutcome | None:
        """The one decision point: an attempt's result becomes a
        terminal ok/timeout/error outcome, or None to retry the job.

        ``result`` is the attempt's envelope (:func:`_run_attempt`) or
        the exception its submission raised — ``BrokenProcessPool``
        only where the dead worker ran this job alone.  ``duration``
        counts for exceptions; an envelope carries its own.
        """
        pid = None
        if isinstance(result, BrokenProcessPool):
            status, error = "error", "worker process died (crash or kill)"
        elif isinstance(result, Exception):
            status, error = "error", _format_error(result)
        else:
            built = result.get("trace_built_attempt")
            if built is not None:
                events("trace_built", state.job, {"attempt": built})
            status, error = result["status"], result.get("error")
            duration, pid = result["duration"], result["worker_pid"]
        if status == "ok":
            return JobOutcome(
                state.job, "ok", result=result_from_payload(result["result"]),
                duration=duration, attempts=state.attempts,
                trace_source=result.get("trace_source"), worker_pid=pid,
            )
        if status == "timeout":
            if self.escalate_timeout(state):
                return None
        elif state.attempts <= self.retries:
            return None
        return JobOutcome(state.job, status, error=error, duration=duration,
                          attempts=state.attempts, worker_pid=pid)

    def escalate_timeout(self, state: _Attempt) -> bool:
        """Retry a timed-out attempt with a scaled timeout, if enabled."""
        if (
            self.timeout_factor is None
            or state.job.timeout is None
            or state.attempts > self.retries
        ):
            return False
        state.job = replace(
            state.job, timeout=state.job.timeout * self.timeout_factor
        )
        return True


class SerialExecutor(_AttemptMachine):
    """Run jobs one at a time in the calling process.

    Each job runs to a terminal outcome before the next starts, so a
    retry finds the trace its first attempt built still in the worker
    memo, and the journal reads job by job.
    """

    def run(
        self,
        jobs: Sequence[Job],
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
        on_outcome: OutcomeFn | None = None,
    ) -> list[JobOutcome]:
        return self._drive([[[job]] for job in jobs], self._in_process,
                           cache_dir, events, fault_spec, on_outcome)

    def run_grouped(
        self,
        groups: Sequence[Sequence[Job]],
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
        on_outcome: OutcomeFn | None = None,
    ) -> list[JobOutcome]:
        """Run trace groups: each group's cells share one acquired trace.

        Every cell settles on its own from the group call; a cell that
        needs another attempt is retried alone with its first (group)
        attempt already charged, so the bounded-attempt policy is
        identical to :meth:`run`.
        """
        return self._drive([[list(group)] for group in groups],
                           self._in_process, cache_dir, events, fault_spec,
                           on_outcome)

    def _in_process(
        self,
        batches: list[list[_Attempt]],
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
    ) -> Iterator[Settling]:
        """The in-process transport: each batch is one call, in turn."""
        for batch in batches:
            self._start(batch, events)
            started = time.monotonic()
            try:
                result = _worker_run([state.job for state in batch],
                                     cache_dir, batch[0].attempts, fault_spec)
            except Exception as exc:    # a group's trace acquisition
                result = exc
            yield from _results(batch, result, time.monotonic() - started)


class JobLease(_AttemptMachine):
    """One leased worker slot: a dedicated single-worker pool running
    one job at a time, with the shared failure policy.

    This is the executor-side unit the :mod:`repro.serve` scheduler
    hands out — it holds ``workers`` leases and feeds each one cell per
    grant from its fairness queue.  The worker process persists across
    :meth:`run_one` calls, so same-trace cells run on one lease in turn
    find the trace in its memo.  Because every lease owns its
    own single-worker pool, a crashing job breaks only that pool
    (rebuilt lazily for the next attempt) and blame is never ambiguous
    the way it is in a shared pool; a neighbouring tenant's cell is
    untouchable.

    :meth:`run_one` is synchronous and never raises for job failures —
    it always returns a terminal :class:`JobOutcome` — so callers can
    drive it from a thread (``asyncio.to_thread``) without an exception
    escaping the executor.  :meth:`cancel` is the shutdown hook: it
    kills the in-flight attempt's worker process, which surfaces in
    :meth:`run_one` as an ``"interrupted"`` outcome (the same status
    the batch executors use for SIGINT/SIGTERM).  :meth:`reap` is the
    *watchdog* hook: same worker kill, but without latching the cancel
    flag, so the cell flows down the ordinary retry/backoff path
    instead of settling interrupted.

    With ``heartbeat`` set, :meth:`run_one` emits a
    ``worker_heartbeat`` event every ``heartbeat`` seconds while an
    attempt is executing — proof of life for the lease itself, and the
    signal a serve-side watchdog contrasts with wall-clock silence to
    spot a wedged slot.
    """

    def __init__(
        self,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
        heartbeat: float | None = None,
    ) -> None:
        super().__init__(retries=retries, backoff=backoff,
                         timeout_factor=timeout_factor)
        self.heartbeat = heartbeat if heartbeat and heartbeat > 0 else None
        self._pool: ProcessPoolExecutor | None = None
        self._cancelled = False

    def run_one(
        self,
        job: Job,
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
    ) -> JobOutcome:
        """Run one job to a terminal outcome (never raises job errors)."""
        return self._drive([[[job]]], self._on_lease, cache_dir, events,
                           fault_spec, None)[0]

    def _on_lease(
        self,
        batches: list[list[_Attempt]],
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
    ) -> Iterator[Settling]:
        """The lease transport: the attempt on the lease's worker.

        A cancelled lease raises ``KeyboardInterrupt``, so the driver
        loop settles the job ``"interrupted"`` as it does for Ctrl-C.
        """
        ((state,),) = batches
        if self._cancelled:
            raise KeyboardInterrupt(INTERRUPTED_ERROR)
        self._start([state], events)
        if self._pool is None:
            self._pool = _make_pool(1)
        started = time.monotonic()
        try:
            future = self._pool.submit(_worker_run, [state.job], cache_dir,
                                       state.attempts, fault_spec)
            if self._cancelled:
                # cancel() ran while submit was still starting the
                # worker, so its reap found no process to kill
                self.reap()
            result = self._await(future, state, started, events)
        except BrokenProcessPool as exc:
            self.close()    # dead pool; the next attempt gets a new one
            if self._cancelled:
                raise KeyboardInterrupt(INTERRUPTED_ERROR) from None
            result = exc
        except Exception as exc:
            result = exc
        yield from _results([state], result, time.monotonic() - started)

    def _await(self, future: Future, state: _Attempt, started: float,
               events: EventFn) -> list[dict]:
        """The attempt's result, with a heartbeat while it runs."""
        while True:
            try:
                return future.result(timeout=self.heartbeat)
            except PoolWaitTimeout:
                events("worker_heartbeat", state.job, {
                    "attempt": state.attempts,
                    "elapsed": round(time.monotonic() - started, 3),
                })

    def cancel(self) -> None:
        """Abort the in-flight attempt: terminate the worker process.

        Killing the worker breaks the lease's pool, which
        :meth:`run_one` observes as ``BrokenProcessPool`` and — with
        the cancel flag latched — reports as ``"interrupted"`` rather
        than retrying.  ``_processes`` is pool-internal but stable
        across supported CPythons, and there is no public way to kill
        a hung worker.
        """
        self._cancelled = True
        self.reap()

    def reap(self) -> None:
        """Kill the in-flight attempt's worker *without* cancelling.

        The lease-watchdog hook: unlike :meth:`cancel`, the cancel flag
        stays clear, so :meth:`run_one` observes the resulting
        ``BrokenProcessPool`` as an ordinary worker death — the attempt
        is retried on a fresh pool (lazily rebuilt) under the bounded
        retry/backoff policy, or settles ``"error"`` once attempts are
        exhausted.  A hang therefore costs the cell, never the slot.
        """
        pool = self._pool
        if pool is not None:
            for proc in list(getattr(pool, "_processes", {}).values()):
                try:
                    proc.terminate()
                except (OSError, AttributeError):
                    pass

    def close(self) -> None:
        """Shut the lease's pool down (rebuilt lazily on next use)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None


class ParallelExecutor(_AttemptMachine):
    """Fan jobs out over a ``ProcessPoolExecutor``.

    Crash isolation: when a worker dies, ``ProcessPoolExecutor`` breaks
    the whole pool and every in-flight future fails with
    ``BrokenProcessPool`` — the parent cannot tell culprit from victim.
    So a broken shared pool costs nobody an attempt; the survivors are
    re-run in *isolation mode*, one single-worker pool per job, where a
    dying worker indicts exactly one job.  A job that repeatedly kills
    its worker exhausts its bounded attempts and becomes one failed
    cell; everything else completes normally.
    """

    def __init__(
        self,
        max_workers: int,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
    ) -> None:
        super().__init__(retries=retries, backoff=backoff,
                         timeout_factor=timeout_factor)
        self.max_workers = max(1, max_workers)

    def run(
        self,
        jobs: Sequence[Job],
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
        on_outcome: OutcomeFn | None = None,
    ) -> list[JobOutcome]:
        return self._drive([[[job] for job in jobs]], self._pool_transport(),
                           cache_dir, events, fault_spec, on_outcome)

    def run_grouped(
        self,
        groups: Sequence[Sequence[Job]],
        cache_dir: str | None = None,
        events: EventFn | None = None,
        fault_spec: str | None = None,
        on_outcome: OutcomeFn | None = None,
    ) -> list[JobOutcome]:
        """Fan trace groups out: one worker submission per group.

        The first round ships whole groups (each worker acquires its
        group's trace once and runs every cell); any cell that fails in
        its group — or whose group broke the pool — is resubmitted alone
        in the later rounds, carrying its ``trace_ref`` so retries
        re-attach instead of regenerating.
        """
        return self._drive([[list(group) for group in groups]],
                           self._pool_transport(), cache_dir, events,
                           fault_spec, on_outcome)

    def _pool_transport(self) -> Transport:
        """Shared-pool rounds until one breaks, isolation rounds after.

        At most one shared round can break (isolation latches on), and
        isolation rounds charge an attempt to every job they submit, so
        a run ends within ``retries + 2`` rounds.
        """
        isolate = False

        def rounds(batches, cache_dir, events, fault_spec):
            nonlocal isolate
            if isolate:
                yield from self._isolated_round(batches, cache_dir, events,
                                                fault_spec)
            else:
                isolate = yield from self._shared_round(
                    batches, cache_dir, events, fault_spec)

        return rounds

    def _shared_round(
        self,
        batches: list[list[_Attempt]],
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
    ) -> Generator[Settling, None, bool]:
        """One submission per batch to one shared pool; returns True if
        the pool broke (its attempts in flight are uncharged)."""
        self._start([state for batch in batches for state in batch], events)
        pool = _make_pool(self.max_workers)
        futures = {}
        broke = False
        settled = False
        try:
            for index, batch in enumerate(batches):
                try:
                    future = pool.submit(
                        _worker_run, [state.job for state in batch],
                        cache_dir, batch[0].attempts, fault_spec,
                    )
                except BrokenProcessPool:
                    # died mid-submission; uncharge the unsent batches
                    # and leave them for the isolation rounds
                    _uncharge(batches[index:])
                    broke = True
                    break
                futures[future] = (batch, time.monotonic())
            for future in as_completed(futures):
                batch, submitted = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    # culprit unknown — uncharge the attempt and let the
                    # isolation rounds assign blame
                    _uncharge([batch])
                    broke = True
                    continue
                except Exception as exc:
                    result = exc
                yield from _results(batch, result,
                                    time.monotonic() - submitted)
            settled = True
        finally:
            # Once every future has resolved, workers are idle or dead
            # and joining the pool's helper threads is cheap — and
            # necessary before the isolation rounds fork fresh pools:
            # forking while a dying pool's queue-feeder threads still
            # hold their locks can deadlock the new workers.  Only an
            # interrupt (a worker may be mid-job) skips the join.
            pool.shutdown(wait=settled, cancel_futures=True)
        return broke

    def _isolated_round(
        self,
        batches: list[list[_Attempt]],
        cache_dir: str | None,
        events: EventFn,
        fault_spec: str | None,
    ) -> Iterator[Settling]:
        """Each job in its own single-worker pool, ``max_workers`` at a
        time: a dead worker indicts exactly its job.

        A chunk's first pool may fork its worker; each later pool of the
        chunk sees the earlier pools' manager threads and so starts its
        worker from the forkserver (:func:`_pool_context`)."""
        states = [state for batch in batches for state in batch]
        for first in range(0, len(states), self.max_workers):
            chunk = states[first:first + self.max_workers]
            self._start(chunk, events)
            pools: list[ProcessPoolExecutor] = []
            futures = {}
            settled = False
            try:
                for state in chunk:
                    pool = _make_pool(1)
                    pools.append(pool)
                    future = pool.submit(_worker_run, [state.job], cache_dir,
                                         state.attempts, fault_spec)
                    futures[future] = (state, time.monotonic())
                for future in as_completed(futures):
                    state, submitted = futures[future]
                    try:
                        result = future.result()
                    except Exception as exc:
                        result = exc
                    yield from _results([state], result,
                                        time.monotonic() - submitted)
                settled = True
            finally:
                # join on the settled path for the same fork-safety
                # reason as the shared round (see above)
                for pool in pools:
                    pool.shutdown(wait=settled, cancel_futures=True)


def _format_error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()

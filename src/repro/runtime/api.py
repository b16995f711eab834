"""The runtime facade: grid orchestration over cache + executor + journal.

:class:`Runtime` is what the experiments layer and the CLI talk to::

    runtime = Runtime(jobs=4)                 # cached, 4-way parallel
    grid = runtime.run_grid(
        schemes=["baseline", "dlvp", "vtage"],
        workloads=["gzip", "perlbmk"],
        n_instructions=8_000,
    )
    grid.speedups("dlvp")                     # {workload: speedup}

Result caching is transparent: each job's content hash is looked up
before anything is scheduled, so unchanged cells of a sweep return
instantly and only the misses ever reach an executor.  Every step is
recorded in the run journal.

Fault tolerance:

* **Graceful interruption** — SIGINT/SIGTERM during :meth:`run_jobs`
  stops scheduling, marks unfinished cells ``"interrupted"``, emits a
  ``run_interrupted`` journal event, and still returns (and caches)
  every completed cell; :meth:`GridResult.partial_report` renders the
  damage instead of a stack trace.
* **Journal-driven resume** — ``resume_from=<journal>`` replays a
  previous run's ``job_finished`` events: any job whose key already
  finished ``ok`` is skipped (a ``job_resumed`` event) and its result
  reconstructed from the journal payload, which works even with the
  cache disabled.
* **Cache integrity** — corrupt cache entries are quarantined by
  :class:`~repro.runtime.cache.ResultCache` and surface here as
  ``cache_corrupt`` journal events, then the cell simply re-executes.
* **Fault injection** — a :class:`~repro.faults.FaultPlan` (or
  ``$REPRO_FAULT_SPEC``) makes chosen jobs crash/hang/raise/stall in
  the worker, and ``corrupt_cache`` faults garble the entry right
  after it is written, so every one of the paths above is testable.
"""

from __future__ import annotations

import signal
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from repro.faults import FaultPlan, active_plan, corrupt_file
from repro.pipeline import RecoveryMode, SimResult
from repro.runtime.cache import ResultCache, default_cache_dir
from repro.runtime.executor import (
    INTERRUPTED_ERROR,
    JobOutcome,
    ParallelExecutor,
    SerialExecutor,
)
from repro.runtime.jobs import (
    TRACE_FORMATS,
    Job,
    make_job,
    result_from_payload,
    trace_cache_key,
)
from repro.runtime.journal import RunJournal, completed_results
from repro.workloads import build_workload_columnar, workload_names


class RunInterrupted(RuntimeError):
    """A grid run was cut short by SIGINT/SIGTERM.

    Carries the partial :class:`GridResult` so callers can report the
    completed cells (which are already cached) and suggest ``--resume``.
    """

    def __init__(self, grid: "GridResult") -> None:
        super().__init__(grid.partial_report())
        self.grid = grid


class UnsafeFaultPlan(ValueError):
    """A crash fault planned for jobs that would run in the caller."""


class Runtime:
    """Schedule simulation jobs with caching, fan-out and journaling.

    Args:
        jobs: Worker processes; 1 selects the in-process
            :class:`SerialExecutor` (also the Windows-safe path).
        cache_dir: Cache root; None means the default
            (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
        use_cache: Disable to force every job to execute (``--no-cache``).
        journal: An existing journal to append to, or None to create one.
        journal_path: Where the created journal writes its JSONL file;
            None keeps events in memory only.
        timeout: Per-job wall-clock budget in seconds (None: unbounded).
        retries: Extra attempts for a job whose worker raised or died.
        backoff: Base seconds for the deterministic exponential retry
            delay (attempt n waits ``backoff * 2**(n-2)``); 0 disables.
        timeout_factor: When set, a timed-out job is retried (within
            its bounded attempts) with its timeout multiplied by this.
        faults: A :class:`~repro.faults.FaultPlan` or spec string for
            deterministic fault injection; None falls back to
            ``$REPRO_FAULT_SPEC`` (normally unset: no faults).  A plan
            with a ``crash`` rule needs ``jobs >= 2``; at ``jobs=1``
            the crash would kill this process, so
            :class:`UnsafeFaultPlan` refuses it.
        resume_from: A journal path (or pre-read event list) whose
            completed jobs should be skipped and replayed from their
            journaled result payloads.
        trace_format: How executed jobs obtain their columnar trace:
            ``"columnar"`` (default; each worker takes it from its memo,
            the trace cache, or builds it) or ``"shared"`` — the
            zero-copy trace fabric: the parent generates each distinct
            trace once, publishes it to shared memory
            (:mod:`repro.trace.share`), and dispatches grid cells
            *grouped by trace* so each worker attaches one trace and
            simulates every scheme against it.  Results are
            bit-identical in both modes, so the choice does not enter
            the cache key.
        trace_dir: When set, every executed job runs under the full
            observability stack (:mod:`repro.observe`) and writes its
            Chrome trace (and, on failure, flight-recorder dump) into
            this directory.  Traced jobs bypass cache *reads* — the
            artifacts are the point — but their results are still
            cached for later untraced sweeps.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        journal: RunJournal | None = None,
        journal_path: str | Path | None = None,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
        faults: FaultPlan | str | None = None,
        resume_from: str | Path | list[dict] | None = None,
        trace_dir: str | Path | None = None,
        trace_format: str = "columnar",
    ) -> None:
        if trace_format not in TRACE_FORMATS:
            raise ValueError(f"unknown trace format: {trace_format!r}")
        self.jobs = max(1, jobs)
        if isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        self.faults = faults if faults is not None else active_plan()
        if self.jobs == 1 and self.faults is not None and any(
            rule.kind == "crash" for rule in self.faults.rules
        ):
            raise UnsafeFaultPlan(
                "a crash fault needs worker processes: at jobs=1 it would "
                "kill this process; rerun with --jobs 2")
        self.trace_dir = str(trace_dir) if trace_dir is not None else None
        self.trace_format = trace_format
        self.cache = (
            ResultCache(
                cache_dir if cache_dir is not None else default_cache_dir(),
                on_corrupt=self._on_cache_corrupt,
            )
            if use_cache
            else None
        )
        self.journal = journal if journal is not None else RunJournal(journal_path)
        self.timeout = timeout
        self._resume = (
            completed_results(resume_from) if resume_from is not None else {}
        )
        if self.jobs > 1:
            self.executor: SerialExecutor | ParallelExecutor = ParallelExecutor(
                self.jobs, retries=retries, backoff=backoff,
                timeout_factor=timeout_factor,
            )
        else:
            self.executor = SerialExecutor(
                retries=retries, backoff=backoff, timeout_factor=timeout_factor
            )

    # -- scheduling ------------------------------------------------------

    def run_jobs(self, jobs: Sequence[Job]) -> dict[str, JobOutcome]:
        """Run jobs (deduplicated by key), returning outcomes by key.

        Completed cells are returned (and cached) even when the run is
        interrupted mid-flight — the remainder come back with status
        ``"interrupted"`` after a ``run_interrupted`` journal event.
        """
        unique: dict[str, Job] = {}
        for job in jobs:
            unique.setdefault(job.key, job)
        self.journal.event(
            "run_started", jobs=len(unique), workers=self.jobs,
            cached=self.cache is not None, resumable=len(self._resume),
        )
        outcomes: dict[str, JobOutcome] = {}
        to_run: list[Job] = []
        for key, job in unique.items():
            self.journal.event("job_submitted", **job.identity())
            resumed = self._resumed_outcome(job)
            if resumed is not None:
                outcomes[key] = resumed
                self.journal.event("job_resumed", key=key,
                                   workload=job.workload,
                                   scheme=job.scheme_id)
                continue
            cached = (
                self.cache.get(key)
                if self.cache is not None and not job.trace_dir
                else None
            )
            if cached is not None:
                outcomes[key] = JobOutcome(job, "ok", result=cached, cache_hit=True)
                self.journal.event("cache_hit", key=key, workload=job.workload,
                                   scheme=job.scheme_id)
            else:
                if self.cache is not None:
                    self.journal.event("cache_miss", key=key, workload=job.workload,
                                       scheme=job.scheme_id)
                to_run.append(job)
        if to_run:
            interrupted = self._execute(to_run, outcomes)
            if interrupted:
                self.journal.event(
                    "run_interrupted",
                    completed=sum(1 for o in outcomes.values()
                                  if o.status != "interrupted"),
                    interrupted=sum(1 for o in outcomes.values()
                                    if o.status == "interrupted"),
                )
        self.journal.event("run_finished", **self.journal.summary())
        return outcomes

    def _execute(
        self, to_run: list[Job], outcomes: dict[str, JobOutcome]
    ) -> bool:
        """Run the cache misses through the executor; True if interrupted.

        Each job is journaled (``job_finished``) and cached *as it
        settles*, not when the whole batch returns — so a later hang,
        worker crash or SIGKILL cannot lose cells that already finished,
        and ``--resume`` can pick them up from the journal.  SIGTERM is
        converted to ``KeyboardInterrupt`` for the duration (main thread
        only), so ``kill <pid>`` gets the same graceful partial-result
        path as Ctrl-C.
        """
        fault_spec = self.faults.spec() if self.faults is not None else None
        interrupted = False

        def _finish(outcome: JobOutcome) -> None:
            nonlocal interrupted
            self.journal.event("job_finished", **outcome.finished_fields())
            outcomes[outcome.job.key] = outcome
            interrupted = interrupted or outcome.status == "interrupted"
            if outcome.ok and self.cache is not None:
                self.cache.put(outcome.job.key, outcome.result,
                               outcome.job.identity())
                self._maybe_corrupt_cache(outcome)

        cache_dir = str(self.cache.root) if self.cache is not None else None
        grouped, store = self._fabric_groups(to_run)
        try:
            with _sigterm_as_interrupt():
                if grouped is not None:
                    executed = self.executor.run_grouped(
                        grouped, cache_dir=cache_dir,
                        events=self._executor_event, fault_spec=fault_spec,
                        on_outcome=_finish,
                    )
                else:
                    executed = self.executor.run(
                        to_run, cache_dir=cache_dir,
                        events=self._executor_event, fault_spec=fault_spec,
                        on_outcome=_finish,
                    )
        finally:
            if store is not None:
                store.close()
        for outcome in executed:      # belt and braces: never drop a cell
            if outcome.job.key not in outcomes:
                _finish(outcome)
        return interrupted

    # -- trace fabric ----------------------------------------------------

    def _fabric_groups(self, to_run: list[Job]):
        """Group jobs by trace key and publish each trace to the fabric.

        Returns ``(groups, store)`` — or ``(None, None)`` outside
        ``trace_format="shared"``, where per-cell dispatch is used.  In
        fabric mode the parent acquires each distinct trace once
        (trace cache, else generate), publishes it to a
        :class:`~repro.trace.share.TraceStore`, and tags every job in
        the group with the attach ref; the executor then ships whole
        groups so a worker simulates N schemes per trace acquisition
        instead of one.  A failed publish degrades gracefully: the
        group still runs, each worker building locally.
        """
        if self.trace_format != "shared":
            return None, None
        from repro.trace.share import TraceStore

        root = Path(self.cache.root) / "fabric" if self.cache is not None else None
        store = TraceStore(root=root)
        if store.orphans_removed:
            self.journal.event("fabric_orphans_removed",
                               segments=store.orphans_removed)
        by_trace: dict[str, list[Job]] = {}
        singles: list[Job] = []
        for job in to_run:
            if job.trace_dir:
                # Observability cells keep their own full-stack run;
                # still dispatched as singleton groups for one code path.
                singles.append(job)
            else:
                tkey = trace_cache_key(job.workload, job.n_instructions,
                                       job.salt)
                by_trace.setdefault(tkey, []).append(job)
        groups: list[list[Job]] = []
        for tkey, members in by_trace.items():
            ref = self._publish_trace(store, tkey, members[0], len(members))
            if ref is None:
                groups.append(members)
            else:
                groups.append([replace(job, trace_ref=ref)
                               for job in members])
        groups.extend([job] for job in singles)
        return groups, store

    def _publish_trace(self, store, tkey: str, job: Job,
                       cells: int) -> str | None:
        """Acquire one trace in the parent and publish it; None on failure.

        A freshly built trace is serialized exactly once: the same v4
        image goes to the shared segment and (byte-identically) to the
        disk trace cache.
        """
        from repro.trace.serialization import v4_bytes

        try:
            trace = None
            built = False
            if self.cache is not None:
                trace = self.cache.get_trace_columnar(tkey)
            if trace is None:
                trace = build_workload_columnar(job.workload,
                                                job.n_instructions)
                built = True
            image = v4_bytes(trace)
            if built and self.cache is not None:
                self.cache.put_trace_image(tkey, image)
            ref = store.publish(tkey, trace, image=image)
        except Exception as exc:
            self.journal.event("trace_publish_failed", trace_key=tkey,
                               workload=job.workload, error=str(exc))
            return None
        if built:
            self.journal.event("trace_built", key=job.key,
                               workload=job.workload, scheme=job.scheme_id,
                               attempt=0)
        self.journal.event("trace_published", trace_key=tkey, ref=ref,
                           workload=job.workload,
                           n_instructions=job.n_instructions,
                           cells=cells)
        return ref

    def _resumed_outcome(self, job: Job) -> JobOutcome | None:
        """Rebuild a completed job's outcome from the resume journal."""
        payload = self._resume.get(job.key)
        if payload is None:
            return None
        try:
            result = result_from_payload(payload)
        except (KeyError, TypeError, ValueError):
            return None          # journaled payload unusable: re-run
        return JobOutcome(job, "ok", result=result, resumed=True)

    def _maybe_corrupt_cache(self, outcome: JobOutcome) -> None:
        """Apply a matching ``corrupt_cache`` fault to the fresh entry."""
        if self.faults is None or self.cache is None:
            return
        job = outcome.job
        rule = self.faults.rule_for(
            job.workload, job.scheme_id, outcome.attempts, job.key
        )
        if rule is None or rule.kind != "corrupt_cache":
            return
        corrupt_file(self.cache.result_path(job.key))
        self.journal.event("fault_injected", key=job.key, fault=rule.kind,
                           rule=rule.clause())

    def _on_cache_corrupt(self, key: str, reason: str, dest: Path) -> None:
        self.journal.event("cache_corrupt", key=key, reason=reason,
                           quarantined=str(dest))

    def _executor_event(self, kind: str, job: Job, fields: dict) -> None:
        self.journal.event(kind, key=job.key, workload=job.workload,
                           scheme=job.scheme_id, **fields)

    def run_grid(
        self,
        schemes: Sequence[str],
        workloads: Sequence[str] | None = None,
        n_instructions: int = 8_000,
        recovery: RecoveryMode = RecoveryMode.FLUSH,
    ) -> "GridResult":
        """Run a (scheme x workload) grid of registered scheme ids."""
        workloads = list(workloads) if workloads is not None else workload_names()
        jobs = {
            (scheme, workload): make_job(
                workload, n_instructions, scheme, recovery=recovery,
                timeout=self.timeout, trace_dir=self.trace_dir,
                trace_format=self.trace_format,
            )
            for scheme in schemes
            for workload in workloads
        }
        outcomes = self.run_jobs(list(jobs.values()))
        return GridResult(
            schemes=list(schemes),
            workloads=workloads,
            n_instructions=n_instructions,
            recovery=recovery,
            cells={cell: outcomes[job.key] for cell, job in jobs.items()},
        )


class _sigterm_as_interrupt:
    """Context manager turning SIGTERM into KeyboardInterrupt.

    Installed only on the main thread (signal handlers cannot be set
    elsewhere); a no-op anywhere else, where SIGTERM keeps its default
    disposition.
    """

    def __enter__(self) -> "_sigterm_as_interrupt":
        self._previous = None
        if (
            hasattr(signal, "SIGTERM")
            and threading.current_thread() is threading.main_thread()
        ):
            def _raise(signum, frame):
                raise KeyboardInterrupt(INTERRUPTED_ERROR)

            try:
                self._previous = signal.signal(signal.SIGTERM, _raise)
            except (ValueError, OSError):
                self._previous = None
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)


@dataclass
class GridResult:
    """Outcomes of one grid run, addressable by (scheme, workload)."""

    schemes: list[str]
    workloads: list[str]
    n_instructions: int
    recovery: RecoveryMode
    cells: dict[tuple[str, str], JobOutcome]

    def outcome(self, scheme: str, workload: str) -> JobOutcome:
        return self.cells[(scheme, workload)]

    def result(self, scheme: str, workload: str) -> SimResult:
        """The cell's result; raises for failed/timed-out cells."""
        outcome = self.outcome(scheme, workload)
        if not outcome.ok:
            raise RuntimeError(
                f"job ({scheme}, {workload}) {outcome.status}: {outcome.error}"
            )
        assert outcome.result is not None
        return outcome.result

    def scheme_results(self, scheme: str) -> dict[str, SimResult]:
        """All of one scheme's results keyed by workload (all must be ok)."""
        return {w: self.result(scheme, w) for w in self.workloads}

    def failures(self) -> list[JobOutcome]:
        return [o for o in self.cells.values() if not o.ok]

    def interrupted(self) -> list[JobOutcome]:
        """Cells cut short by SIGINT/SIGTERM (status ``"interrupted"``)."""
        return [o for o in self.cells.values() if o.status == "interrupted"]

    @property
    def complete(self) -> bool:
        """True when no cell was interrupted (failures still count)."""
        return not self.interrupted()

    def partial_report(self) -> str:
        """Human-readable account of an interrupted grid.

        Completed cells are already cached and journaled, so the report
        points at ``--resume`` rather than apologising.
        """
        total = len(self.cells)
        stopped = len(self.interrupted())
        finished = total - stopped
        lines = [
            f"run interrupted: {finished}/{total} cells completed "
            f"(completed cells are cached/journaled), {stopped} not run",
        ]
        for outcome in self.interrupted():
            lines.append(
                f"  - {outcome.job.workload}/{outcome.job.scheme_id}: not run"
            )
        lines.append(
            "relaunch with --resume <journal> (or a warm cache) to continue"
        )
        return "\n".join(lines)

    def speedups(self, scheme: str, baseline: str = "baseline") -> dict[str, float]:
        """Per-workload speedup of ``scheme`` over ``baseline`` cells."""
        return {
            w: self.result(scheme, w).speedup_over(self.result(baseline, w))
            for w in self.workloads
        }

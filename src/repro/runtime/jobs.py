"""Jobs — the schedulable unit of simulation.

A :class:`Job` names one cell of a sweep grid: (workload,
n_instructions, scheme, recovery).  Its identity is a deterministic
content hash over those fields plus a *code version salt* (a digest of
every ``repro`` source file), so results cached on disk are invalidated
automatically whenever the simulator's code changes, and two processes
— or two machines — computing the key for the same cell agree exactly.

Jobs are plain frozen dataclasses of primitives: picklable for
:class:`~repro.runtime.executor.ParallelExecutor` workers, and JSON-safe
for the run journal and cache payloads.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
from dataclasses import asdict, dataclass, fields as dataclass_fields
from pathlib import Path

from repro import faults
from repro.pipeline import RecoveryMode, SimResult, simulate
from repro.runtime.cache import ResultCache
from repro.runtime.registry import BASELINE_ID, get_scheme
# build_workload stays bound here for instrumentation that wraps this
# module's trace builders; jobs themselves build columnar traces.
from repro.workloads import build_workload, build_workload_columnar  # noqa: F401

CODE_SALT_ENV = "REPRO_CODE_SALT"

# How a job may obtain its trace (see Job.trace_format).
TRACE_FORMATS = ("columnar", "shared")


@functools.lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Digest of the ``repro`` package sources (or ``$REPRO_CODE_SALT``).

    Hashing the source tree rather than a version string means *any*
    code change — predictors, pipeline, workload generators — retires
    every cached result produced by the old code.  The environment
    override exists for tests and for deployments that prefer an
    explicit release tag.
    """
    env = os.environ.get(CODE_SALT_ENV)
    if env:
        return env
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def trace_cache_key(workload: str, n_instructions: int, salt: str | None = None) -> str:
    """Content key for a generated trace (workload generators are seeded)."""
    salt = salt if salt is not None else code_version_salt()
    blob = json.dumps(
        {"kind": "trace", "workload": workload, "n": n_instructions, "salt": salt},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Job:
    """One simulation cell, identified by content.

    ``timeout`` (seconds) bounds execution but is deliberately *not*
    part of the key — the same cell simulated with a different timeout
    is still the same result.
    """

    workload: str
    n_instructions: int
    scheme_id: str
    scheme_config: str
    scheme_module: str
    recovery: str
    salt: str
    timeout: float | None = None
    # Directory for observability artifacts (Chrome traces, flight
    # dumps).  Like ``timeout`` it is not part of the key: tracing is
    # bit-identical to not tracing, so the result is the same cell.
    trace_dir: str | None = None
    # How the worker obtains its ColumnarTrace: "columnar" (memo, trace
    # cache or build) or "shared" (the same, preferring a fabric attach
    # via ``trace_ref``).  Not part of the key — an attached trace is
    # bit-identical to a built one, so any way it is the same result.
    trace_format: str = "columnar"
    # Trace-fabric attach ref ("shm:..."/"file:...") published by the
    # scheduling parent.  Not part of the key: an attached trace is
    # bit-identical to a locally built one, and a worker that cannot
    # attach (segment already unlinked) silently falls back to
    # building, so the ref changes cost, never results.
    trace_ref: str | None = None

    @property
    def key(self) -> str:
        """Deterministic content hash naming this job's result."""
        blob = json.dumps(
            {
                "kind": "simulate",
                "workload": self.workload,
                "n_instructions": self.n_instructions,
                "scheme_id": self.scheme_id,
                "scheme_config": self.scheme_config,
                "recovery": self.recovery,
                "salt": self.salt,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def identity(self) -> dict:
        """JSON-safe job fields for journal lines and cache payloads."""
        fields = asdict(self)
        fields["key"] = self.key
        return fields


def job_from_identity(fields: dict) -> Job:
    """Rebuild a :class:`Job` from a persisted :meth:`Job.identity` dict.

    The stored ``salt`` is used verbatim — *not* recomputed from the
    current source tree — so a job journaled or ticketed by an earlier
    server process hashes to the same key after a restart, which is the
    property gateway crash recovery depends on.  When the record also
    carries the original ``key`` it is cross-checked; a mismatch means
    the record was hand-edited or torn and raises :class:`ValueError`.
    A trace format earlier releases wrote (``"object"``) maps to the
    current default; it never entered the key, so the cell is the same.
    """
    known = {f.name for f in dataclass_fields(Job)}
    if fields.get("trace_format") == "object":
        fields = {**fields, "trace_format": "columnar"}
    try:
        job = Job(**{k: v for k, v in fields.items() if k in known})
    except TypeError as exc:
        raise ValueError(f"incomplete job identity: {exc}") from None
    expected = fields.get("key")
    if expected is not None and job.key != expected:
        raise ValueError(
            f"job identity key mismatch: recorded {expected}, "
            f"recomputed {job.key}"
        )
    return job


def make_job(
    workload: str,
    n_instructions: int,
    scheme_id: str = BASELINE_ID,
    recovery: RecoveryMode = RecoveryMode.FLUSH,
    timeout: float | None = None,
    trace_dir: str | None = None,
    trace_format: str = "columnar",
    trace_ref: str | None = None,
) -> Job:
    """Build a job for a registered scheme id, filling hash metadata."""
    spec = get_scheme(scheme_id)
    if trace_format not in TRACE_FORMATS:
        raise ValueError(f"unknown trace format: {trace_format!r}")
    return Job(
        workload=workload,
        n_instructions=n_instructions,
        scheme_id=spec.scheme_id,
        scheme_config=spec.config_key,
        scheme_module=spec.module,
        recovery=recovery.value if isinstance(recovery, RecoveryMode) else str(recovery),
        salt=code_version_salt(),
        timeout=timeout,
        trace_dir=trace_dir,
        trace_format=trace_format,
        trace_ref=trace_ref,
    )


# Worker-resident trace memo, capacity one.  A retried job lands on a
# worker that (under serial execution, or a pool whose process survived)
# already generated its trace; re-deriving it is the single largest cost
# of a retry, so the last trace is kept and reused when the next job
# names the same content.  Capacity is deliberately 1: the memo exists
# for retries and trace-grouped dispatch, not as a second trace cache.
_TRACE_MEMO: dict = {}


def cached_trace(
    workload: str,
    n_instructions: int,
    cache: ResultCache | None,
    key: str | None = None,
):
    """A workload's trace from the trace cache, or built and then cached.

    ``key`` is the trace's :func:`trace_cache_key` (computed when not
    given).  Without a ``cache`` the trace is built only.  Returns
    ``(trace, built)``: a :class:`~repro.trace.ColumnarTrace` carrying
    its branch verdicts, and whether it was built here.
    """
    if cache is not None:
        key = key if key is not None else trace_cache_key(workload, n_instructions)
        trace = cache.get_trace_columnar(key)
        if trace is not None:
            return trace, False
    trace = build_workload_columnar(workload, n_instructions)
    if cache is not None:
        cache.put_trace(key, trace)
    return trace, True


def _acquire_trace(job: Job, cache: ResultCache | None, attempt: int):
    """Obtain the job's trace by the cheapest live route.

    Order: fabric attach (``job.trace_ref``) → worker memo → shared
    trace cache → generate.  Returns ``(trace, info, handle)`` where
    ``info`` describes provenance for the result envelope and
    ``handle`` is a fabric handle to close after simulating (or None).
    An attach failure — segment unlinked, file gone, torn header — is
    never fatal: the worker quietly builds locally instead, so the
    fabric only ever changes cost, not outcomes.
    """
    if job.trace_ref is not None:
        try:
            from repro.trace.share import attach as fabric_attach

            handle = fabric_attach(job.trace_ref)
        except Exception:
            pass  # fall through to memo / cache / build
        else:
            return handle.trace, {"trace_source": "shared"}, handle

    trace_key = trace_cache_key(job.workload, job.n_instructions, job.salt)
    entry = _TRACE_MEMO.get(trace_key)
    if entry is not None:
        info = {"trace_source": "memo"}
        if not entry["announced"]:
            info["trace_built_attempt"] = entry["built_attempt"]
            info["entry"] = entry
        return entry["trace"], info, None

    trace, built = cached_trace(job.workload, job.n_instructions, cache, trace_key)
    entry = {"trace": trace, "built_attempt": attempt if built else None, "announced": False}
    _TRACE_MEMO.clear()
    _TRACE_MEMO[trace_key] = entry
    info = {"trace_source": "built" if built else "cache"}
    if built:
        info["trace_built_attempt"] = attempt
        info["entry"] = entry
    return trace, info, None


def _announce(info: dict) -> None:
    """Mark the memo entry's build as reported, exactly once.

    Called only after a *successful* simulation: a worker that built a
    trace and then crashed should let the retry report the (re)build it
    actually observes, not a phantom from the dead attempt.
    """
    entry = info.pop("entry", None)
    if entry is not None:
        entry["announced"] = True


def _simulate_cell(job: Job, trace) -> dict:
    """Simulate one cell against an already-acquired trace."""
    if job.scheme_module:
        try:
            importlib.import_module(job.scheme_module)
        except ImportError:
            pass  # fall through: under fork the registry is inherited
    spec = get_scheme(job.scheme_id)
    scheme = spec.build()
    if job.trace_dir:
        # Observability path: a recorded run on the same loop, Chrome
        # trace written beside the flight dump.  Results are the
        # untraced ones plus interval rows.
        from repro.observe import run_traced

        out_dir = Path(job.trace_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        out = out_dir / f"{job.workload}-{job.scheme_id}.trace.json"
        run = run_traced(
            trace,
            scheme=scheme,
            recovery=RecoveryMode(job.recovery),
            out=out,
        )
        return run.result.to_dict()
    result = simulate(trace, scheme=scheme, recovery=RecoveryMode(job.recovery))
    return result.to_dict()


def execute_job_info(
    job: Job,
    cache_dir: str | None = None,
    attempt: int = 1,
    fault_spec: str | None = None,
) -> tuple[dict, dict]:
    """Like :func:`execute_job` but also returns trace provenance.

    The second element is ``{"trace_source": ..., "trace_built_attempt"?}``
    — which route produced the trace (``shared``/``memo``/``cache``/
    ``built``) and, the first time a worker-built trace carries a
    successful result, the attempt number that generated it.  Faults
    are injected *after* trace acquisition: the injector models a
    failing simulation, and a real mid-simulation death happens with
    the trace already generated — which is exactly what makes the memo
    worth having on the retry.
    """
    cache = ResultCache(cache_dir) if cache_dir else None
    trace, info, handle = _acquire_trace(job, cache, attempt)
    try:
        plan = faults.active_plan(fault_spec)
        if plan is not None:
            faults.inject(job.workload, job.scheme_id, attempt, job.key, plan)
        payload = _simulate_cell(job, trace)
    finally:
        if handle is not None:
            handle.close()
    _announce(info)
    info.pop("entry", None)
    return payload, info


def execute_job(
    job: Job,
    cache_dir: str | None = None,
    attempt: int = 1,
    fault_spec: str | None = None,
) -> dict:
    """Run one job to completion; returns ``SimResult.to_dict()``.

    This is the worker-side entry point.  The scheme's defining module
    is imported so spawned workers (which do not inherit the parent's
    registry) see the same registrations; under ``fork`` the import is
    a cached no-op.  ``cache_dir`` enables the shared trace cache only
    — result caching is the parent's responsibility, so a cache hit
    never even reaches a worker.

    ``attempt`` and ``fault_spec`` feed :mod:`repro.faults`: when a
    fault plan (explicit spec or ``$REPRO_FAULT_SPEC``) matches this
    (job, attempt), the injector acts it out *here*, in the worker —
    crashing, hanging, raising or stalling exactly where a real
    misbehaving simulation would.
    """
    payload, _ = execute_job_info(job, cache_dir, attempt, fault_spec)
    return payload


class TraceGroup:
    """Worker-side context for running many cells over one trace.

    The scheduling parent groups grid cells that share a trace key and
    ships the whole group to a single worker; this context acquires the
    trace once (fabric attach, memo, cache, or build — same ladder as a
    single job) and lets the caller run each cell against it.  Cells
    stay independent: a cell that raises does not poison its siblings,
    and the caller wraps each :meth:`run_cell` in its own timeout.
    """

    def __init__(self, jobs: list[Job], cache_dir: str | None = None):
        if not jobs:
            raise ValueError("empty trace group")
        self.jobs = jobs
        self._cache = ResultCache(cache_dir) if cache_dir else None
        self.trace = None
        self.trace_source: str | None = None
        self.trace_built_attempt: int | None = None
        self._info: dict = {}
        self._handle = None

    def __enter__(self) -> "TraceGroup":
        self.trace, self._info, self._handle = _acquire_trace(
            self.jobs[0], self._cache, attempt=1
        )
        self.trace_source = self._info.get("trace_source")
        self.trace_built_attempt = self._info.get("trace_built_attempt")
        return self

    def run_cell(self, job: Job, attempt: int = 1, fault_spec: str | None = None) -> dict:
        plan = faults.active_plan(fault_spec)
        if plan is not None:
            faults.inject(job.workload, job.scheme_id, attempt, job.key, plan)
        return _simulate_cell(job, self.trace)

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        if exc_type is None:
            _announce(self._info)
        self._info.pop("entry", None)


def result_from_payload(payload: dict) -> SimResult:
    """Parent-side decode of a worker's :func:`execute_job` payload."""
    return SimResult.from_dict(payload)

"""The traced run: per-layer metrics from spans around the program's layers.

The traced run simulates every cell of the workload with
``Runtime(jobs=1)`` in a fresh interpreter, so every call passes
through the wrappers :func:`install` puts around each layer's public
entry points -- once untraced and once traced, each in its own
interpreter, so the difference is the tracing overhead.  Component
replays time the substrates on the workload's first trace, and scheme
attribution subtracts the baseline's simulate time from each scheme's
on the same trace.

Every per-layer metric ``BENCHMARK.json`` names is reported on every
workload.  A metric whose layer this workload does not exercise reads
0 and is marked ``idle``; one the workload should exercise but whose
wrapper saw no call is marked ``UNOBSERVED`` and counted in
``bench.trace.unobserved``, so a change that moves a call out from
under its wrapper is noticed rather than read as 0 seconds.
"""

from __future__ import annotations

import statistics
import time

from plan import ALL_SCHEMES, Plan
from spans import Tracer

REPLAY_INSTRUCTIONS = 40_000
REPLAY_REPEATS = 3

# Span name of every wrapped call; metrics below are sums over these.
_RUN_GRID = "runtime.api.run_grid"
_EXECUTOR = "runtime.executor.run"
_EXECUTE = "runtime.jobs.execute"
_RESULT_GET = "runtime.cache.result_get"
_RESULT_PUT = "runtime.cache.result_put"
_TRACE_GET = "runtime.cache.trace_get"
_TRACE_PUT = "runtime.cache.trace_put"
_JOURNAL = "runtime.journal.event"
_BUILD = "workloads.build"
_TO_COLUMNAR = "trace.to_columnar"
_PUBLISH = "trace.share.publish"
_ATTACH = "trace.share.attach"
_SIMULATE = "pipeline.simulate"
_ENCODE = "pipeline.result_encode"
_DECODE = "pipeline.result_decode"


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points, as the runtime binds them."""
    from repro.pipeline import SimResult
    from repro.runtime import ResultCache, RunJournal, Runtime, SerialExecutor
    from repro.runtime import api, executor, jobs
    from repro.trace import ColumnarTrace, share

    def job_cell(args, kwargs, result):
        job = args[0]
        return f"{job.workload}/{job.scheme_id}", None, None

    def simulated(args, kwargs, result):
        if result is None:
            return None, None, None
        return None, result.scheme_name, result.instructions

    def built(args, kwargs, result):
        return None, None, len(result) if result is not None else None

    tracer.wrap(Runtime, "run_grid", _RUN_GRID)
    tracer.wrap(SerialExecutor, "run", _EXECUTOR)
    tracer.wrap(SerialExecutor, "run_grouped", _EXECUTOR)
    tracer.wrap(executor, "execute_job_info", _EXECUTE, job_cell)
    tracer.wrap(ResultCache, "get", _RESULT_GET)
    tracer.wrap(ResultCache, "put", _RESULT_PUT)
    for attr in ("get_trace", "get_trace_columnar"):
        tracer.wrap(ResultCache, attr, _TRACE_GET)
    for attr in ("put_trace", "put_trace_image"):
        tracer.wrap(ResultCache, attr, _TRACE_PUT)
    tracer.wrap(RunJournal, "event", _JOURNAL)
    tracer.wrap(jobs, "build_workload", _BUILD, built)
    tracer.wrap(jobs, "build_workload_columnar", _BUILD, built)
    tracer.wrap(api, "build_workload_columnar", _BUILD, built)
    tracer.wrap(ColumnarTrace, "from_trace", _TO_COLUMNAR)
    tracer.wrap(share.TraceStore, "publish", _PUBLISH)
    tracer.wrap(share.TraceStore, "attach", _ATTACH)
    tracer.wrap(share, "attach", _ATTACH)
    tracer.wrap(jobs, "simulate", _SIMULATE, simulated)
    tracer.wrap(SimResult, "to_dict", _ENCODE)
    tracer.wrap(SimResult, "from_dict", _DECODE)


def _median_seconds(run, make=lambda: None) -> float:
    """Median time of ``run(state)`` over fresh, untimed ``make()`` states."""
    samples = []
    for _ in range(REPLAY_REPEATS):
        state = make()
        t0 = time.perf_counter()
        run(state)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def component_replays(workload: str, n: int) -> dict[str, float]:
    """Substrate costs on ``workload``'s trace, at most 40k instructions."""
    from repro.branch import BranchUnit
    from repro.experiments.fig4_address_prediction import (
        evaluate_cap,
        evaluate_pap,
    )
    from repro.memory import MemoryHierarchy
    from repro.workloads import build_workload

    trace = build_workload(workload, min(n, REPLAY_INSTRUCTIONS))
    branches = [inst for inst in trace if inst.is_branch]
    memops = [(inst.pc, inst.mem_addr, inst.is_store) for inst in trace
              if inst.mem_addr is not None]
    loads = sum(1 for inst in trace if inst.is_load)

    def resolve_all(unit):
        for inst in branches:
            unit.resolve(inst)

    def access_all(hierarchy):
        for pc, addr, is_store in memops:
            hierarchy.access(pc, addr, is_store)

    return {
        "branch.resolve_ns": _median_seconds(resolve_all, BranchUnit) * 1e9
        / max(1, len(branches)),
        "memory.access_ns": _median_seconds(access_all, MemoryHierarchy)
        * 1e9 / max(1, len(memops)),
        "predictors.pap.ns_per_load":
            _median_seconds(lambda _: evaluate_pap(trace)) * 1e9
            / max(1, loads),
        "predictors.cap.ns_per_load":
            _median_seconds(lambda _: evaluate_cap(trace)) * 1e9
            / max(1, loads),
    }


def _extra_name(scheme: str) -> str:
    return ("core.dlvp.extra_us_per_inst" if scheme == "dlvp"
            else f"predictors.{scheme}.extra_us_per_inst")


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics from the traced run's spans."""
    selfs = tracer.self_seconds()
    m: dict[str, float] = {
        name: selfs.get(span, 0.0) for name, span in (
            ("runtime.api.self_s", _RUN_GRID),
            ("runtime.executor.self_s", _EXECUTOR),
            ("runtime.jobs.self_s", _EXECUTE),
            ("runtime.cache.trace_get_s", _TRACE_GET),
            ("runtime.cache.trace_put_s", _TRACE_PUT),
            ("runtime.cache.result_get_s", _RESULT_GET),
            ("runtime.cache.result_put_s", _RESULT_PUT),
            ("runtime.journal.event_s", _JOURNAL),
            ("workloads.build_s", _BUILD),
            ("trace.to_columnar_s", _TO_COLUMNAR),
            ("trace.share.publish_s", _PUBLISH),
            ("trace.share.attach_s", _ATTACH),
            ("pipeline.result_encode_s", _ENCODE),
            ("pipeline.result_decode_s", _DECODE),
        )
    }
    m["runtime.cache.trace_get_calls"] = tracer.totals(_TRACE_GET)[0]
    m["runtime.journal.events"] = tracer.totals(_JOURNAL)[0]
    built = tracer.totals(_BUILD)[1]
    m["workloads.build_ns_per_inst"] = (
        m["workloads.build_s"] * 1e9 / built if built else 0.0)

    # (scheme, workload) -> (seconds, instructions) of its simulate call
    sim: dict[tuple[str, str], tuple[float, int]] = {}
    for span in tracer.spans:
        if span.name == _SIMULATE and span.label and span.cell:
            sim[(span.label, span.cell.split("/", 1)[0])] = (span.seconds,
                                                           span.work)
    for scheme in ALL_SCHEMES:
        cells = [v for (label, _), v in sim.items() if label == scheme]
        seconds = sum(s for s, _ in cells)
        m[f"pipeline.simulate_s.{scheme}"] = seconds
        m[f"pipeline.inst_per_s.{scheme}"] = (
            sum(n for _, n in cells) / seconds if seconds else 0.0)
    for scheme in ALL_SCHEMES[1:]:
        pairs = [(s, n, sim[("baseline", w)][0])
                 for (label, w), (s, n) in sim.items()
                 if label == scheme and ("baseline", w) in sim]
        m[_extra_name(scheme)] = (sum(s - b for s, _, b in pairs) * 1e6
                                  / sum(n for _, n, _ in pairs)
                                  if pairs else 0.0)

    roots = [s for s in tracer.spans if s.parent < 0]
    wall = sum(s.seconds for s in roots)
    m["bench.trace.coverage"] = (
        1.0 - m["runtime.api.self_s"] / wall if wall else 0.0)
    return m


def modelled(results: dict) -> dict[str, float]:
    """Simulated (never gated) numbers: they repeat exactly run to run."""
    m: dict[str, float] = {}
    for scheme in ALL_SCHEMES:
        ipcs = [p["instructions"] / p["cycles"]
                for (s, _), p in results.items() if s == scheme and p]
        m[f"pipeline.ipc.{scheme}"] = statistics.fmean(ipcs) if ipcs else 0.0
    dlvp = [p for (s, _), p in results.items() if s == "dlvp" and p]
    predictions = sum(p["value_predictions"] for p in dlvp)
    m["core.dlvp.coverage"] = (
        predictions / sum(p["loads"] for p in dlvp) if dlvp else 0.0)
    m["core.dlvp.accuracy"] = (
        1.0 - sum(p["value_mispredictions"] for p in dlvp) / predictions
        if predictions else 0.0)
    m["pipeline.value_flushes"] = sum(p["flushes"]["value"]
                                      for p in results.values() if p)
    return m


def expected(plan: Plan, names: list[str]) -> set[str]:
    """Metrics of ``names`` that must read nonzero: the layers ``plan`` runs.

    Counts that can legitimately be 0 (trace sources, value flushes)
    and the fabric metrics, idle on the default path, are not listed.
    """
    expect = {
        "runtime.api.self_s", "runtime.executor.self_s",
        "runtime.executor.busy_frac", "runtime.executor.attempts_per_cell",
        "runtime.cache.trace_get_s", "runtime.cache.trace_get_calls",
        "runtime.cache.trace_put_s", "runtime.cache.result_get_s",
        "runtime.cache.result_put_s", "runtime.jobs.self_s",
        "runtime.jobs.builds_per_trace", "runtime.journal.event_s",
        "runtime.journal.events", "workloads.build_s",
        "workloads.build_ns_per_inst", "pipeline.result_encode_s",
        "pipeline.result_decode_s", "predictors.pap.ns_per_load",
        "predictors.cap.ns_per_load", "branch.resolve_ns",
        "memory.access_ns", "bench.trace.coverage",
    }
    for scheme in plan.all_schemes():
        expect |= {f"pipeline.simulate_s.{scheme}",
                   f"pipeline.inst_per_s.{scheme}"}
        if scheme != "baseline":
            expect.add(_extra_name(scheme))
    if plan.kind == "farm":
        # the farm's busy share and trace builds are read from the
        # gateway's journal and reported once, as serve.*
        expect -= {"runtime.executor.busy_frac",
                   "runtime.jobs.builds_per_trace"}
        expect |= {n for n in names if n.startswith("serve.")}
    return expect

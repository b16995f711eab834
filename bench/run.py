#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads, host-time metrics.

    python3 bench/run.py --workload grid-cold [--seed 0] [--seconds 20]
    python3 bench/run.py --workload farm-mixed --trace 1     # per-layer

Each round of a workload runs in fresh processes on a fresh cache inside
the checkout (``.bench_tmp/``), through the program's public entry
points only: ``Runtime.run_grid`` in a child interpreter, or a
``python -m repro serve start`` gateway fed over its NDJSON protocol.
Rounds repeat until ``--seconds`` have passed (at least one), and each
metric is the median over rounds.  Every result is checked; the last
line of standard output is a JSON summary, and the exit status is 0
only when every cell succeeded and every check held.

With ``--trace 1`` the run reports per-layer metrics instead: one
ordinary round, then the same cells in-process under spans recorded
around each layer (see ``layers.py``).  The workload names and every
metric's name and unit come from ``BENCHMARK.json`` at the repository
root.  See README.md for the workloads, metrics and how to compare two
commits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import farm  # noqa: E402  (bench/ is on sys.path when run as a script)
from plan import Plan, make_plan  # noqa: E402
from procs import HwmSampler, Sessions  # noqa: E402

SETUP_INSTRUCTIONS = 1_000
CHILD_TIMEOUT = 150.0
# AF_UNIX socket paths (the runtime's forkserver puts one under TMPDIR)
# must fit in 108 bytes; longer checkout paths keep the system TMPDIR.
_MAX_TMPDIR = 60


class BenchError(RuntimeError):
    """The program could not be run or did not answer as expected."""


@dataclass
class Round:
    """One round's outcome: every cell, the wall time, the memory peak."""

    wall: float
    cells: list[dict]              # scheme, workload, status, latency, payload
    simulated: int                 # instructions simulated this round
    peak_kib: int
    layer: dict = field(default_factory=dict)   # numbers for --trace 1


class Bench:
    def __init__(self, plan: Plan, seed: int, tmp: Path,
                 sessions: Sessions) -> None:
        self.plan = plan
        self.seed = seed
        self.tmp = tmp
        self.sessions = sessions
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else []))
        for var in ("REPRO_CODE_SALT", "REPRO_CACHE_DIR"):
            self.env.pop(var, None)
        if len(str(tmp)) <= _MAX_TMPDIR:
            self.env["TMPDIR"] = str(tmp)
        self._serial = 0

    def scratch(self, prefix: str) -> Path:
        self._serial += 1
        path = self.tmp / f"{prefix}-{self._serial}"
        path.mkdir()
        return path

    # -- runtime workloads ---------------------------------------------

    def child(self, grids, n: int, jobs: int, *, trace: bool = False,
              replay: str | None = None, sample_hwm: bool = False):
        """Run ``child.py`` on ``grids``; returns (output, seconds, peak).

        ``seconds`` runs from spawning the interpreter to its first line
        of output, ``peak`` is the session's largest VmHWM in KiB (when
        sampled).
        """
        spec = {"grids": grids, "n": n, "jobs": jobs,
                "recovery": self.plan.recovery,
                "cache_dir": str(self.scratch("cache")),
                "trace": trace, "replay": replay}
        log = self.scratch("log") / "child.err"
        argv = [sys.executable, str(BENCH / "child.py"), json.dumps(spec)]
        t0 = time.perf_counter()
        with open(log, "wb") as err:
            proc = self.sessions.spawn(argv, cwd=ROOT, env=self.env,
                                       stdout=subprocess.PIPE, stderr=err)
        sampler = HwmSampler(proc.pid) if sample_hwm else None
        # a hung child must not hang the benchmark: kill it, fail the run
        watchdog = threading.Timer(CHILD_TIMEOUT, self.sessions.kill, (proc,))
        watchdog.start()
        try:
            with sampler or contextlib.nullcontext():
                line = proc.stdout.readline()
                seconds = time.perf_counter() - t0
                proc.stdout.close()
                status = self.sessions.reap(proc, timeout=CHILD_TIMEOUT)
        finally:
            watchdog.cancel()
        if status != 0 or not line:
            raise BenchError(f"child exited {status}: "
                             f"{log.read_text()[-2000:]}")
        out = json.loads(line)
        if not Path(out["repro_file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"repro imported from {out['repro_file']}, "
                             f"not from {SRC}")
        return out, seconds, sampler.peak_kib if sampler else 0

    def runtime_setup(self) -> float:
        grid = (("baseline",), (self.plan.first_workload,))
        _, seconds, _ = self.child([grid], SETUP_INSTRUCTIONS, self.plan.jobs)
        return seconds

    def runtime_round(self) -> Round:
        plan = self.plan
        out, _, peak = self.child(plan.runtime_grids(), plan.n, plan.jobs,
                                  sample_hwm=True)
        cells = out["cells"]
        sources = out["trace_sources"]
        layer = {
            "runtime.executor.busy_frac":
                out["busy_s"] / (plan.jobs * out["wall"]),
            "runtime.executor.attempts_per_cell":
                out["job_started"] / max(1, out["job_finished"]),
            "runtime.jobs.builds_per_trace":
                out["trace_built"] / len(plan.workloads),
            **{f"runtime.jobs.trace_source.{s}": sources.count(s)
               for s in ("built", "cache", "memo", "shared")},
        }
        return Round(out["wall"], cells,
                     sum(c["payload"]["instructions"] for c in cells
                         if c["status"] == "ok"),
                     max(peak, out["maxrss_kib"]), layer)

    # -- farm workload -------------------------------------------------

    def farm_setup(self) -> float:
        gateway, seconds = farm.start_gateway(
            self.sessions, self.env, ROOT, self.scratch("cache"),
            self.plan.jobs, self.scratch("log") / "gateway.err")
        status = farm.stop_gateway(self.sessions, gateway)
        if status != 0:
            raise BenchError(f"gateway exited {status} on shutdown")
        return seconds

    def farm_round(self) -> Round:
        plan = self.plan
        cache = self.scratch("cache")
        log = self.scratch("log") / "gateway.err"
        gateway, _ = farm.start_gateway(self.sessions, self.env, ROOT, cache,
                                        plan.jobs, log)
        try:
            with HwmSampler(gateway.proc.pid) as sampler:
                subs = farm.drive(gateway, plan)
        finally:
            status = farm.stop_gateway(self.sessions, gateway)
        if status != 0:
            raise BenchError(f"gateway exited {status}: "
                             f"{log.read_text()[-2000:]}")
        start = min(s.sent_pc for s in subs)
        wall = max(s.done_pc for s in subs) - start
        cells, simulated = [], 0
        for sub in subs:
            for msg in sub.results:
                cells.append({
                    "scheme": msg["scheme"], "workload": msg["workload"],
                    "status": msg["status"], "error": msg.get("error"),
                    "latency": msg["latency"], "payload": msg.get("result"),
                })
                if (msg["status"] == "ok" and not msg["cache_hit"]
                        and not msg["shared"]):
                    simulated += msg["result"]["instructions"]
            # a refused or cut-off grid fails every cell it did not settle
            for _ in range(sub.cells - len(sub.results)):
                cells.append({"scheme": None, "workload": None,
                              "status": "refused", "error": sub.error,
                              "latency": None, "payload": None})
        events = farm.read_journal(cache / "serve.jsonl")
        return Round(wall, cells, simulated, sampler.peak_kib,
                     serve_metrics(events, subs, plan.jobs))

    def setup(self) -> float:
        return (self.farm_setup() if self.plan.kind == "farm"
                else self.runtime_setup())

    def round(self) -> Round:
        return (self.farm_round() if self.plan.kind == "farm"
                else self.runtime_round())


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value if only one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def serve_metrics(events: list[dict], subs: list, workers: int) -> dict:
    """Farm layer numbers from the gateway journal and the client's clock."""
    submitted: dict[str, float] = {}
    started: dict[str, float] = {}
    finished: dict[str, dict] = {}
    counts = {"cache_hit": 0, "job_shared": 0, "trace_built": 0,
              "job_started": 0}
    groups = []
    for e in events:
        kind, key = e.get("event"), e.get("key")
        if kind in counts:
            counts[kind] += 1
        if kind == "job_submitted":
            submitted.setdefault(key, e["ts"])
        elif kind == "job_started":
            started.setdefault(key, e["ts"])
        elif kind == "job_finished" and e.get("attempts"):
            finished[key] = e
        elif kind == "group_dispatched":
            groups.append(e["cells"])
    executed = len(finished)
    waits = [started[k] - submitted[k] for k in finished
             if k in started and k in submitted]
    runs = [e["duration"] for e in finished.values()]
    delivers = [msg["received"] - finished[msg["key"]]["ts"]
                for sub in subs for msg in sub.results
                if not msg["cache_hit"] and not msg["shared"]
                and msg["key"] in finished]
    acks = [s.ack_s for s in subs if s.ack_s is not None]
    span = (max(e["ts"] for e in finished.values()) - min(submitted.values())
            if finished and submitted else 0.0)
    dispatches = len(groups) + executed - sum(groups)
    traces = {e["workload"] for e in finished.values()}

    def p(values, q):
        return _quantile(values, q) if values else 0.0

    return {
        "serve.ack_p50_s": p(acks, 50),
        "serve.queue_wait_p50_s": p(waits, 50),
        "serve.queue_wait_p95_s": p(waits, 95),
        "serve.run_p50_s": p(runs, 50),
        "serve.deliver_p50_s": p(delivers, 50),
        "serve.busy_frac": sum(runs) / (workers * span) if span else 0.0,
        "serve.executed": executed,
        "serve.cache_hits": counts["cache_hit"],
        "serve.shared": counts["job_shared"],
        "serve.group_size_mean": executed / dispatches if dispatches else 0.0,
        "serve.builds_per_trace":
            counts["trace_built"] / len(traces) if traces else 0.0,
        "runtime.executor.attempts_per_cell":
            counts["job_started"] / executed if executed else 0.0,
    }


# -- correctness -----------------------------------------------------------


def check_cells(plan: Plan, cells: list[dict]) -> tuple[list[str], dict]:
    """Problems found in ``cells``, and the unique results by cell.

    Every cell must be ``ok``.  Its result must cover the whole trace:
    every scheme reports the same instruction count on one workload,
    within 20% of the requested ``n`` (generators check their budget
    once per kernel iteration, so traces end near ``n``).  It must take
    cycles, never mispredict more values than it predicted nor predict
    more than it loaded, and, for the baseline, predict nothing.  A
    cell answered twice (a cache hit or a shared execution) must carry
    the identical result both times.
    """
    problems: list[str] = []
    unique: dict[tuple[str, str], dict] = {}
    lengths: dict[str, int] = {}
    for cell in cells:
        where = f"{cell['workload']}/{cell['scheme']}"
        if cell["status"] != "ok":
            problems.append(f"{where}: {cell['status']} ({cell['error']})")
            continue
        p = cell["payload"]
        length = lengths.setdefault(cell["workload"], p["instructions"])
        if p["instructions"] != length or abs(length - plan.n) > 0.2 * plan.n:
            problems.append(f"{where}: {p['instructions']} instructions "
                            f"(n={plan.n}, other schemes {length})")
        if p["cycles"] <= 0:
            problems.append(f"{where}: {p['cycles']} cycles")
        if not (p["value_mispredictions"] <= p["value_predictions"]
                <= p["loads"]):
            problems.append(f"{where}: mispredictions/predictions/loads "
                            f"{p['value_mispredictions']}/"
                            f"{p['value_predictions']}/{p['loads']}")
        if cell["scheme"] == "baseline" and p["value_predictions"]:
            problems.append(f"{where}: baseline predicted values")
        key = (cell["scheme"], cell["workload"])
        if key in unique and unique[key] != p:
            problems.append(f"{where}: two different results for one cell")
        unique.setdefault(key, p)
    return problems, unique


def result_digest(unique: dict) -> str:
    """sha256 over the sorted cell results."""
    blob = json.dumps(sorted([list(k), v] for k, v in unique.items()),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- reporting -------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def load_spec() -> dict:
    """``BENCHMARK.json``: the workload names and every metric's unit."""
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def emit(correct: bool, attempted: int, failed: int,
         metrics: list[tuple[str, float, str]]) -> None:
    """The machine-readable summary: always the last line of stdout."""
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in metrics},
    }))


def end_to_end(bench: Bench, seconds: float, spec: list[dict]) -> int:
    plan = bench.plan
    setups = [bench.setup() for _ in range(plan.setup_spawns)]
    rounds: list[Round] = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(bench.round())

    problems: list[str] = []
    digests = []
    for r in rounds:
        found, unique = check_cells(plan, r.cells)
        problems += found
        digests.append(result_digest(unique))
    if len(set(digests)) > 1:
        problems.append(f"rounds disagree: result digests {sorted(set(digests))}")

    ok_latency = [c["latency"] for r in rounds for c in r.cells
                  if c["status"] == "ok"]
    attempted = sum(len(r.cells) for r in rounds)
    failed = sum(c["status"] != "ok" for r in rounds for c in r.cells)
    values = {
        "setup_s": statistics.median(setups),
        "inst_per_s": statistics.median(r.simulated / r.wall
                                        for r in rounds),
        "cells_per_s": statistics.median(
            sum(c["status"] == "ok" for c in r.cells) / r.wall
            for r in rounds),
        "cell_latency_p50_s": _quantile(ok_latency, 50) if ok_latency else 0.0,
        "cell_latency_p95_s": _quantile(ok_latency, 95) if ok_latency else 0.0,
        "peak_rss_mib": statistics.median(r.peak_kib for r in rounds) / 1024,
    }
    unknown = [m["name"] for m in spec if m["name"] not in values]
    if unknown:
        raise BenchError(f"BENCHMARK.json names end-to-end metrics this "
                         f"benchmark does not compute: {unknown}")

    print(f"workload {plan.name}: seed {bench.seed}, {len(rounds)} round(s) "
          f"of {plan.cells_per_round()} cells at {plan.n} instructions, "
          f"{plan.setup_spawns} set-up spawns")
    for m in spec:
        print(f"  {m['name']:<22} {_fmt(values[m['name']]):>12} {m['unit']}")
    attempts = statistics.median(
        r.layer["runtime.executor.attempts_per_cell"] for r in rounds)
    print(f"  {'failed_frac':<22} {_fmt(failed / max(1, attempted)):>12} "
          f"({failed}/{attempted} cells)")
    print(f"  {'attempts_per_cell':<22} {_fmt(attempts):>12}")
    print(f"  {'latency samples':<22} {len(ok_latency):>12} "
          f"({0.05 * len(ok_latency):.1f} beyond p95)")
    print(f"  {'setup samples':<22} "
          f"{' '.join(_fmt(s) for s in setups)}")
    print(f"  {'round inst_per_s':<22} "
          f"{' '.join(_fmt(r.simulated / r.wall) for r in rounds)}")
    print(f"  {'result_digest':<22} {digests[0]}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    correct = not problems
    emit(correct, attempted, failed,
         [(m["name"], values[m["name"]], m["unit"]) for m in spec])
    return 0 if correct and not failed else 1


def traced(bench: Bench, spec: list[dict]) -> int:
    import layers
    from spans import Span, Tracer

    plan = bench.plan
    r = bench.round()
    problems, unique = check_cells(plan, r.cells)
    grids = plan.runtime_grids()
    untraced, _, _ = bench.child(grids, plan.n, 1)
    out, _, _ = bench.child(grids, plan.n, 1, trace=True,
                            replay=plan.first_workload)
    tracer = Tracer()
    tracer.spans = [Span(*record) for record in out["spans"]]
    resim = {}
    for cell in out["cells"]:
        if cell["status"] != "ok":
            problems.append(f"{cell['workload']}/{cell['scheme']}: "
                            f"{cell['status']} in the traced run")
        resim[(cell["scheme"], cell["workload"])] = cell["payload"]
    for (scheme, workload), payload in unique.items():
        if resim.get((scheme, workload)) != payload:
            problems.append(f"{workload}/{scheme}: in-process result differs "
                            f"from the run's")

    values = layers.span_metrics(tracer)
    values.update(r.layer)
    values.update(out["replays"])
    values.update(layers.modelled(resim))
    values["bench.trace.overhead"] = out["wall"] / untraced["wall"] - 1.0
    names = [m["name"] for m in spec]
    expected = layers.expected(plan, names)
    # zero where this workload should exercise the layer: its call moved
    status = {name: "" if values.get(name) else
              "UNOBSERVED" if name in expected else "idle"
              for name in names}
    values["bench.trace.unobserved"] = sum(
        s == "UNOBSERVED" for s in status.values())
    status["bench.trace.overhead"] = status["bench.trace.unobserved"] = ""

    chrome = ROOT / ".bench_out" / f"{plan.name}-seed{bench.seed}.trace.json"
    chrome.parent.mkdir(exist_ok=True)
    chrome.write_text(json.dumps(tracer.chrome_trace()))

    print(f"workload {plan.name} (traced): seed {bench.seed}, "
          f"{len(r.cells)} cells at {plan.n} instructions; jobs=1 legs "
          f"{untraced['wall']:.3f}s untraced, {out['wall']:.3f}s traced; "
          f"spans in {chrome.relative_to(ROOT)}")
    for m in spec:
        print(f"  {m['name']:<40} {_fmt(values.get(m['name'], 0.0)):>12} "
              f"{m['unit']:<14} {status[m['name']]}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    failed = sum(c["status"] != "ok" for c in r.cells)
    emit(not problems, len(r.cells), failed,
         [(m["name"], values.get(m["name"], 0.0), m["unit"]) for m in spec])
    return 0 if not problems and not failed else 1


def main(argv: list[str] | None = None) -> int:
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="rounds keep starting until this many seconds "
                             "have passed; 0 runs exactly one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: {SRC / 'repro'} not found; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    plan = make_plan(args.workload, args.seed, smoke=args.smoke)
    # SIGTERM unwinds like Ctrl-C, so the cleanup below still runs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_tmp"))
    sessions = Sessions()
    try:
        bench = Bench(plan, args.seed, tmp, sessions)
        if args.trace:
            return traced(bench, spec["per_layer"])
        return end_to_end(bench, args.seconds, spec["end_to_end"])
    except (BenchError, farm.FarmError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        sessions.close()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

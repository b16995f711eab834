"""The farm workload: a ``repro serve`` gateway and two tenants.

The gateway runs as users start it (``python -m repro serve start
--workers 2``) on a fresh cache.  The load comes from this process: one
thread per tenant, each on one connection at a time, in a closed loop
-- a tenant sends its next grid only once the previous one is done, and
both tenants send round ``i`` together so the workload they have in
common is submitted concurrently.

The NDJSON wire is read directly rather than through ``ServeClient``,
which returns only once a whole grid has settled: per-cell latency needs
the moment each ``result`` line arrives.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from plan import FARM_TENANTS, Plan
from procs import Sessions

START_TIMEOUT = 60.0
IO_TIMEOUT = 120.0


class FarmError(RuntimeError):
    """The gateway did not start, answer, or shut down."""


@dataclass
class Gateway:
    proc: subprocess.Popen
    host: str
    port: int


def start_gateway(sessions: Sessions, env: dict, root: Path, cache_dir: Path,
                  workers: int, log: Path) -> tuple[Gateway, float]:
    """Spawn a gateway; returns it and the seconds until its first pong."""
    argv = [sys.executable, "-m", "repro", "serve", "start", "--port", "0",
            "--workers", str(workers), "--cache-dir", str(cache_dir)]
    addr_file = cache_dir / "serve.addr"
    t0 = time.perf_counter()
    with open(log, "ab") as err:
        proc = sessions.spawn(argv, cwd=root, env=env,
                              stdout=err, stderr=err)
    deadline = t0 + START_TIMEOUT
    while True:
        if proc.poll() is not None:
            raise FarmError(f"gateway exited with {proc.returncode}; "
                            f"see {log}")
        if time.perf_counter() > deadline:
            raise FarmError("gateway did not advertise an address in time")
        try:
            record = json.loads(addr_file.read_text())
            host, port = record["host"], int(record["port"])
        except (OSError, ValueError, KeyError):
            time.sleep(0.002)
            continue
        try:
            reply = _roundtrip(host, port, {"op": "ping"})
        except (OSError, ValueError):
            time.sleep(0.002)
            continue
        if reply.get("type") == "pong":
            return Gateway(proc, host, port), time.perf_counter() - t0


def stop_gateway(sessions: Sessions, gateway: Gateway) -> int:
    """Ask the gateway to drain, then wait for its whole session."""
    try:
        _roundtrip(gateway.host, gateway.port, {"op": "shutdown"})
    except (OSError, ValueError):
        pass        # already gone; reaping below still waits for it
    return sessions.reap(gateway.proc, timeout=60.0)


def _roundtrip(host: str, port: int, message: dict) -> dict:
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall((json.dumps(message) + "\n").encode())
        with sock.makefile("rb") as reader:
            line = reader.readline()
    if not line:
        raise ConnectionError("gateway closed the connection")
    return json.loads(line)


@dataclass
class Submission:
    """One grid as the tenant saw it on the wire.

    ``sent_pc``/``done_pc`` are ``perf_counter`` readings; each result
    line gains ``latency`` (seconds since the submit was sent) and
    ``received`` (wall clock, comparable with the gateway journal).
    """

    cells: int
    sent_pc: float
    ack_s: float | None = None
    done_pc: float | None = None
    error: str | None = None
    results: list[dict] = field(default_factory=list)


def _submit(gateway: Gateway, tenant: str, schemes: tuple[str, ...],
            workloads: tuple[str, ...], n: int) -> Submission:
    request = {"op": "submit", "tenant": tenant, "schemes": list(schemes),
               "workloads": list(workloads), "n_instructions": n,
               "recovery": "flush", "watch": True}
    sub = Submission(len(schemes) * len(workloads), time.perf_counter())
    with socket.create_connection((gateway.host, gateway.port),
                                  timeout=IO_TIMEOUT) as sock:
        sock.sendall((json.dumps(request) + "\n").encode())
        with sock.makefile("rb") as reader:
            for line in reader:
                now_pc = time.perf_counter()
                now = time.time()
                message = json.loads(line)
                kind = message.get("type")
                if kind == "submitted":
                    sub.ack_s = now_pc - sub.sent_pc
                elif kind == "result":
                    message["latency"] = now_pc - sub.sent_pc
                    message["received"] = now
                    sub.results.append(message)
                elif kind == "done":
                    sub.done_pc = now_pc
                    return sub
                elif kind in ("error", "server_shutdown"):
                    sub.error = message.get("error") or kind
                    sub.done_pc = now_pc
                    return sub
    sub.error = "connection closed before the grid was done"
    sub.done_pc = time.perf_counter()
    return sub


def drive(gateway: Gateway, plan: Plan) -> list[Submission]:
    """Run both tenants' closed loops over every round of ``plan``."""
    schemes = dict(FARM_TENANTS)
    barrier = threading.Barrier(len(FARM_TENANTS))
    out: dict[str, list[Submission]] = {t: [] for t, _ in FARM_TENANTS}
    failures: list[BaseException] = []

    def tenant_loop(tenant: str) -> None:
        try:
            for grid in plan.grids:
                barrier.wait(timeout=IO_TIMEOUT)
                out[tenant].append(_submit(gateway, tenant, schemes[tenant],
                                           grid[tenant], plan.n))
        except BaseException as exc:    # reported by the caller
            failures.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=tenant_loop, args=(t,))
               for t, _ in FARM_TENANTS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise FarmError(f"tenant load failed: {failures[0]!r}")
    return [s for t, _ in FARM_TENANTS for s in out[t]]


def read_journal(path: Path) -> list[dict]:
    """The gateway's ``serve.jsonl``, skipping a torn final line."""
    events = []
    for line in path.read_text().splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            continue
    return events

"""Crash-survivability tests for :mod:`repro.serve`.

The farm's robustness claims are about *death*: a client that vanishes
mid-stream, a worker that hangs forever, a gateway SIGKILL'd mid-grid,
a ticket record torn by the crash.  Each test kills the corresponding
participant for real — raw sockets dropped without goodbye, subprocess
gateways killed with SIGKILL, records garbled on disk — and asserts the
survivors converge on the same exactly-once outcome an undisturbed run
would have produced.  The journal is the referee throughout:
``job_finished`` counts per key prove exactly-once, ``lease_reaped`` /
``gateway_recovered`` / ``ticket_record_corrupt`` events prove the
recovery machinery (not luck) did the work.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.runtime import make_job, read_journal
from repro.serve import (
    ServeClient,
    ServeError,
    ServerOverloadedError,
    SweepServer,
    TicketStore,
    UnknownTicketError,
)
from repro.serve.protocol import (
    decode_message,
    encode_message,
    read_addr_file,
    read_addr_record,
    clear_addr_file,
    write_addr_file,
)
from repro.serve.tickets import TICKETS_DIRNAME

N = 1_500


def start_server(tmp_path, **kwargs):
    kwargs.setdefault("workers", 2)
    server = SweepServer(port=0, cache_dir=tmp_path / "cache", **kwargs)
    handle = server.start_in_thread()
    return server, handle


def farm_journal(tmp_path):
    return read_journal(tmp_path / "cache" / "serve.jsonl", strict=False)


def ok_finishes_per_key(events):
    return Counter(
        e["key"] for e in events
        if e["event"] == "job_finished" and e.get("status") == "ok"
    )


def submit_and_drop(host, port, schemes, workloads, tenant="t") -> str:
    """Raw-socket submit: read the ack, then drop the connection dead.

    Returns the ticket id.  This is the vanished client — no goodbye,
    no shutdown, just a closed socket while the grid executes.
    """
    sock = socket.create_connection((host, port))
    try:
        sock.sendall(encode_message({
            "op": "submit", "tenant": tenant, "schemes": schemes,
            "workloads": workloads, "n_instructions": N,
        }))
        with sock.makefile("rb") as reader:
            ack = decode_message(reader.readline())
    finally:
        sock.close()
    assert ack["type"] == "submitted", ack
    return ack["ticket"]


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def parent_pid(pid: int) -> int:
    """``pid``'s parent, read from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("PPid:"):
            return int(line.split()[1])
    raise LookupError(f"no PPid line for pid {pid}")


def wait_for(predicate, timeout=90.0, interval=0.05):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise TimeoutError(f"condition not met within {timeout}s: {predicate}")


class TestClientDeath:
    def test_disconnect_keeps_grid_running_and_resume_reattaches(
        self, tmp_path
    ):
        server, handle = start_server(tmp_path)
        try:
            ticket = submit_and_drop(handle.host, handle.port,
                                     ["baseline", "dlvp"], ["gzip"])
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.resume(ticket)
            assert response.complete
            assert response.ticket == ticket
            assert len(response.cells) == 2
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        # the orphaned grid executed exactly once per cell
        assert set(ok_finishes_per_key(events).values()) == {1}
        kinds = Counter(e["event"] for e in events)
        # resume either re-attached the live ticket or revived its record
        assert kinds["ticket_attached"] + kinds["ticket_revived"] >= 1

    def test_finished_ticket_replays_from_history(self, tmp_path):
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            first = client.submit(["dlvp"], ["gzip"], n_instructions=N)
            assert first.complete
            replay = client.resume(first.ticket)
            assert replay.complete
            assert all(c.resumed for c in replay.cells.values())
            assert (replay.result("dlvp", "gzip")
                    == first.result("dlvp", "gzip"))
        finally:
            handle.stop()
        # the replay executed nothing
        assert sum(ok_finishes_per_key(farm_journal(tmp_path)).values()) == 1

    def test_unknown_ticket_raises(self, tmp_path):
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            with pytest.raises(UnknownTicketError):
                client.resume("feedc0de")
        finally:
            handle.stop()

    def test_submit_reconnects_resume_by_ticket(self, tmp_path):
        """A flaky read path: every stream read times out mid-grid, the
        client reconnects with jittered backoff and resumes by ticket —
        and still converges on the complete, exactly-once response."""
        server, handle = start_server(tmp_path, workers=1,
                                      fault_spec="slow@*/*=0.4")
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.submit(
                ["baseline", "dlvp"], ["gzip", "nat"], n_instructions=N,
                timeout=0.25, reconnects=60, backoff=0.05, max_backoff=0.3,
            )
            assert response.complete
            assert len(response.cells) == 4
        finally:
            handle.stop()
        assert set(ok_finishes_per_key(farm_journal(tmp_path)).values()) \
            == {1}


class TestWorkerDeath:
    def test_watchdog_reaps_hung_worker_and_grid_completes(self, tmp_path):
        server, handle = start_server(
            tmp_path, workers=2, fault_spec="hang@gzip/dlvp:1=30",
            lease_timeout=1.5, heartbeat=0.3, retries=1,
        )
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.submit(
                ["baseline", "dlvp"], ["gzip", "nat"],
                n_instructions=N, timeout=120,
            )
            # the hang is reaped, retried (attempt 2 has no fault) and
            # the grid completes — a wedged worker never costs the slot
            assert response.complete
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        reaps = [e for e in events if e["event"] == "lease_reaped"]
        assert len(reaps) >= 1
        assert reaps[0]["workload"] == "gzip" and reaps[0]["scheme"] == "dlvp"
        assert reaps[0]["silent_s"] >= reaps[0]["bound_s"]
        assert any(e["event"] == "worker_heartbeat" for e in events), \
            "lease must prove liveness while the attempt runs"
        assert set(ok_finishes_per_key(events).values()) == {1}


class TestShutdownRace:
    def test_drain_with_result_in_flight_settles_each_cell_once(
        self, tmp_path
    ):
        """Regression: draining while a lease is mid-settle must not
        double-settle the running cell (queued cells interrupt, the
        running one finishes through its own settle path)."""
        server, handle = start_server(
            tmp_path, workers=1, fault_spec="slow@*/*=0.5", grace=15.0,
        )
        box = {}

        def run():
            client = ServeClient(host=handle.host, port=handle.port)
            try:
                box["response"] = client.submit(
                    ["baseline"], ["gzip", "nat", "mcf"],
                    n_instructions=N, timeout=60,
                )
            except ServeError as exc:
                box["error"] = exc

        thread = threading.Thread(target=run)
        thread.start()
        try:
            journal = tmp_path / "cache" / "serve.jsonl"
            wait_for(lambda: journal.exists()
                     and '"job_started"' in journal.read_text())
        finally:
            handle.stop()       # drain mid-execution
        thread.join(timeout=60)
        events = farm_journal(tmp_path)
        finishes = Counter(
            e["key"] for e in events if e["event"] == "job_finished"
        )
        assert finishes and set(finishes.values()) == {1}, \
            f"double-settled cells: {finishes}"


class TestGatewayDeath:
    def test_sigkill_mid_grid_then_restart_recovers_and_resume_completes(
        self, tmp_path
    ):
        """The chaos acceptance path, end to end over real processes:
        SIGKILL the gateway mid-grid, restart it on the same cache
        root, ``repro serve resume <ticket>`` exits 0 with every cell
        settled exactly once."""
        cache = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                                / "src")
        gateway_cmd = [
            sys.executable, "-m", "repro", "serve", "start", "--port", "0",
            "--cache-dir", str(cache), "--workers", "1",
        ]
        journal = cache / "serve.jsonl"

        def ok_finish_count():
            if not journal.exists():
                return 0
            return sum(ok_finishes_per_key(
                read_journal(journal, strict=False)).values())

        proc = subprocess.Popen(gateway_cmd + ["--fault", "slow@*/*=0.4"],
                                env=env, stderr=subprocess.DEVNULL)
        try:
            addr = wait_for(lambda: read_addr_file(cache), timeout=60)
            ticket = submit_and_drop(addr[0], addr[1], ["baseline", "dlvp"],
                                     ["gzip", "nat", "mcf"])
            wait_for(lambda: ok_finish_count() >= 2)
            worker = next(e["worker_pid"]
                          for e in read_journal(journal, strict=False)
                          if e["event"] == "job_finished")
            forkserver = parent_pid(worker)
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        # the gateway's lease worker, and the forkserver it was forked
        # from, must not outlive the gateway
        wait_for(lambda: not (pid_alive(worker) or pid_alive(forkserver)),
                 timeout=10)
        settled_before_kill = set(ok_finishes_per_key(
            read_journal(journal, strict=False)))
        assert read_addr_file(cache) is None, \
            "a dead gateway's advertisement must not survive discovery"

        proc2 = subprocess.Popen(gateway_cmd, env=env,
                                 stderr=subprocess.DEVNULL)
        try:
            wait_for(lambda: read_addr_file(cache), timeout=60)
            resumed = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "resume", ticket,
                 "--cache-dir", str(cache), "--quiet"],
                env=env, capture_output=True, text=True, timeout=240,
            )
            assert resumed.returncode == 0, resumed.stderr
        finally:
            subprocess.run(
                [sys.executable, "-m", "repro", "serve", "shutdown",
                 "--cache-dir", str(cache)],
                env=env, capture_output=True, timeout=60,
            )
            proc2.wait(timeout=60)

        events = read_journal(journal, strict=False)
        kinds = Counter(e["event"] for e in events)
        assert kinds["gateway_recovered"] == 1
        assert kinds["job_requeued"] >= 1
        # exactly-once across BOTH gateway lifetimes, per cell
        assert set(ok_finishes_per_key(events).values()) == {1}
        assert len(ok_finishes_per_key(events)) == 6
        # cells settled before the kill were never re-executed
        starts = Counter(e["key"] for e in events
                         if e["event"] == "job_started")
        for key in settled_before_kill:
            assert starts[key] == 1, \
                f"pre-kill cell {key[:12]} re-executed after recovery"


class TestRecoveryEdges:
    def test_torn_ticket_record_is_skipped_and_reported(self, tmp_path):
        tickets_dir = tmp_path / "cache" / TICKETS_DIRNAME
        tickets_dir.mkdir(parents=True)
        (tickets_dir / "deadbeef.json").write_text('{"ticket": "deadbe')
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            with pytest.raises(ServeError, match="torn|corrupt"):
                client.resume("deadbeef")
            # the farm still takes work
            assert client.submit(["dlvp"], ["gzip"],
                                 n_instructions=N).complete
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        assert any(e["event"] == "ticket_record_corrupt" for e in events), \
            "startup recovery must report (not trust, not crash on) " \
            "the torn record"

    def test_journal_settlements_replay_without_cache(self, tmp_path):
        """A finished ticket resumes from journal payloads alone: the
        second gateway runs cache-less, so every replayed cell must
        come out of ``job_finished`` result payloads."""
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            first = client.submit(["baseline", "dlvp"], ["gzip"],
                                  n_instructions=N)
            ticket = first.ticket
            assert first.complete
        finally:
            handle.stop()
        server2, handle2 = start_server(tmp_path, use_cache=False)
        try:
            client = ServeClient(host=handle2.host, port=handle2.port)
            replay = client.resume(ticket)
            assert replay.complete
            assert all(c.resumed for c in replay.cells.values())
            assert (replay.result("dlvp", "gzip")
                    == first.result("dlvp", "gzip"))
        finally:
            handle2.stop()
        # nothing executed in the second gateway's lifetime
        assert sum(ok_finishes_per_key(farm_journal(tmp_path)).values()) == 2

    def test_recovery_bypasses_tenant_queue_bound(self, tmp_path):
        """Reviving previously-admitted work is not new load: an
        unfinished record wider than the tenant bound still requeues
        in full on startup."""
        cache = tmp_path / "cache"
        jobs = [make_job(w, N, s)
                for s in ("baseline", "dlvp") for w in ("gzip", "nat")]
        store = TicketStore(cache / TICKETS_DIRNAME)
        store.save("cafe0001", tenant="t", watch=False,
                   cells=[job.identity() for job in jobs])
        server, handle = start_server(tmp_path,
                                      max_pending_per_tenant=1)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.resume("cafe0001", timeout=120)
            assert response.complete
            assert len(response.cells) == 4
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        kinds = Counter(e["event"] for e in events)
        assert kinds["gateway_recovered"] == 1
        requeued = [e for e in events if e["event"] == "job_requeued"]
        assert len(requeued) == 4, \
            "all cells requeue despite max_pending_per_tenant=1"
        assert set(ok_finishes_per_key(events).values()) == {1}

    def test_legacy_object_trace_format_record_recovers(self, tmp_path):
        """Records written when jobs could name the retired "object"
        trace format still resume: the format never entered the key,
        so each cell recovers to the same job and settles once."""
        cache = tmp_path / "cache"
        jobs = [make_job("gzip", N, s) for s in ("baseline", "dlvp")]
        cells = [{**job.identity(), "trace_format": "object"}
                 for job in jobs]
        TicketStore(cache / TICKETS_DIRNAME).save(
            "cafe0002", tenant="t", watch=False, cells=cells)
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.resume("cafe0002", timeout=120)
            assert response.complete
            assert len(response.cells) == 2
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        kinds = Counter(e["event"] for e in events)
        assert kinds["gateway_recovered"] == 1
        assert not any(e["event"] == "ticket_record_corrupt" for e in events)
        assert ok_finishes_per_key(events) == {job.key: 1 for job in jobs}


class TestAdmissionControl:
    def test_overload_sheds_with_retry_after_and_journal_trail(
        self, tmp_path
    ):
        server, handle = start_server(
            tmp_path, workers=1, fault_spec="slow@*/*=0.5",
            max_pending_total=3,
        )
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            box = {}
            thread = threading.Thread(target=lambda: box.update(
                response=client.submit(["baseline"], ["gzip", "nat", "mcf"],
                                       n_instructions=N, timeout=60)))
            thread.start()
            try:
                journal = tmp_path / "cache" / "serve.jsonl"
                wait_for(lambda: journal.exists()
                         and '"grid_submitted"' in journal.read_text())
                with pytest.raises(ServerOverloadedError) as excinfo:
                    client.submit(["baseline", "dlvp"], ["vpr", "gcc"],
                                  n_instructions=N)
                assert excinfo.value.retry_after >= 1.0
            finally:
                thread.join(timeout=120)
            assert box["response"].complete
            # the shed grid gets in once the backlog drains
            retry = client.submit(["dlvp"], ["gzip"], n_instructions=N,
                                  reconnects=3, timeout=60)
            assert retry.complete
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        shed = [e for e in events if e["event"] == "submit_rejected"]
        assert shed and shed[0]["reason"] == "overloaded"
        assert shed[0]["retry_after"] >= 1.0


class TestDiscoveryStaleness:
    def test_dead_pid_advertisement_is_deleted_on_read(self, tmp_path):
        write_addr_file(tmp_path, "127.0.0.1", 45678)
        record = read_addr_record(tmp_path)
        record["pid"] = 2 ** 22 + 77777       # provably not alive
        path = tmp_path / "serve.addr"
        path.write_text(json.dumps(record) + "\n")
        assert read_addr_file(tmp_path) is None
        assert not path.exists(), "stale advertisement must be deleted"

    def test_clear_is_pid_guarded(self, tmp_path):
        write_addr_file(tmp_path, "127.0.0.1", 45678)   # our pid
        clear_addr_file(tmp_path, pid=os.getpid() + 1)  # someone else
        assert read_addr_file(tmp_path) is not None, \
            "another process must not withdraw our advertisement"
        clear_addr_file(tmp_path, pid=os.getpid())
        assert read_addr_record(tmp_path) is None

    def test_dead_server_degrades_to_local_fallback(self, tmp_path):
        """A crashed server's stale advertisement must route clients to
        the in-process fallback, not a hang or an error."""
        from repro.serve import submit_or_local

        write_addr_file(tmp_path, "127.0.0.1", 1)       # nothing listens
        record = read_addr_record(tmp_path)
        record["pid"] = 2 ** 22 + 77778
        (tmp_path / "serve.addr").write_text(json.dumps(record) + "\n")
        response = submit_or_local(["dlvp"], ["gzip"], n_instructions=N,
                                   cache_dir=tmp_path)
        assert response.mode == "local"
        assert response.complete

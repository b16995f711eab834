"""Tests for :mod:`repro.serve` — the multi-tenant simulation farm.

Every test runs a real server (background event loop, real TCP socket,
real forked workers) and drives it through the public client, because
the farm's claims — cross-tenant dedup, exactly-once execution,
fairness, crash-masking, graceful drain — are concurrency claims that
only mean something against the real stack.  Assertions lean on the
farm journal (``serve.jsonl``): ``job_started`` counts prove
exactly-once, event order proves fairness, terminal events prove the
drain.
"""

import json
import threading
import time
from collections import Counter

import pytest

from repro.runtime import read_journal
from repro.serve import (
    ServeClient,
    ServeError,
    ServeUnavailable,
    SweepServer,
    submit_or_local,
)

N = 1_500


def start_server(tmp_path, **kwargs):
    """A running farm on an ephemeral port over ``tmp_path/cache``."""
    kwargs.setdefault("workers", 2)
    server = SweepServer(port=0, cache_dir=tmp_path / "cache", **kwargs)
    handle = server.start_in_thread()
    return server, handle


def farm_journal(tmp_path):
    return read_journal(tmp_path / "cache" / "serve.jsonl")


def started_counts(events):
    """job_started occurrences per job key (attempts inflate these)."""
    return Counter(e["key"] for e in events if e["event"] == "job_started")


class TestSubmitRoundTrip:
    def test_cold_submit_executes_and_returns_results(self, tmp_path):
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.submit(
                ["baseline", "dlvp"], ["gzip"], n_instructions=N,
                tenant="alice",
            )
            assert response.complete
            assert response.summary == {
                "cells": 2, "executed": 2, "cached": 0, "shared": 0,
                "failed": 0, "interrupted": 0,
            }
            result = response.result("dlvp", "gzip")
            assert result.trace_name == "gzip" and result.instructions > 0
            assert response.events, "watch=True must stream progress"
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        kinds = Counter(e["event"] for e in events)
        assert kinds["grid_submitted"] == 1
        assert kinds["job_finished"] == 2
        assert kinds["server_shutdown"] == 1

    def test_warm_resubmit_is_fully_cached(self, tmp_path):
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            client.submit(["baseline", "dlvp"], ["gzip"],
                          n_instructions=N, tenant="alice")
            warm = client.submit(["baseline", "dlvp"], ["gzip"],
                                 n_instructions=N, tenant="bob")
            assert warm.complete
            assert warm.summary["cached"] == 2
            assert warm.summary["executed"] == 0
            assert all(c.cache_hit for c in warm.cells.values())
        finally:
            handle.stop()
        assert sum(started_counts(farm_journal(tmp_path)).values()) == 2

    def test_results_identical_to_local_execution(self, tmp_path):
        from repro.pipeline import DlvpScheme, simulate
        from repro.workloads import build_workload

        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.submit(["dlvp"], ["gzip"], n_instructions=N)
        finally:
            handle.stop()
        local = simulate(build_workload("gzip", N), scheme=DlvpScheme())
        assert response.result("dlvp", "gzip") == local


class TestDedup:
    def test_concurrent_overlapping_submissions_execute_once(self, tmp_path):
        server, handle = start_server(tmp_path, fault_spec="slow@*/*=0.2")
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            grid = dict(schemes=["baseline", "dlvp"],
                        workloads=["gzip", "nat"], n_instructions=N)
            responses = {}

            def submit(tenant, delay):
                time.sleep(delay)
                responses[tenant] = client.submit(tenant=tenant, **grid)

            threads = [
                threading.Thread(target=submit, args=("alice", 0.0)),
                threading.Thread(target=submit, args=("bob", 0.05)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            handle.stop()
        assert responses["alice"].complete and responses["bob"].complete
        # the farm's core claim: 8 requested cells, 4 unique, each
        # simulated exactly once
        started = started_counts(farm_journal(tmp_path))
        assert len(started) == 4
        assert all(count == 1 for count in started.values()), started
        overlap = sum(
            r.summary["shared"] + r.summary["cached"]
            for r in responses.values()
        )
        assert overlap == 4

    def test_shared_cells_are_flagged_to_the_joining_client(self, tmp_path):
        server, handle = start_server(tmp_path, fault_spec="slow@*/*=0.3")
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            first = {}
            thread = threading.Thread(
                target=lambda: first.update(
                    r=client.submit(["dlvp"], ["gzip"], n_instructions=N,
                                    tenant="alice")
                )
            )
            thread.start()
            time.sleep(0.1)          # alice's cell is now in flight
            second = client.submit(["dlvp"], ["gzip"], n_instructions=N,
                                   tenant="bob")
            thread.join()
        finally:
            handle.stop()
        assert second.summary["shared"] == 1
        assert second.cells[("dlvp", "gzip")].shared


class TestFairness:
    def test_flood_does_not_starve_other_tenant(self, tmp_path):
        server, handle = start_server(
            tmp_path, workers=1, fault_spec="slow@*/*=0.1",
        )
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            responses = {}

            def flood():
                responses["flood"] = client.submit(
                    ["baseline", "dlvp"], ["gzip", "nat"],
                    n_instructions=N, tenant="flood",
                )

            thread = threading.Thread(target=flood)
            thread.start()
            time.sleep(0.05)         # flood admitted, worker busy
            responses["small"] = client.submit(
                ["vtage"], ["gzip"], n_instructions=N, tenant="small",
            )
            thread.join()
        finally:
            handle.stop()
        assert responses["small"].complete and responses["flood"].complete
        events = farm_journal(tmp_path)
        small_key = responses["small"].cells[("vtage", "gzip")].key
        # round-robin across *dispatches*: the single-cell tenant goes
        # out well before the flooding tenant's backlog drains (never
        # later than the dispatch after the flood's in-flight one).  A
        # dispatch is one lease grant, which starts one cell (no cell
        # here retries, so each job_started is one grant).
        dispatch = 0
        small_dispatch = None
        for event in events:
            if event["event"] == "job_started":
                dispatch += 1
                if event["key"] == small_key and small_dispatch is None:
                    small_dispatch = dispatch
        assert small_dispatch is not None and small_dispatch <= 3, events

    def test_tenant_queue_bound_rejects_whole_submission(self, tmp_path):
        server, handle = start_server(
            tmp_path, workers=1, max_pending_per_tenant=1,
            fault_spec="slow@*/*=0.2",
        )
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            with pytest.raises(ServeError, match="queue is full"):
                client.submit(["baseline", "dlvp", "vtage"], ["gzip"],
                              n_instructions=N, tenant="greedy")
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        kinds = Counter(e["event"] for e in events)
        assert kinds["submit_rejected"] == 1
        # all-or-nothing admission: nothing from the rejected grid ran
        assert kinds.get("job_started", 0) == 0


class TestGroupDispatch:
    def test_same_trace_cells_dispatch_as_one_group(self, tmp_path):
        """One lease runs a same-trace scheme family over one trace."""
        server, handle = start_server(tmp_path, workers=1)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.submit(
                ["baseline", "dlvp", "cap"], ["gzip"], n_instructions=N,
                tenant="alice",
            )
            assert response.complete
            assert response.summary["failed"] == 0
            for scheme in ("baseline", "dlvp", "cap"):
                assert response.result(scheme, "gzip").instructions > 0
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        # exactly-once holds cell by cell
        assert set(started_counts(events).values()) == {1}
        # the lease's persistent worker builds the trace once; the
        # later cells hit its memo
        finished = [e for e in events if e["event"] == "job_finished"]
        assert [e.get("trace_source") for e in finished] == [
            "built", "memo", "memo"]

    def test_free_leases_each_take_one_cell(self, tmp_path):
        """Two leases run one tenant's same-trace grid side by side."""
        server, handle = start_server(tmp_path, workers=2,
                                      fault_spec="slow@*/*=0.5")
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.submit(
                ["baseline", "dlvp", "cap", "vtage"], ["gzip"],
                n_instructions=N, tenant="alice",
            )
            assert response.complete
        finally:
            handle.stop()
        events = farm_journal(tmp_path)
        kinds = [e["event"] for e in events
                 if e["event"] in ("job_started", "job_finished")]
        first_finish = kinds.index("job_finished")
        assert kinds[:first_finish].count("job_started") == 2, kinds


class TestFaultMasking:
    def test_worker_crash_is_retried_invisibly(self, tmp_path):
        server, handle = start_server(tmp_path,
                                      fault_spec="crash@gzip/dlvp:1")
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.submit(["dlvp"], ["gzip"], n_instructions=N)
        finally:
            handle.stop()
        cell = response.cells[("dlvp", "gzip")]
        assert cell.ok and cell.error is None
        assert cell.attempts == 2      # crash, then clean retry
        finished = [e for e in farm_journal(tmp_path)
                    if e["event"] == "job_finished"]
        assert len(finished) == 1 and finished[0]["status"] == "ok"

    def test_exhausted_retries_fail_only_that_cell(self, tmp_path):
        server, handle = start_server(tmp_path, fault_spec="crash@gzip/dlvp")
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            response = client.submit(["baseline", "dlvp"], ["gzip"],
                                     n_instructions=N)
        finally:
            handle.stop()
        assert not response.complete
        assert response.summary["failed"] == 1
        assert response.cells[("baseline", "gzip")].ok
        bad = response.cells[("dlvp", "gzip")]
        assert bad.status == "error" and "died" in bad.error


class TestEndToEnd:
    def test_two_clients_crash_fault_exactly_once_per_cell(self, tmp_path):
        """The acceptance demo: 2 workers, two concurrent clients with
        overlapping 3-scheme x 2-workload grids, a fault-injected
        worker crash mid-grid — every unique cell simulates exactly
        once (the crashed attempt retried), both clients get complete
        results and streamed progress, neither sees an error."""
        server, handle = start_server(tmp_path, workers=2,
                                      fault_spec="crash@gzip/dlvp:1")
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            grids = {
                "alice": (["baseline", "dlvp", "vtage"], ["gzip", "nat"]),
                "bob": (["dlvp", "vtage"], ["gzip", "nat"]),
            }
            responses, progress = {}, {}

            def submit(tenant):
                schemes, workloads = grids[tenant]
                seen = []
                responses[tenant] = client.submit(
                    schemes, workloads, n_instructions=N, tenant=tenant,
                    on_event=seen.append,
                )
                progress[tenant] = seen

            threads = [threading.Thread(target=submit, args=(t,))
                       for t in grids]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            handle.stop()
        for tenant, (schemes, workloads) in grids.items():
            response = responses[tenant]
            assert response.complete, response.failures()
            assert set(response.cells) == {
                (s, w) for s in schemes for w in workloads
            }
            assert progress[tenant], f"{tenant} saw no streamed events"
        finished = [e for e in farm_journal(tmp_path)
                    if e["event"] == "job_finished"]
        per_key = Counter(e["key"] for e in finished)
        assert len(per_key) == 6                        # unique cells
        assert all(count == 1 for count in per_key.values()), per_key
        assert all(e["status"] == "ok" for e in finished)
        crashed = [e for e in finished if e["scheme"] == "dlvp"
                   and e["workload"] == "gzip"]
        assert crashed[0]["attempts"] == 2              # the masked crash


class TestGracefulShutdown:
    def test_drain_notifies_watchers_and_settles_pending(self, tmp_path):
        server, handle = start_server(
            tmp_path, workers=1, fault_spec="slow@*/*=0.5", grace=0.2,
        )
        watched: list[dict] = []
        terminal: dict = {}
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            watcher = threading.Thread(
                target=lambda: terminal.update(
                    client.watch(watched.append)
                )
            )
            watcher.start()
            responses = {}
            submitter = threading.Thread(
                target=lambda: responses.update(
                    r=client.submit(["baseline", "dlvp"], ["gzip"],
                                    n_instructions=N, tenant="alice")
                )
            )
            submitter.start()
            time.sleep(0.2)          # first cell in flight, second queued
            client.shutdown()
            submitter.join(timeout=30)
            watcher.join(timeout=30)
        finally:
            handle.stop()
        assert not submitter.is_alive() and not watcher.is_alive()
        # the submitter got a terminal line for every cell, not an error
        response = responses["r"]
        assert len(response.cells) == 2
        assert response.summary["interrupted"] >= 1
        statuses = {c.status for c in response.cells.values()}
        assert statuses <= {"ok", "interrupted"}
        # the watcher got the terminal event, then a clean hangup
        assert terminal["type"] == "server_shutdown"
        assert watched, "watcher saw no journal events"
        # advertisement withdrawn
        assert not (tmp_path / "cache" / "serve.addr").exists()

    def test_new_submissions_rejected_while_draining(self, tmp_path):
        server, handle = start_server(
            tmp_path, workers=1, fault_spec="slow@*/*=0.6", grace=2.0,
        )
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            background = threading.Thread(
                target=lambda: client.submit(["baseline"], ["gzip"],
                                             n_instructions=N)
            )
            background.start()
            time.sleep(0.2)
            client.shutdown()
            with pytest.raises(ServeError, match="shutting down"):
                client.submit(["dlvp"], ["nat"], n_instructions=N)
            background.join(timeout=30)
        finally:
            handle.stop()


class TestServerHandle:
    def test_stop_after_the_loop_stopped_leaves_nothing_unawaited(
            self, tmp_path):
        """A client ``shutdown`` op can stop the loop before ``stop()``
        runs; ``stop()`` must still return and leave no shutdown
        coroutine behind un-awaited."""
        import asyncio
        import gc
        import warnings

        from repro.serve.server import ServerHandle

        loop = asyncio.new_event_loop()      # never runs again
        release = threading.Event()
        thread = threading.Thread(target=release.wait, daemon=True)
        thread.start()
        server = SweepServer(port=0, cache_dir=tmp_path / "cache")
        handle = ServerHandle(server, thread, loop)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                handle.stop(timeout=0.5)
                loop.close()
                gc.collect()
        finally:
            release.set()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert not [w for w in caught if "never awaited" in str(w.message)]


class TestProtocolEdges:
    def test_unknown_scheme_rejected(self, tmp_path):
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            with pytest.raises(ServeError, match="unknown scheme"):
                client.submit(["definitely-not-a-scheme"], ["gzip"])
        finally:
            handle.stop()

    def test_garbage_line_gets_error_response(self, tmp_path):
        import socket

        server, handle = start_server(tmp_path)
        try:
            with socket.create_connection(
                (handle.host, handle.port), timeout=5
            ) as sock:
                sock.sendall(b"{ not json\n")
                reply = json.loads(sock.makefile("rb").readline())
            assert reply["type"] == "error"
        finally:
            handle.stop()

    def test_ping_and_status(self, tmp_path):
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            pong = client.ping()
            assert pong["type"] == "pong" and pong["version"] == 2
            status = client.status()
            for field in ("workers", "busy", "queued", "inflight",
                          "uptime_s", "cache", "counters"):
                assert field in status, field
            assert status["workers"] == 2
        finally:
            handle.stop()

    def test_cache_ops_over_the_wire(self, tmp_path):
        server, handle = start_server(tmp_path)
        try:
            client = ServeClient(host=handle.host, port=handle.port)
            client.submit(["baseline"], ["gzip"], n_instructions=N)
            verify = client.cache("verify")
            assert verify["type"] == "cache_report"
            assert verify["ok"] == 1 and verify["corrupt"] == 0
            gc = client.cache("gc", max_age_days=0.0)
            assert gc["results_removed"] == 1
        finally:
            handle.stop()


class TestDiscoveryAndFallback:
    def test_addr_file_discovery(self, tmp_path):
        server, handle = start_server(tmp_path)
        try:
            # no host/port: resolved from <cache-dir>/serve.addr
            client = ServeClient(cache_dir=tmp_path / "cache")
            assert client.port == handle.port
            assert client.ping()["type"] == "pong"
        finally:
            handle.stop()

    def test_submit_or_local_falls_back_in_process(self, tmp_path):
        response = submit_or_local(
            ["baseline"], ["gzip"], n_instructions=N,
            host="127.0.0.1", port=1,          # nothing listens there
            cache_dir=tmp_path / "cache",
        )
        assert response.mode == "local"
        assert response.complete
        assert response.result("baseline", "gzip").trace_name == "gzip"

    def test_no_fallback_raises_unavailable(self, tmp_path):
        client = ServeClient(host="127.0.0.1", port=1)
        with pytest.raises(ServeUnavailable):
            client.ping()


class TestServeCli:
    def test_submit_falls_back_and_prints_summary(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main([
            "serve", "submit", "--schemes", "baseline", "--workloads",
            "gzip", "--instructions", str(N), "--quiet",
            "--cache-dir", str(tmp_path / "cache"), "--port", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[repro.serve] 1 cells:" in out
        assert "(local" in out

    def test_status_without_server_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["serve", "status", "--cache-dir",
                     str(tmp_path / "cache"), "--port", "1"])
        assert code == 2
        assert "no server" in capsys.readouterr().err

    def test_submit_against_real_server(self, tmp_path, capsys):
        from repro.__main__ import main

        server, handle = start_server(tmp_path)
        try:
            code = main([
                "serve", "submit", "--schemes", "baseline", "dlvp",
                "--workloads", "gzip", "--instructions", str(N), "--quiet",
                "--host", handle.host, "--port", str(handle.port),
            ])
        finally:
            handle.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "[repro.serve] 2 cells: 2 executed" in out
        assert "(served, tenant default" in out

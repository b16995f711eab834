"""Chaos suite: deterministic fault injection against the runtime.

These tests *actually* kill workers, corrupt cache entries and deliver
SIGINT mid-run — proving the recovery claims in the executor and cache
docstrings rather than trusting them.  Everything is driven through
:mod:`repro.faults`, so each failure is injected deterministically and
the assertions are exact (which cell, which attempt, which journal
events) instead of probabilistic.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.faults import (
    FAULT_SPEC_ENV,
    FaultInjected,
    FaultPlan,
    FaultRule,
    active_plan,
    corrupt_file,
)
from repro.runtime import (
    JobLease,
    ParallelExecutor,
    ResultCache,
    RunJournal,
    Runtime,
    SerialExecutor,
    completed_results,
    make_job,
    read_journal,
)
from repro.workloads import build_workload_columnar

WORKLOADS = ["gzip", "nat"]
N = 1_500
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _subprocess_env(tmp_path, fault_spec=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env.pop(FAULT_SPEC_ENV, None)
    if fault_spec:
        env[FAULT_SPEC_ENV] = fault_spec
    return env


class TestFaultPlan:
    def test_parse_spec_round_trip(self):
        spec = "seed=7;rate=0.5;crash@gzip/dlvp:1,3;slow@*/*=0.25"
        plan = FaultPlan.parse(spec)
        assert plan.seed == 7 and plan.rate == 0.5
        assert plan.rules[0] == FaultRule(
            "crash", "gzip", "dlvp", attempts=(1, 3)
        )
        assert plan.rules[1].kind == "slow"
        assert plan.rules[1].seconds == 0.25
        assert FaultPlan.parse(plan.spec()) == plan

    def test_rule_matching(self):
        rule = FaultRule("raise", "g*", "dlvp", attempts=(2,))
        assert rule.matches("gzip", "dlvp", 2)
        assert not rule.matches("gzip", "dlvp", 1)      # wrong attempt
        assert not rule.matches("nat", "dlvp", 2)       # wrong workload
        assert not rule.matches("gzip", "vtage", 2)     # wrong scheme

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode@*/*")

    def test_seeded_rate_is_deterministic_and_selective(self):
        plan = FaultPlan.parse("rate=0.5;seed=3;raise@*/*")
        keys = [f"{i:064x}" for i in range(200)]
        first = [plan.selects(k) for k in keys]
        assert first == [plan.selects(k) for k in keys]      # deterministic
        assert 40 < sum(first) < 160                         # actually samples
        other = FaultPlan.parse("rate=0.5;seed=4;raise@*/*")
        assert first != [other.selects(k) for k in keys]     # seed matters

    def test_active_plan_reads_environment(self, monkeypatch):
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        assert active_plan() is None
        monkeypatch.setenv(FAULT_SPEC_ENV, "raise@gzip/*")
        plan = active_plan()
        assert plan is not None and plan.rules[0].kind == "raise"
        assert active_plan("crash@*/*").rules[0].kind == "crash"


class TestInjectedFailures:
    def test_raise_fault_recovers_on_retry(self):
        runtime = Runtime(jobs=1, use_cache=False, retries=1,
                          faults="raise@gzip/dlvp:1")
        outcomes = runtime.run_jobs([make_job("gzip", N, "dlvp")])
        (outcome,) = outcomes.values()
        assert outcome.status == "ok"
        assert outcome.attempts == 2        # first attempt raised, retry won

    def test_raise_fault_exhausts_bounded_retries(self):
        runtime = Runtime(jobs=1, use_cache=False, retries=1,
                          faults="raise@gzip/dlvp")
        outcomes = runtime.run_jobs([make_job("gzip", N, "dlvp")])
        (outcome,) = outcomes.values()
        assert outcome.status == "error"
        assert outcome.attempts == 2
        assert "injected fault" in outcome.error

    def test_raise_fault_raises_fault_injected(self):
        from repro.runtime import execute_job
        with pytest.raises(FaultInjected):
            execute_job(make_job("gzip", N, "dlvp"), attempt=1,
                        fault_spec="raise@gzip/*")

    def test_slow_fault_still_succeeds(self):
        runtime = Runtime(jobs=1, use_cache=False,
                          faults="slow@gzip/baseline=0.05")
        started = time.monotonic()
        outcomes = runtime.run_jobs([make_job("gzip", N, "baseline")])
        (outcome,) = outcomes.values()
        assert outcome.status == "ok"
        assert time.monotonic() - started >= 0.05

    def test_hang_fault_hits_timeout(self):
        runtime = Runtime(jobs=1, use_cache=False, timeout=0.5,
                          faults="hang@gzip/baseline")
        outcomes = runtime.run_jobs([make_job("gzip", N, "baseline",
                                              timeout=0.5)])
        (outcome,) = outcomes.values()
        assert outcome.status == "timeout"

    def test_timeout_escalation_recovers_slow_job(self):
        # attempt 1: 0.4s budget < 1s injected delay -> timeout;
        # attempt 2: budget escalates x10 -> the job fits and succeeds
        runtime = Runtime(jobs=1, use_cache=False, retries=1,
                          timeout_factor=10.0,
                          faults="slow@gzip/baseline=1.0")
        outcomes = runtime.run_jobs([make_job("gzip", N, "baseline",
                                              timeout=0.4)])
        (outcome,) = outcomes.values()
        assert outcome.status == "ok"
        assert outcome.attempts == 2

    def test_retry_backoff_is_applied(self):
        runtime = Runtime(jobs=1, use_cache=False, retries=1, backoff=0.2,
                          faults="raise@gzip/dlvp:1")
        started = time.monotonic()
        outcomes = runtime.run_jobs([make_job("gzip", N, "dlvp")])
        (outcome,) = outcomes.values()
        assert outcome.status == "ok"
        assert time.monotonic() - started >= 0.2   # backoff before attempt 2

    def test_parallel_retries_wait_their_backoff_once_per_batch(self):
        runtime = Runtime(jobs=2, use_cache=False, retries=1, backoff=0.5,
                          faults="raise@*/baseline:1")
        started = time.monotonic()
        grid = runtime.run_grid(["baseline"], ["gzip", "nat", "mcf", "aifirf"],
                                N)
        assert not grid.failures()
        assert time.monotonic() - started >= 0.5
        retried = [e["ts"] for e in runtime.journal.events
                   if e["event"] == "job_started" and e["attempt"] == 2]
        assert len(retried) == 4
        # one wait for the whole batch, not one per job in turn
        assert max(retried) - min(retried) < 0.25


class TestWorkerKillIsolation:
    def test_crash_fault_breaks_exactly_one_cell(self):
        """Acceptance: a killed worker yields one error cell, rest ok."""
        runtime = Runtime(jobs=2, use_cache=False, retries=1,
                          faults="crash@gzip/dlvp")
        grid = runtime.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        statuses = {
            cell: outcome.status for cell, outcome in grid.cells.items()
        }
        assert statuses[("dlvp", "gzip")] == "error"
        assert "worker process died" in grid.outcome("dlvp", "gzip").error
        others = [s for cell, s in statuses.items() if cell != ("dlvp", "gzip")]
        assert others == ["ok"] * 3

    def test_crash_on_first_attempt_only_recovers(self):
        runtime = Runtime(jobs=2, use_cache=False, retries=1,
                          faults="crash@gzip/dlvp:1")
        grid = runtime.run_grid(["baseline", "dlvp"], ["gzip"], N)
        outcome = grid.outcome("dlvp", "gzip")
        assert outcome.status == "ok"
        assert outcome.attempts == 2


def _run_serial(job, policy, fault, events):
    return SerialExecutor(**policy).run([job], events=events,
                                        fault_spec=fault)[0]


def _run_pool(job, policy, fault, events):
    return ParallelExecutor(2, **policy).run([job], events=events,
                                             fault_spec=fault)[0]


def _run_lease(job, policy, fault, events):
    lease = JobLease(**policy)
    try:
        return lease.run_one(job, events=events, fault_spec=fault)
    finally:
        lease.close()


# (fault, job timeout, timeout_factor, status, attempts) on gzip/dlvp
# with the default retries=1.  A crash is only survivable where the job
# runs in a worker process, so the in-process driver skips that row.
FAILURE_POLICY = [
    ("raise@gzip/dlvp:1", None, None, "ok", 2),
    ("raise@gzip/dlvp", None, None, "error", 2),
    ("hang@gzip/dlvp", 0.5, None, "timeout", 1),
    ("slow@gzip/dlvp=1.0", 0.4, 10.0, "ok", 2),
    ("crash@gzip/dlvp:1", None, None, "ok", 2),
]
DRIVERS = {"serial": _run_serial, "pool": _run_pool, "lease": _run_lease}


class TestFailurePolicyTable:
    """Every driver settles the same fault the same way."""

    @pytest.mark.parametrize("driver,row", [
        pytest.param(driver, row, id=f"{driver}-{row[0]}")
        for row in FAILURE_POLICY for driver in DRIVERS
        if not (driver == "serial" and row[0].startswith("crash"))
    ])
    def test_fault_settles_by_the_shared_policy(self, driver, row):
        fault, timeout, factor, status, attempts = row
        events = []
        outcome = DRIVERS[driver](
            make_job("gzip", N, "dlvp", timeout=timeout),
            {"retries": 1, "timeout_factor": factor}, fault,
            lambda kind, job, fields: events.append((kind, fields)),
        )
        assert (outcome.status, outcome.attempts) == (status, attempts)
        started = [f["attempt"] for kind, f in events if kind == "job_started"]
        expected = list(range(1, attempts + 1))
        if driver == "pool" and fault.startswith("crash"):
            # the broken shared pool's attempt is uncharged and re-run
            # in isolation, so attempt 1 starts twice
            expected = [1] + expected
        assert started == expected
        assert sum(kind == "trace_built" for kind, _ in events) <= 1


class TestLeaseCancel:
    def test_cancel_mid_attempt_settles_interrupted(self):
        lease = JobLease()
        started = threading.Event()
        outcome = {}

        def events(kind, job, fields):
            if kind == "job_started":
                started.set()

        runner = threading.Thread(target=lambda: outcome.update(
            o=lease.run_one(make_job("gzip", N, "dlvp"), events=events,
                            fault_spec="hang@gzip/dlvp")), daemon=True)
        runner.start()
        try:
            assert started.wait(timeout=30)
            # the first pool of a process may still be starting its
            # worker: cancel must not be lost in that window either
            time.sleep(0.3)
            lease.cancel()
            runner.join(timeout=30)
        finally:
            lease.close()
        assert not runner.is_alive()
        cancelled = outcome["o"]
        assert (cancelled.status, cancelled.attempts) == ("interrupted", 1)
        assert cancelled.error == "interrupted by signal before completion"


class TestCacheIntegrity:
    def test_checksum_failure_quarantines_and_journals(self, tmp_path):
        first = Runtime(jobs=1, cache_dir=tmp_path)
        grid = first.run_grid(["baseline"], ["gzip"], N)
        expected = grid.result("baseline", "gzip")
        key = grid.outcome("baseline", "gzip").job.key
        corrupt_file(first.cache.result_path(key))

        second = Runtime(jobs=1, cache_dir=tmp_path)
        grid2 = second.run_grid(["baseline"], ["gzip"], N)
        assert second.journal.count("cache_corrupt") == 1
        corrupt_event = next(e for e in second.journal.events
                             if e["event"] == "cache_corrupt")
        assert corrupt_event["key"] == key
        quarantined = tmp_path / "corrupt" / f"{key}.json"
        assert quarantined.is_file()               # moved, not overwritten
        assert second.journal.summary()["executed"] == 1   # re-ran the cell
        assert grid2.result("baseline", "gzip") == expected

        third = Runtime(jobs=1, cache_dir=tmp_path)
        third.run_grid(["baseline"], ["gzip"], N)
        assert third.journal.summary()["cache_hits"] == 1  # healed

    def test_corrupt_cache_fault_injects_torn_write(self, tmp_path):
        runtime = Runtime(jobs=1, cache_dir=tmp_path,
                          faults="corrupt_cache@gzip/baseline")
        grid = runtime.run_grid(["baseline"], ["gzip"], N)
        assert runtime.journal.count("fault_injected", fault="corrupt_cache") == 1
        key = grid.outcome("baseline", "gzip").job.key
        assert runtime.cache.get(key) is None      # quarantined on read
        assert (tmp_path / "corrupt" / f"{key}.json").is_file()

    def test_contains_is_schema_check_without_deserializing(self, tmp_path):
        runtime = Runtime(jobs=1, cache_dir=tmp_path)
        grid = runtime.run_grid(["baseline"], ["gzip"], N)
        key = grid.outcome("baseline", "gzip").job.key
        cache = ResultCache(tmp_path)
        assert cache.contains(key)
        assert not cache.contains("0" * 64)
        path = cache.result_path(key)
        payload = json.loads(path.read_text())
        payload["cache_schema"] = 999
        path.write_text(json.dumps(payload))
        assert not cache.contains(key)             # stale schema
        assert path.is_file()                      # contains never quarantines

    def test_verify_counts_and_quarantines(self, tmp_path):
        runtime = Runtime(jobs=1, cache_dir=tmp_path)
        grid = runtime.run_grid(["baseline", "dlvp"], ["gzip"], N)
        key = grid.outcome("dlvp", "gzip").job.key
        corrupt_file(runtime.cache.result_path(key))
        report = ResultCache(tmp_path).verify()
        assert report["results"] == 2
        assert report["ok"] == 1
        assert report["corrupt"] == 1
        assert (tmp_path / "corrupt" / f"{key}.json").is_file()

    def test_verify_reads_trace_verdicts_as_the_runtime_does(self, tmp_path):
        """A verdict byte that is neither 0 nor 1 makes the runtime
        refuse the trace, so verify quarantines it too."""
        cache = ResultCache(tmp_path)
        cache.put_trace("k", build_workload_columnar("gzip", N))
        path = cache.trace_path("k")
        data = bytearray(path.read_bytes())
        data[-1] = 2                               # the last row's verdict
        path.write_bytes(bytes(data))
        assert cache.get_trace_columnar("k") is None
        report = cache.verify()
        assert report["traces"] == 1 and report["trace_corrupt"] == 1
        assert (tmp_path / "corrupt" / path.name).is_file()

    def test_verify_counts_an_old_layout_trace_as_stale(self, tmp_path):
        """A trace cached in the v2 prefix-index layout (under an older
        code salt's key) is stale, not corrupt: it stays for gc, and
        verify still reports success."""
        cache = ResultCache(tmp_path)
        path = cache.trace_path("old")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"repro-trace-v2\ngzip 1:8:4\n" + bytes(64))
        cache.put_trace("new", build_workload_columnar("gzip", N))
        report = cache.verify()
        assert report["traces"] == 2
        assert report["trace_stale"] == 1 and report["trace_corrupt"] == 0
        assert path.is_file()
        assert not cache.quarantine_dir().exists()
        assert cache.gc(max_age_days=0.0)["traces_removed"] == 2

    def test_verify_still_quarantines_a_torn_v3_trace(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_trace("k", build_workload_columnar("gzip", N))
        path = cache.trace_path("k")
        path.write_bytes(path.read_bytes()[:200])
        report = cache.verify()
        assert report["trace_stale"] == 0 and report["trace_corrupt"] == 1
        assert (tmp_path / "corrupt" / path.name).is_file()

    def test_gc_prunes_by_age_and_size(self, tmp_path):
        runtime = Runtime(jobs=1, cache_dir=tmp_path)
        runtime.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        cache = ResultCache(tmp_path)
        untouched = cache.gc()
        assert untouched["removed"] == 0 and untouched["kept"] > 0
        shrunk = cache.gc(max_size_mb=0.001)       # ~1KB: traces must go
        assert shrunk["removed"] > 0
        emptied = cache.gc(max_age_days=0.0)
        assert emptied["kept"] == 0
        assert cache.gc()["kept"] == 0


class TestJournalDurability:
    def test_every_event_carries_run_id(self, tmp_path):
        runtime = Runtime(jobs=1, use_cache=False,
                          journal_path=tmp_path / "j.jsonl")
        runtime.run_jobs([make_job("gzip", N, "baseline")])
        events = read_journal(tmp_path / "j.jsonl")
        assert events
        assert all(e["run_id"] == runtime.journal.run_id for e in events)

    def test_journal_appends_across_runs(self, tmp_path):
        path = tmp_path / "j.jsonl"
        for _ in range(2):
            journal = RunJournal(path)
            journal.event("run_started", jobs=0)
            journal.close()
        events = read_journal(path)
        assert len(events) == 2
        assert events[0]["run_id"] != events[1]["run_id"]

    def test_torn_final_line_tolerated_with_warning(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"event": "run_started", "run_id": "x"}) + "\n"
            + '{"event": "job_finished", "stat'      # crashed mid-write
        )
        with pytest.warns(RuntimeWarning, match="torn final line"):
            events = read_journal(path)
        assert [e["event"] for e in events] == ["run_started"]

    def test_mid_file_corruption_raises_with_line_number(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"event": "a"}) + "\n"
            + "garbage\n"
            + json.dumps({"event": "b"}) + "\n"
        )
        with pytest.raises(ValueError, match=r"line .*:2"):
            read_journal(path)

    def test_completed_results_indexes_ok_finishes(self):
        events = [
            {"event": "job_finished", "status": "ok", "key": "a",
             "result": {"x": 1}},
            {"event": "job_finished", "status": "error", "key": "b",
             "error": "boom"},
            {"event": "job_finished", "status": "ok", "key": "a",
             "result": {"x": 2}},          # latest finish wins
        ]
        assert completed_results(events) == {"a": {"x": 2}}


class TestResume:
    def test_resume_skips_completed_jobs_without_cache(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = Runtime(jobs=1, use_cache=False, journal_path=path)
        grid = first.run_grid(["baseline", "dlvp"], ["gzip"], N)
        first.journal.close()

        second = Runtime(jobs=1, use_cache=False, resume_from=path)
        grid2 = second.run_grid(["baseline", "dlvp"], ["gzip"], N)
        summary = second.journal.summary()
        assert summary["resumed"] == 2
        assert summary["executed"] == 0
        assert second.journal.count("job_started") == 0
        for scheme in ("baseline", "dlvp"):
            assert grid2.result(scheme, "gzip") == grid.result(scheme, "gzip")
            assert grid2.outcome(scheme, "gzip").resumed

    def test_resume_runs_only_what_the_journal_lacks(self, tmp_path):
        path = tmp_path / "j.jsonl"
        first = Runtime(jobs=1, use_cache=False, journal_path=path)
        first.run_grid(["baseline"], ["gzip"], N)
        first.journal.close()
        second = Runtime(jobs=1, use_cache=False, resume_from=path)
        second.run_grid(["baseline", "dlvp"], ["gzip"], N)
        summary = second.journal.summary()
        assert summary["resumed"] == 1
        assert summary["executed"] == 1    # only the new dlvp cell ran


class TestGracefulInterruption:
    def test_sigint_returns_partial_results(self, tmp_path):
        """SIGINT mid-run: completed cells survive (and are cached)."""
        runtime = Runtime(jobs=1, cache_dir=tmp_path,
                          journal_path=tmp_path / "j.jsonl",
                          faults="hang@nat/baseline")
        timer = threading.Timer(
            1.5, lambda: os.kill(os.getpid(), signal.SIGINT)
        )
        timer.start()
        try:
            grid = runtime.run_grid(["baseline"], ["gzip", "nat"], N)
        finally:
            timer.cancel()
        assert grid.outcome("baseline", "gzip").status == "ok"
        assert grid.outcome("baseline", "nat").status == "interrupted"
        assert not grid.complete
        assert runtime.journal.count("run_interrupted") == 1
        assert "1/2 cells completed" in grid.partial_report()
        # the finished cell is already cached for the relaunch
        key = grid.outcome("baseline", "gzip").job.key
        assert ResultCache(tmp_path).contains(key)

    def test_cli_sigint_then_resume_reexecutes_nothing(self, tmp_path):
        """Acceptance: interrupted sweep + --resume re-runs zero done jobs."""
        journal = tmp_path / "sweep.jsonl"
        cmd = [
            sys.executable, "-m", "repro", "sweep", "--schemes", "dlvp",
            "--workloads", "gzip", "nat", "--instructions", str(N),
            "--no-cache", "--journal", str(journal),
        ]
        proc = subprocess.Popen(
            cmd, env=_subprocess_env(tmp_path, "hang@nat/dlvp"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail(
                    f"sweep exited early ({proc.returncode}): "
                    f"{proc.communicate()[1]}"
                )
            if journal.is_file() and journal.read_text().count(
                '"job_finished"'
            ) >= 3:
                break               # everything but the hung cell is done
            time.sleep(0.1)
        else:
            proc.kill()
            pytest.fail("sweep never reached the hung cell")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert "run interrupted" in err
        assert "--resume" in err

        first_events = read_journal(journal)
        done_first = {
            e["key"] for e in first_events
            if e["event"] == "job_finished" and e["status"] == "ok"
        }
        assert len(done_first) == 3

        resumed = subprocess.run(
            cmd + ["--resume", str(journal)],
            env=_subprocess_env(tmp_path),    # fault cleared: cell completes
            capture_output=True, text=True, timeout=120,
        )
        assert resumed.returncode == 0, resumed.stderr
        events = read_journal(journal)
        second_id = events[-1]["run_id"]
        second = [e for e in events if e["run_id"] == second_id]
        started = [e for e in second if e["event"] == "job_started"]
        # zero completed jobs re-executed: only the hung cell starts
        assert len(started) == 1
        assert started[0]["key"] not in done_first
        assert sum(e["event"] == "job_resumed" for e in second) == 3


class TestTimeoutDegradationWarning:
    def test_warns_once_when_sigalrm_unusable(self, monkeypatch):
        import repro.runtime.executor as executor_module
        monkeypatch.setattr(executor_module, "_timeout_degraded_warned", False)
        caught: list[warnings.WarningMessage] = []

        def call_twice_off_main_thread():
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                assert executor_module._call_with_timeout(lambda: 42, 1.0) == 42
                assert executor_module._call_with_timeout(lambda: 43, 1.0) == 43
                caught.extend(log)

        thread = threading.Thread(target=call_twice_off_main_thread)
        thread.start()
        thread.join()
        degraded = [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert len(degraded) == 1              # one-time, not per call
        assert "unbounded" in str(degraded[0].message)

    def test_no_warning_without_timeout(self, monkeypatch):
        import repro.runtime.executor as executor_module
        monkeypatch.setattr(executor_module, "_timeout_degraded_warned", False)
        caught: list[warnings.WarningMessage] = []

        def call():
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                executor_module._call_with_timeout(lambda: 1, None)
                caught.extend(log)

        thread = threading.Thread(target=call)
        thread.start()
        thread.join()
        assert not caught


class TestChaosCli:
    def test_chaos_command_reports_recovery(self, tmp_path, capsys,
                                            monkeypatch):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        code = main([
            "chaos", "--fault", "crash@gzip/dlvp", "--schemes", "baseline",
            "dlvp", "--workloads", "gzip", "nat",
            "--instructions", str(N), "--jobs", "2",
        ])
        assert code == 0
        out, err = capsys.readouterr()
        assert "worker process died" in out
        assert "3 ok, 1 error" in err

    def test_chaos_crash_fault_needs_worker_processes(self, tmp_path):
        # in a subprocess: at --jobs 1 a crash fault that got through
        # would os._exit the process running the grid
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--fault",
             "crash@gzip/dlvp", "--workloads", "gzip", "nat",
             "--instructions", str(N)],
            env=_subprocess_env(tmp_path), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--jobs 2" in proc.stderr

    def test_in_process_crash_plan_is_refused_by_every_command(
            self, tmp_path):
        # the plan comes from the environment, and sweep builds its
        # Runtime at the default --jobs 1
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--schemes", "dlvp",
             "--workloads", "gzip", "nat", "--instructions", "1500",
             "--no-cache"],
            env=_subprocess_env(tmp_path, "crash@gzip/dlvp"),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "--jobs 2" in proc.stderr

    def test_chaos_without_plan_is_an_error(self, capsys, monkeypatch):
        from repro.__main__ import main
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        assert main(["chaos"]) == 2
        assert "no fault plan" in capsys.readouterr().err

    def test_cache_verify_and_gc_commands(self, tmp_path, capsys,
                                          monkeypatch):
        from repro.__main__ import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
        assert main(["run", "gzip", "--instructions", str(N)]) == 0
        capsys.readouterr()
        assert main(["cache", "verify"]) == 0
        assert " ok, " in capsys.readouterr().out
        assert main(["cache", "gc", "--max-age-days", "0"]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "verify"]) == 0
        assert "0 results" in capsys.readouterr().out

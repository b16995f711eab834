"""Tests for :mod:`repro.runtime` — jobs, cache, executors, journal."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.pipeline import DlvpScheme, RecoveryMode, SimResult, simulate
from repro.runtime import (
    CODE_SALT_ENV,
    Job,
    ParallelExecutor,
    ResultCache,
    Runtime,
    SerialExecutor,
    code_version_salt,
    job_from_identity,
    make_job,
    read_journal,
    register_scheme,
    scheme_ids,
    trace_cache_key,
)
from repro.workloads import build_workload

WORKLOADS = ["gzip", "nat"]
N = 1_500


# Module-level factories: picklable-by-name is not required (jobs carry
# only the scheme id), but module scope keeps them resolvable in forked
# workers and re-importable under spawn.
def _slow_factory():
    time.sleep(30.0)
    return DlvpScheme()


def _raising_factory():
    raise RuntimeError("scheme factory failed on purpose")


def _crashing_factory():
    os._exit(3)


register_scheme("test/slow", _slow_factory)
register_scheme("test/raises", _raising_factory)
register_scheme("test/dies", _crashing_factory)


@pytest.fixture
def uncached_runtime():
    return Runtime(jobs=1, use_cache=False)


class TestJobKeys:
    def test_key_is_deterministic(self):
        a = make_job("gzip", N, "dlvp")
        b = make_job("gzip", N, "dlvp")
        assert a.key == b.key

    def test_key_varies_with_every_identity_field(self):
        base = make_job("gzip", N, "dlvp")
        assert base.key != make_job("nat", N, "dlvp").key
        assert base.key != make_job("gzip", N + 1, "dlvp").key
        assert base.key != make_job("gzip", N, "vtage").key
        assert base.key != make_job(
            "gzip", N, "dlvp", recovery=RecoveryMode.ORACLE_REPLAY
        ).key

    def test_trace_format_defaults_to_columnar_and_not_part_of_key(self):
        job = make_job("gzip", N, "dlvp")
        assert job.trace_format == "columnar"
        assert job.key == make_job("gzip", N, "dlvp",
                                   trace_format="shared").key
        with pytest.raises(ValueError, match="trace format"):
            make_job("gzip", N, "dlvp", trace_format="object")
        with pytest.raises(ValueError, match="trace format"):
            Runtime(jobs=1, use_cache=False, trace_format="object")

    def test_legacy_object_identity_maps_to_the_default(self):
        job = make_job("gzip", N, "dlvp")
        legacy = {**job.identity(), "trace_format": "object"}
        assert job_from_identity(legacy) == job

    def test_timeout_not_part_of_key(self):
        assert make_job("gzip", N, "dlvp").key == \
            make_job("gzip", N, "dlvp", timeout=5.0).key

    def test_key_depends_on_code_salt(self, monkeypatch):
        before = make_job("gzip", N, "dlvp").key
        monkeypatch.setenv(CODE_SALT_ENV, "different-release")
        code_version_salt.cache_clear()
        try:
            assert make_job("gzip", N, "dlvp").key != before
        finally:
            monkeypatch.delenv(CODE_SALT_ENV)
            code_version_salt.cache_clear()

    def test_key_stable_across_processes(self):
        """A fresh interpreter computes the same salt and job key."""
        code = (
            "from repro.runtime import make_job, code_version_salt\n"
            f"job = make_job('gzip', {N}, 'dlvp')\n"
            "print(code_version_salt())\n"
            "print(job.key)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(CODE_SALT_ENV, None)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True,
        ).stdout.split()
        code_version_salt.cache_clear()
        assert out[0] == code_version_salt()
        assert out[1] == make_job("gzip", N, "dlvp").key


class TestSimResultRoundTrip:
    @pytest.mark.parametrize("scheme_id", ["baseline", "dlvp", "tournament"])
    def test_round_trip_equality(self, scheme_id, uncached_runtime):
        grid = uncached_runtime.run_grid([scheme_id], ["gzip"], N)
        result = grid.result(scheme_id, "gzip")
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.ipc == result.ipc
        assert clone.value_coverage == result.value_coverage

    def test_schema_version_checked(self):
        trace = build_workload("gzip", N)
        payload = simulate(trace).to_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            SimResult.from_dict(payload)

    def test_v1_payload_still_loads(self):
        # v1 results predate the way-predicted-probe energy split and
        # the PAQ flush counter; they must load with those fields at
        # their zero defaults (the old accounting), not be rejected.
        from repro.pipeline import DlvpScheme

        trace = build_workload("gzip", N)
        payload = simulate(trace, scheme=DlvpScheme()).to_dict()
        payload["schema"] = 1
        payload["energy"].pop("l1d_probes_way_predicted")
        payload["scheme_stats"].pop("probes_way_predicted")
        payload["scheme_stats"].pop("paq_flushed")
        result = SimResult.from_dict(json.loads(json.dumps(payload)))
        assert result.energy.l1d_probes_way_predicted == 0
        assert result.scheme_stats.probes_way_predicted == 0
        assert result.scheme_stats.paq_flushed == 0
        assert result.cycles == payload["cycles"]


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = build_workload("gzip", N)
        result = simulate(trace, scheme=DlvpScheme())
        cache.put("k" * 64, result)
        assert cache.get("k" * 64) == result

    def test_miss_and_corruption_are_none(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("0" * 64) is None
        path = cache.result_path("1" * 64)
        path.parent.mkdir(parents=True)
        path.write_text("{ not json")
        assert cache.get("1" * 64) is None

    def test_trace_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        trace = build_workload("nat", N)
        key = trace_cache_key("nat", N)
        assert cache.get_trace(key) is None
        cache.put_trace(key, trace)
        loaded = cache.get_trace(key)
        assert loaded is not None
        assert loaded.name == trace.name
        assert list(loaded) == list(trace)


class TestCacheLifecycle:
    """LRU accounting behind ``cache gc`` and the serve store bound."""

    @staticmethod
    def _fill(cache, keys):
        trace = build_workload("gzip", N)
        result = simulate(trace, scheme=DlvpScheme())
        for key in keys:
            cache.put(key, result)
        return result

    @staticmethod
    def _age(cache, key, seconds):
        when = time.time() - seconds
        os.utime(cache.result_path(key), (when, when))

    def test_get_refreshes_last_used(self, tmp_path):
        cache = ResultCache(tmp_path)
        a, b = "a" * 64, "b" * 64
        self._fill(cache, [a, b])
        self._age(cache, a, 3600)
        self._age(cache, b, 7200)
        assert cache.get(b) is not None      # touch: b becomes the MRU
        size = cache.result_path(a).stat().st_size
        report = cache.gc(max_size_mb=size * 1.5 / (1024 * 1024))
        assert report["results_removed"] == 1
        assert cache.get(b) is not None      # recently used survives
        assert cache.get(a) is None          # cold entry evicted

    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        keys = ["a" * 64, "b" * 64, "c" * 64]
        self._fill(cache, keys)
        for key, age in zip(keys, (30, 7200, 3600)):
            self._age(cache, key, age)
        size = cache.result_path(keys[0]).stat().st_size
        report = cache.gc(max_size_mb=size * 1.5 / (1024 * 1024))
        assert report["removed"] == 2 and report["kept"] == 1
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[1]) is None and cache.get(keys[2]) is None

    def test_gc_reports_per_category_counts_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, ["a" * 64])
        cache.put_trace(trace_cache_key("nat", N), build_workload("nat", N))
        expected = sum(
            p.stat().st_size
            for p in (tmp_path / "results").rglob("*") if p.is_file()
        ) + sum(
            p.stat().st_size
            for p in (tmp_path / "traces").rglob("*") if p.is_file()
        )
        report = cache.gc(max_age_days=0.0)
        assert report["results_removed"] == 1
        assert report["traces_removed"] == 1
        assert report["bytes_freed"] == expected
        assert report["kept"] == 0 and report["bytes_kept"] == 0

    def test_stats_counts_sections(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, ["a" * 64, "b" * 64])
        empty_quarantine = cache.stats()["quarantined"]
        path = cache.result_path("c" * 64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{ corrupt")
        assert cache.get("c" * 64) is None   # quarantines the entry
        stats = cache.stats()
        assert stats["results"] == 2
        assert stats["quarantined"] == empty_quarantine + 1
        assert stats["bytes"] > 0


class TestCacheSemantics:
    def test_cold_then_warm(self, tmp_path):
        cold = Runtime(jobs=1, cache_dir=tmp_path)
        grid_cold = cold.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        cold_summary = cold.journal.summary()
        assert cold_summary["executed"] == 4
        assert cold_summary["cache_hits"] == 0

        warm = Runtime(jobs=1, cache_dir=tmp_path)
        grid_warm = warm.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        warm_summary = warm.journal.summary()
        assert warm_summary["executed"] == 0
        assert warm_summary["cache_hits"] == 4
        for scheme in ("baseline", "dlvp"):
            assert grid_warm.scheme_results(scheme) == \
                grid_cold.scheme_results(scheme)

    def test_no_cache_always_executes(self, tmp_path):
        for _ in range(2):
            runtime = Runtime(jobs=1, cache_dir=tmp_path, use_cache=False)
            runtime.run_grid(["baseline"], ["gzip"], N)
            assert runtime.journal.summary()["executed"] == 1
        assert not (tmp_path / "results").exists()

    def test_duplicate_jobs_deduplicated(self, uncached_runtime):
        job = make_job("gzip", N, "baseline")
        outcomes = uncached_runtime.run_jobs([job, job, job])
        assert len(outcomes) == 1
        assert uncached_runtime.journal.summary()["executed"] == 1


class TestExecutors:
    def test_serial_and_parallel_results_identical(self, tmp_path):
        serial = Runtime(jobs=1, use_cache=False)
        parallel = Runtime(jobs=2, use_cache=False)
        grid_s = serial.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        grid_p = parallel.run_grid(["baseline", "dlvp"], WORKLOADS, N)
        for scheme in ("baseline", "dlvp"):
            assert grid_s.scheme_results(scheme) == grid_p.scheme_results(scheme)
        assert grid_s.speedups("dlvp") == grid_p.speedups("dlvp")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_job_timeout(self, jobs):
        runtime = Runtime(jobs=jobs, use_cache=False, timeout=1.0)
        outcomes = runtime.run_jobs([make_job("gzip", N, "test/slow",
                                              timeout=1.0)])
        (outcome,) = outcomes.values()
        assert outcome.status == "timeout"
        assert outcome.result is None
        assert "timeout" in (outcome.error or "")
        assert runtime.journal.summary()["timed_out"] == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_worker_bounded_retries(self, jobs):
        runtime = Runtime(jobs=jobs, use_cache=False, retries=1)
        outcomes = runtime.run_jobs([make_job("gzip", N, "test/raises")])
        (outcome,) = outcomes.values()
        assert outcome.status == "error"
        assert outcome.attempts == 2
        assert "scheme factory failed on purpose" in outcome.error

    def test_worker_crash_marks_one_cell_not_the_run(self):
        runtime = Runtime(jobs=2, use_cache=False, retries=1)
        jobs = [
            make_job("gzip", N, "dlvp"),
            make_job("gzip", N, "test/dies"),
            make_job("nat", N, "baseline"),
        ]
        outcomes = runtime.run_jobs(jobs)
        assert outcomes[jobs[0].key].status == "ok"
        assert outcomes[jobs[2].key].status == "ok"
        crashed = outcomes[jobs[1].key]
        assert crashed.status == "error"
        assert "worker process died" in crashed.error

    def test_executor_objects_run_raw_jobs(self):
        job = make_job("gzip", N, "baseline")
        serial = SerialExecutor().run([job])
        parallel = ParallelExecutor(max_workers=2).run([job])
        assert serial[0].ok and parallel[0].ok
        assert serial[0].result == parallel[0].result


class TestJournal:
    def test_jsonl_file_round_trip(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        runtime = Runtime(jobs=1, cache_dir=tmp_path,
                          journal_path=journal_path)
        runtime.run_grid(["baseline"], ["gzip"], N)
        events = read_journal(journal_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_started"
        assert kinds[-1] == "run_finished"
        assert "job_submitted" in kinds
        assert "cache_miss" in kinds
        finished = [e for e in events if e["event"] == "job_finished"]
        assert len(finished) == 1
        assert finished[0]["status"] == "ok"
        assert finished[0]["duration"] > 0

    def test_warm_run_journal_proves_zero_executions(self, tmp_path):
        Runtime(jobs=1, cache_dir=tmp_path).run_grid(["baseline"], ["gzip"], N)
        journal_path = tmp_path / "warm.jsonl"
        warm = Runtime(jobs=1, cache_dir=tmp_path, journal_path=journal_path)
        warm.run_grid(["baseline"], ["gzip"], N)
        events = read_journal(journal_path)
        assert sum(e["event"] == "cache_hit" for e in events) == 1
        assert sum(e["event"] == "job_started" for e in events) == 0
        assert sum(e["event"] == "job_finished" for e in events) == 0

    def test_format_summary_mentions_failures(self):
        runtime = Runtime(jobs=1, use_cache=False, retries=0)
        runtime.run_jobs([make_job("gzip", N, "test/raises")])
        assert "FAILED" in runtime.journal.format_summary()

    def test_concurrent_appends_never_tear_lines(self, tmp_path):
        """Many processes appending to one journal: every line intact.

        The serve gateway and any number of CLI runs may share a
        journal path; each event must be a single ``O_APPEND`` write so
        concurrent writers interleave whole lines, never fragments."""
        path = tmp_path / "shared.jsonl"
        writers, events_each = 4, 200
        script = (
            "import sys\n"
            "from repro.runtime import RunJournal\n"
            "journal = RunJournal(sys.argv[1])\n"
            "writer = sys.argv[2]\n"
            f"for i in range({events_each}):\n"
            "    journal.event('torn_line_probe', writer=writer, seq=i,\n"
            "                  pad='x' * 2048)\n"
            "journal.close()\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(path), f"w{i}"], env=env
            )
            for i in range(writers)
        ]
        assert all(proc.wait(timeout=120) == 0 for proc in procs)
        lines = path.read_bytes().decode("utf-8").splitlines()
        assert len(lines) == writers * events_each
        parsed = [json.loads(line) for line in lines]   # no torn JSON
        per_writer = {}
        for entry in parsed:
            per_writer.setdefault(entry["writer"], []).append(entry["seq"])
        assert set(per_writer) == {f"w{i}" for i in range(writers)}
        for seqs in per_writer.values():
            assert seqs == list(range(events_each))     # per-writer order


class TestRegistry:
    def test_builtins_registered(self):
        for scheme_id in ("baseline", "dlvp", "cap", "vtage", "dvtage",
                          "tournament"):
            assert scheme_id in scheme_ids()

    def test_reregistration_same_config_is_noop(self):
        spec = register_scheme("test/slow", _slow_factory)
        assert spec.scheme_id == "test/slow"

    def test_conflicting_reregistration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("test/slow", _slow_factory, config={"other": 1})

    def test_unknown_scheme_id(self):
        with pytest.raises(KeyError, match="unknown scheme id"):
            make_job("gzip", N, "no-such-scheme")

"""Fabric-backed grid execution and trace reuse across retries.

The shared trace fabric must change *how fast* a grid settles, never
*what* it settles to:

* a fabric grid (serial and parallel) produces results bit-identical
  to the stock per-cell object-engine grid;
* a crashing cell inside a trace group fails alone — its groupmates
  settle ok through the same dispatch;
* a retried attempt inside one worker reuses the trace the first
  attempt built (the memo), so the journal shows exactly one
  ``trace_built`` per (workload, instructions) even under retries.
"""

import pytest

from repro.runtime import Runtime, make_job, read_journal, register_scheme
from repro.runtime.jobs import _TRACE_MEMO

WORKLOADS = ["gzip", "nat"]
SCHEMES = ["baseline", "dlvp", "cap"]
N = 1_500


def _crashing_factory():
    import os

    os._exit(3)


register_scheme("fabric/dies", _crashing_factory)


def _cells(grid):
    return {
        cell: grid.result(*cell)
        for cell in grid.cells
    }


@pytest.fixture(autouse=True)
def _fresh_memo():
    _TRACE_MEMO.clear()
    yield
    _TRACE_MEMO.clear()


class TestFabricGrid:
    def test_fabric_results_identical_to_stock(self, tmp_path):
        stock = Runtime(jobs=1, cache_dir=tmp_path / "stock")
        reference = _cells(stock.run_grid(SCHEMES, WORKLOADS, N))
        for jobs, label in ((1, "serial"), (2, "parallel")):
            runtime = Runtime(jobs=jobs, cache_dir=tmp_path / f"fab{jobs}",
                              trace_format="shared")
            grid = runtime.run_grid(SCHEMES, WORKLOADS, N)
            assert not grid.failures(), label
            assert _cells(grid) == reference, label

    def test_fabric_journal_records_group_lifecycle(self, tmp_path):
        journal_path = tmp_path / "run.jsonl"
        runtime = Runtime(jobs=1, cache_dir=tmp_path, trace_format="shared",
                          journal_path=journal_path)
        grid = runtime.run_grid(SCHEMES, ["gzip"], N)
        assert not grid.failures()
        events = read_journal(journal_path)
        published = [e for e in events if e["event"] == "trace_published"]
        assert len(published) == 1
        assert published[0]["cells"] == len(SCHEMES)
        assert published[0]["ref"].partition(":")[0] in ("shm", "file")
        finished = [e for e in events if e["event"] == "job_finished"]
        assert {e.get("trace_source") for e in finished} == {"shared"}

    def test_crashing_cell_fails_alone_in_its_group(self, tmp_path):
        runtime = Runtime(jobs=2, cache_dir=tmp_path, retries=1,
                          trace_format="shared")
        jobs = [
            make_job("gzip", N, "baseline", trace_format="shared"),
            make_job("gzip", N, "fabric/dies", trace_format="shared"),
            make_job("gzip", N, "dlvp", trace_format="shared"),
        ]
        outcomes = runtime.run_jobs(jobs)
        assert outcomes[jobs[0].key].status == "ok"
        assert outcomes[jobs[2].key].status == "ok"
        crashed = outcomes[jobs[1].key]
        assert crashed.status == "error"
        assert "worker process died" in crashed.error


class TestTraceMemoAcrossRetries:
    def test_retry_reuses_first_attempts_trace(self, tmp_path):
        """Fails before the memo: attempt 2 used to rebuild the trace.

        With ``use_cache=False`` there is no trace cache to hide behind;
        only the in-worker memo can make the second attempt's
        ``trace_source`` read ``"memo"`` — and the journal must show the
        build happened exactly once.
        """
        journal_path = tmp_path / "retry.jsonl"
        runtime = Runtime(jobs=1, use_cache=False, retries=1,
                          journal_path=journal_path,
                          faults="raise@gzip/dlvp:1")
        outcomes = runtime.run_jobs([make_job("gzip", N, "dlvp")])
        (outcome,) = outcomes.values()
        assert outcome.status == "ok"
        assert outcome.attempts == 2
        events = read_journal(journal_path)
        built = [e for e in events if e["event"] == "trace_built"]
        assert len(built) == 1
        assert built[0]["attempt"] == 1
        finished = [e for e in events if e["event"] == "job_finished"]
        assert finished[-1]["trace_source"] == "memo"


class TestGroupCellFailures:
    """A cell that fails inside its trace group is settled on its own."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_cell_is_retried_alone(self, tmp_path, jobs):
        runtime = Runtime(jobs=jobs, cache_dir=tmp_path, retries=1,
                          trace_format="shared", faults="raise@gzip/dlvp:1")
        grid = runtime.run_grid(SCHEMES, ["gzip"], N)
        assert not grid.failures()
        attempts = {s: grid.outcome(s, "gzip").attempts for s in SCHEMES}
        assert attempts == {"baseline": 1, "dlvp": 2, "cap": 1}
        started = [e["attempt"] for e in runtime.journal.events
                   if e["event"] == "job_started" and e["scheme"] == "dlvp"]
        assert started == [1, 2]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_timed_out_cell_fails_alone(self, tmp_path, jobs):
        runtime = Runtime(jobs=jobs, cache_dir=tmp_path, timeout=0.5,
                          trace_format="shared", faults="hang@gzip/dlvp")
        grid = runtime.run_grid(SCHEMES, ["gzip"], N)
        statuses = {s: grid.outcome(s, "gzip").status for s in SCHEMES}
        assert statuses == {"baseline": "ok", "dlvp": "timeout", "cap": "ok"}
        assert grid.outcome("dlvp", "gzip").attempts == 1

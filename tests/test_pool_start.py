"""Which start method a worker pool takes, and what its workers inherit.

``repro.runtime.executor._make_pool`` forks a pool's workers from a
caller with one thread and starts them from a forkserver otherwise
(DESIGN §5f).  Each case runs in a fresh interpreter, so its thread
count is known: the test process itself may hold threads that other
tests left behind.  Every case runs with the fork-with-threads
``DeprecationWarning`` of CPython 3.12+ shown and fails if it appears.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.runtime import read_journal

SRC = Path(__file__).resolve().parent.parent / "src"
FORK_WARNING = "multi-threaded, use of fork()"

pytestmark = pytest.mark.skipif(
    sys.platform != "linux" or sys.version_info < (3, 11),
    reason="pools fork their workers only on Linux with CPython 3.11+",
)


def python(script: str, *args) -> list[str]:
    return [sys.executable, "-W", "always:This process:DeprecationWarning",
            "-c", textwrap.dedent(script), *map(str, args)]


def case_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_case(script: str, *args) -> dict:
    """Run ``script`` in a fresh interpreter; its last line is JSON."""
    proc = subprocess.run(python(script, *args), capture_output=True,
                          text=True, env=case_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert FORK_WARNING not in proc.stderr, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# A 2x2 grid at 2k on a fresh cache.  The slow baseline/nat cell pins
# which worker runs which cell, so every cell's trace source is fixed:
# one worker runs baseline/gzip (built), dlvp/gzip (memo) and dlvp/nat
# (cache, put by the other worker, which built nat before sleeping).
GRID = """
    import json, resource, sys, threading
    from multiprocessing import forkserver
    from repro.runtime import Runtime

    if sys.argv[1] == "thread":
        threading.Thread(target=threading.Event().wait, daemon=True).start()
    runtime = Runtime(jobs=2, cache_dir=sys.argv[2],
                      faults="slow@nat/baseline=0.5")
    grid = runtime.run_grid(["baseline", "dlvp"], ["gzip", "nat"], 2000)
    cells = {f"{s}/{w}": o for (s, w), o in grid.cells.items()}
    print(json.dumps({
        "forkserver": forkserver._forkserver._forkserver_pid is not None,
        "children_maxrss_kib":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "results": {k: o.result.to_dict() for k, o in cells.items()},
        "trace_sources": {k: o.trace_source for k, o in cells.items()},
        "trace_built": sum(e["event"] == "trace_built"
                           for e in runtime.journal.events),
    }))
"""

WORKER_KIB = 15 * 1024


@pytest.fixture(scope="module")
def grids(tmp_path_factory):
    root = tmp_path_factory.mktemp("pool-start")
    return {mode: run_case(GRID, mode, root / mode)
            for mode in ("alone", "thread")}


class TestStartMethod:
    def test_single_threaded_caller_forks_its_own_workers(self, grids):
        """No forkserver boots, and the workers are the caller's own
        children: once their pool is joined, ``RUSAGE_CHILDREN`` holds
        a worker's footprint (a forkserver's children stay invisible)."""
        alone = grids["alone"]
        assert not alone["forkserver"]
        assert alone["children_maxrss_kib"] > WORKER_KIB

    def test_a_second_thread_keeps_the_forkserver(self, grids):
        threaded = grids["thread"]
        assert threaded["forkserver"]
        assert threaded["children_maxrss_kib"] < WORKER_KIB

    def test_both_start_methods_give_one_answer(self, grids):
        alone, threaded = grids["alone"], grids["thread"]
        assert alone["results"] == threaded["results"]
        assert alone["trace_sources"] == threaded["trace_sources"] == {
            "baseline/gzip": "built", "baseline/nat": "built",
            "dlvp/gzip": "memo", "dlvp/nat": "cache",
        }
        assert alone["trace_built"] == threaded["trace_built"] == 2


SIGTERM_IN_WORKER = """
    import json, signal
    from repro.runtime.api import _sigterm_as_interrupt
    from repro.runtime.executor import _make_pool

    with _sigterm_as_interrupt():
        pool = _make_pool(1)
        future = pool.submit(signal.raise_signal, signal.SIGTERM)
        (worker,) = pool._processes.values()
        try:
            future.result(timeout=60)
            raised = None
        except BaseException as exc:
            raised = type(exc).__name__
        pool.shutdown()
        worker.join(timeout=10)
    print(json.dumps({"method": pool._mp_context.get_start_method(),
                      "raised": raised, "exitcode": worker.exitcode}))
"""

MEMO_THEN_POOL = """
    import json, sys
    from repro.runtime import ResultCache, Runtime, trace_cache_key

    Runtime(jobs=1, cache_dir=sys.argv[1]).run_grid(["baseline"], ["gzip"], 2000)
    runtime = Runtime(jobs=2, cache_dir=sys.argv[2])
    (outcome,) = runtime.run_grid(["dlvp"], ["gzip"], 2000).cells.values()
    trace = ResultCache(sys.argv[2]).get_trace_columnar(
        trace_cache_key("gzip", 2000))
    print(json.dumps({
        "trace_source": outcome.trace_source,
        "trace_built": sum(e["event"] == "trace_built"
                           for e in runtime.journal.events),
        "trace_cached": trace is not None,
    }))
"""


class TestForkedWorkerState:
    def test_sigterm_kills_a_worker_forked_inside_the_runtime_handler(self):
        """``Runtime`` turns SIGTERM into ``KeyboardInterrupt`` while it
        makes pools; a forked worker must not keep that handler, or a
        killed worker reads as the user's Ctrl-C."""
        out = run_case(SIGTERM_IN_WORKER)
        assert out["method"] == "fork"
        assert out["raised"] == "BrokenProcessPool"
        assert out["exitcode"] == -signal.SIGTERM

    def test_forked_workers_start_with_an_empty_trace_memo(self, tmp_path):
        """A serial cell leaves its trace in the caller's memo; a later
        pool on a fresh cache must still build, journal and cache it."""
        out = run_case(MEMO_THEN_POOL, tmp_path / "serial", tmp_path / "pool")
        assert out == {"trace_source": "built", "trace_built": 1,
                       "trace_cached": True}


RUNNER = """
    import sys
    from repro.runtime import Runtime

    Runtime(jobs=2, cache_dir=sys.argv[1], journal_path=sys.argv[2],
            faults="slow@*/*=0.5").run_grid(
        ["baseline", "dlvp", "cap", "vtage"], ["gzip", "nat"], 2000)
"""


def children(pid: int) -> set[int]:
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            status = Path(f"/proc/{entry}/status").read_text()
        except OSError:
            continue
        if f"\nPPid:\t{pid}\n" in status:
            found.add(int(entry))
    return found


def exited(pid: int) -> bool:
    """Gone, or a zombie: an orphan has exited once its new parent
    (init or a subreaper, which reaps on its own schedule) could reap it."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def wait_for(predicate, timeout: float):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise TimeoutError(f"condition not met within {timeout}s")


def test_sigkilled_runner_takes_its_forked_workers_with_it(tmp_path):
    """SIGKILL a single-threaded ``jobs=2`` runner mid-grid: its two
    workers are its own children (no forkserver, no resource tracker)
    and must be gone within 2 s."""
    journal = tmp_path / "run.jsonl"

    def settled() -> set[int]:
        if not journal.exists():
            return set()
        return {e["worker_pid"] for e in read_journal(journal, strict=False)
                if e["event"] == "job_finished"}

    proc = subprocess.Popen(python(RUNNER, tmp_path / "cache", journal),
                            env=case_env(), stderr=subprocess.DEVNULL)
    try:
        ran = wait_for(settled, timeout=60)
        workers = children(proc.pid)
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert len(workers) == 2 and ran <= workers, (ran, workers)
    wait_for(lambda: all(exited(pid) for pid in workers), timeout=2)

"""Memory-scaling smoke: a run's peak RSS grows with its trace, not more.

Runs ``Runtime(jobs=1).run_grid(["baseline", "dlvp"], ["perlbmk"], N)``
— the in-process grid a long trace takes — in fresh interpreters at a
short and a long ``N``, each with a fresh cache, and compares the rise
in peak RSS (``ru_maxrss``) with the rise in the trace's column bytes.
The trace has to be held, so its columns set the slope; anything the
run keeps per instruction besides them (commit history, a splice's
transient copy) adds to it.  Each ``N`` is run ``RUNS`` times and the
lowest peak kept: allocation-layout noise can only raise a high-water
mark.  Exits 1 when the RSS rise exceeds ``MAX_RATIO`` times the column
rise, or when the long trace holds more than ``MAX_BYTES_PER_ROW``
column bytes per row (verdicts included): the trace is what a long run
holds, so its row size sets the run's memory.

    PYTHONPATH=src python benchmarks/memory_scaling.py

Takes about 40 s on a 2-core host.
"""

from __future__ import annotations

import json
import subprocess
import sys

WORKLOAD = "perlbmk"
SCHEMES = ["baseline", "dlvp"]
SHORT, LONG = 100_000, 400_000
RUNS = 3
MAX_RATIO = 1.3
# One-byte counts and mem_size: perlbmk reads 48.4 (72.4 with 8-byte
# prefix indexes and a 4-byte mem_size).
MAX_BYTES_PER_ROW = 50

# Run in a fresh interpreter: ru_maxrss is a process high-water mark.
_CHILD = """
import json, sys, tempfile
from repro.bench import peak_rss_kib
from repro.runtime import Runtime
n = int(sys.argv[1])
with tempfile.TemporaryDirectory() as cache_dir:
    grid = Runtime(jobs=1, cache_dir=cache_dir).run_grid({schemes!r}, [{workload!r}], n)
    assert all(outcome.ok for outcome in grid.cells.values()), grid.cells
print(json.dumps({{"maxrss_kib": peak_rss_kib()}}))
""".format(schemes=SCHEMES, workload=WORKLOAD)


def peak_rss_mib(n: int) -> float:
    """Lowest peak RSS of ``RUNS`` in-process grids at ``n`` instructions, in MiB."""
    peaks = []
    for _ in range(RUNS):
        out = subprocess.run(
            [sys.executable, "-c", _CHILD, str(n)],
            check=True, capture_output=True, text=True,
        ).stdout
        peaks.append(json.loads(out.splitlines()[-1])["maxrss_kib"] / 1024)
    return min(peaks)


def column_bytes(n: int) -> tuple[int, int]:
    """(rows, bytes of the columns and verdicts) of the trace at ``n`` instructions."""
    from repro.trace.columnar import COLUMNS
    from repro.workloads import build_workload_columnar

    trace = build_workload_columnar(WORKLOAD, n)
    total = sum(memoryview(getattr(trace, attr)).nbytes for attr, _ in COLUMNS)
    return len(trace), total + memoryview(trace.verdicts).nbytes


def main() -> int:
    rss = {n: peak_rss_mib(n) for n in (SHORT, LONG)}
    sizes = {n: column_bytes(n) for n in (SHORT, LONG)}
    cols = {n: nbytes / 2**20 for n, (_, nbytes) in sizes.items()}
    rss_rise = rss[LONG] - rss[SHORT]
    col_rise = cols[LONG] - cols[SHORT]
    ratio = rss_rise / col_rise
    rows, nbytes = sizes[LONG]
    per_row = nbytes / rows
    for n in (SHORT, LONG):
        print(f"{WORKLOAD} x {n:>9,}: peak RSS {rss[n]:7.1f} MiB (lowest of {RUNS}), "
              f"trace columns {cols[n]:6.1f} MiB")
    print(f"RSS rise {rss_rise:.1f} MiB / column rise {col_rise:.1f} MiB "
          f"= {ratio:.2f} (limit {MAX_RATIO})")
    print(f"trace columns {per_row:.1f} bytes per row (limit {MAX_BYTES_PER_ROW})")
    failed = 0
    if ratio > MAX_RATIO:
        print("FAIL: the run keeps more than its trace per instruction")
        failed = 1
    if per_row > MAX_BYTES_PER_ROW:
        print("FAIL: the trace holds more column bytes per row than its layout needs")
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())

"""Memory-scaling smoke: a run's peak RSS grows with its trace, not more.

Two checks.  The first runs
``Runtime(jobs=1).run_grid(["baseline", "dlvp"], ["perlbmk"], N)``
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

The second runs ``python -m repro figure 4 --no-cache --instructions
40000`` over ``FIGURE_ONE``, then over ``FIGURE_MANY`` (eight workloads,
``FIGURE_ONE`` the one with the largest peak among them), lowest peak
of ``RUNS`` fresh interpreters each.  A trace-only figure reads one
workload's trace at a time, so eight workloads peak where their largest
one does; it exits 1 when the eight-workload peak exceeds the
one-workload peak by more than ``MAX_FIGURE_RATIO`` times.  A figure
that keeps every workload's trace (as the whole-suite object cache once
did) reads about 3.

    PYTHONPATH=src python benchmarks/memory_scaling.py

Takes about 90 s on a 2-core host.
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
# Each value column at the narrowest width its values need: perlbmk
# reads 27.1 (48.4 with fixed 8-byte addresses and values and 4-byte
# register ids, 72.4 with 8-byte prefix indexes besides).
MAX_BYTES_PER_ROW = 30
FIGURE_INSTRUCTIONS = 40_000
# h264ref's Figure 4 run peaks highest of the eight at 40k.
FIGURE_ONE = "h264ref"
FIGURE_MANY = ["h264ref", "perlbmk", "perlbench", "nat", "gzip", "bzip2",
               "aifirf", "mcf"]
MAX_FIGURE_RATIO = 1.25

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

# ``python -m repro figure 4`` in a fresh interpreter, its table dropped.
_FIGURE_CHILD = """
import contextlib, io, json, sys
from repro.__main__ import main
from repro.bench import peak_rss_kib
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["figure", "4", "--no-cache", "--instructions", sys.argv[1],
               "--workloads", *sys.argv[2:]])
assert rc == 0, rc
print(json.dumps({"maxrss_kib": peak_rss_kib()}))
"""


def lowest_peak_mib(child: str, *args) -> float:
    """Lowest peak RSS of ``RUNS`` fresh interpreters running ``child``, in MiB."""
    peaks = []
    for _ in range(RUNS):
        out = subprocess.run(
            [sys.executable, "-c", child, *map(str, args)],
            check=True, capture_output=True, text=True,
        ).stdout
        peaks.append(json.loads(out.splitlines()[-1])["maxrss_kib"] / 1024)
    return min(peaks)


def peak_rss_mib(n: int) -> float:
    """Lowest peak RSS of ``RUNS`` in-process grids at ``n`` instructions, in MiB."""
    return lowest_peak_mib(_CHILD, n)


def figure_peak_mib(workloads: list[str]) -> float:
    """Lowest peak RSS of ``RUNS`` Figure 4 runs over ``workloads``, in MiB."""
    return lowest_peak_mib(_FIGURE_CHILD, FIGURE_INSTRUCTIONS, *workloads)


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

    one = figure_peak_mib([FIGURE_ONE])
    many = figure_peak_mib(FIGURE_MANY)
    figure_ratio = many / one
    print(f"figure 4 x {FIGURE_INSTRUCTIONS:,}: peak RSS {one:.1f} MiB over "
          f"{FIGURE_ONE}, {many:.1f} MiB over {len(FIGURE_MANY)} workloads "
          f"(lowest of {RUNS}) = {figure_ratio:.2f} (limit {MAX_FIGURE_RATIO})")
    if figure_ratio > MAX_FIGURE_RATIO:
        print("FAIL: the figure holds more than one workload's trace at a time")
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())

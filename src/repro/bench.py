"""Simulator performance benchmarks — ``python -m repro bench ...``.

Two benches, one report file:

* ``bench throughput`` measures how many *simulated* instructions per
  second ``simulate()`` sustains for each registered scheme on one
  columnar workload trace (the loop every run takes; an object
  ``Trace`` would only add a ``from_trace`` conversion to it).
* ``bench sweep`` measures end-to-end multi-scheme grid wall-clock
  through the :class:`~repro.runtime.Runtime`, fabric off (stock
  per-cell dispatch) versus fabric on (``trace_format="shared"``:
  generate each trace once, publish to shared memory, dispatch cells
  grouped by trace) — asserting along the way that both modes produce
  bit-identical per-cell results.

Numbers land in a ``BENCH_*.json`` report (inst/s per scheme in its
``columnar_schemes`` section, sweep wall-clock per fabric mode, wall
time, peak RSS of this process and its workers) so the simulator's own
performance trajectory is tracked in the repository alongside its
accuracy.

The committed report doubles as a regression baseline:
``--check BENCH_pr15.json`` re-measures and fails when any scheme's
(or sweep mode's) best inst/s falls more than ``--max-regression``
below the committed number.  The object-engine ``schemes`` section
older reports carry is warned about and skipped: that loop is gone.
The gate is **coherent by construction**: the default here, the CI
invocation and this docstring all say the same 20% — best-of-N absorbs
scheduler noise (which only ever slows a run down), and the remaining
machine-to-machine variance on the hosted runners measures well under
that margin at ``--repeats 5``.

Simulated *outcomes* are deliberately out of scope here: bit-identical
``SimResult``\\ s are locked by ``tests/test_golden_simresults.py``
(object, columnar and shared traces alike), so this module only has to
care about speed.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Sequence

BENCH_REPORT_NAME = "BENCH_pr15.json"
DEFAULT_WORKLOAD = "gzip"
DEFAULT_INSTRUCTIONS = 24_000
DEFAULT_REPEATS = 3
# One number, used everywhere: the default for --max-regression AND the
# value CI passes explicitly.  Keep the docstring above in sync.
DEFAULT_MAX_REGRESSION = 0.20
# Every registered scheme id, cheapest first; ``tournament`` runs two
# sub-predictors per load and dominates the wall time.
DEFAULT_SCHEMES = ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament")
DEFAULT_SWEEP_WORKLOADS = ("gzip", "perlbmk", "nat")
# Large enough that per-process cold-start noise (allocator, bytecode
# warm-up) stops dominating the per-cell numbers; the measured fabric
# speedup climbs with instruction count and is near its asymptote here.
DEFAULT_SWEEP_INSTRUCTIONS = 40_000

# The report section of the per-scheme throughput cells, and the
# object-engine section older reports also carry.
_SECTION = "columnar_schemes"
_RETIRED_SECTION = "schemes"


def peak_rss_kib() -> int:
    """Peak resident set size of this process, in KiB.

    ``ru_maxrss`` is KiB on Linux but bytes on macOS; normalise so the
    JSON report is comparable across both.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return rss


def child_peak_rss_kib() -> int:
    """Peak RSS over all reaped child processes of this process, KiB.

    ``RUSAGE_CHILDREN`` reports the *maximum* across terminated
    children that were waited for, so for the sweep bench (whose
    simulation happens in pool workers) this is the worker-side memory
    headline that :func:`peak_rss_kib` — parent-only — cannot see, but
    only where the workers were forked from this process (one thread at
    pool creation), once their pool is joined.  Workers started from a
    forkserver are the forkserver's children and stay invisible, as
    ``bench/README.md`` notes.  Zero when no child has been reaped yet.
    """
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return rss


def measure_scheme(trace, scheme_id: str, repeats: int = DEFAULT_REPEATS) -> dict:
    """Time ``simulate(trace, scheme)`` ``repeats`` times; report best.

    A fresh scheme instance is built per repeat so no predictor state
    leaks between rounds; best-of-N is reported as the headline inst/s
    because scheduler noise only ever slows a run down.
    """
    from repro.pipeline.core_model import simulate
    from repro.runtime.registry import get_scheme

    spec = get_scheme(scheme_id)
    n = len(trace)
    rates = []
    wall = 0.0
    for _ in range(max(1, repeats)):
        scheme = spec.build()
        start = time.perf_counter()
        simulate(trace, scheme)
        elapsed = time.perf_counter() - start
        wall += elapsed
        rates.append(n / elapsed)
    return {
        "inst_per_s": round(max(rates)),
        "inst_per_s_mean": round(sum(rates) / len(rates)),
        "wall_s": round(wall, 3),
        "repeats": len(rates),
    }


def run_throughput(
    workload: str = DEFAULT_WORKLOAD,
    instructions: int = DEFAULT_INSTRUCTIONS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    repeats: int = DEFAULT_REPEATS,
    progress=None,
) -> dict:
    """Run the full throughput bench; returns the JSON-safe report.

    Every scheme is timed on the same columnar trace; the cells fill
    the report's ``"columnar_schemes"`` section.
    """
    from repro.workloads import build_workload_columnar

    t0 = time.perf_counter()
    trace = build_workload_columnar(workload, instructions)
    trace_s = time.perf_counter() - t0
    report = {
        "bench": "throughput",
        "workload": workload,
        "instructions": instructions,
        "trace_length": len(trace),
        "trace_build_s": round(trace_s, 3),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    results = {}
    for scheme_id in schemes:
        results[scheme_id] = measure_scheme(trace, scheme_id, repeats)
        if progress is not None:
            progress(scheme_id, results[scheme_id])
    report[_SECTION] = results
    report["wall_s"] = round(time.perf_counter() - t0, 3)
    report["peak_rss_kib"] = peak_rss_kib()
    report["children_peak_rss_kib"] = child_peak_rss_kib()
    return report


def run_sweep(
    workloads: Sequence[str] = DEFAULT_SWEEP_WORKLOADS,
    schemes: Sequence[str] = DEFAULT_SCHEMES,
    instructions: int = DEFAULT_SWEEP_INSTRUCTIONS,
    jobs: int = 1,
    progress=None,
) -> dict:
    """End-to-end grid wall-clock, trace fabric off vs on.

    Runs the same (scheme x workload) grid twice through
    :class:`~repro.runtime.Runtime`, each against a fresh temporary
    cache so neither mode inherits the other's traces or results:

    * ``fabric_off`` — stock defaults: the columnar engine, one worker
      dispatch per cell, every cell paying its own trace acquisition.
    * ``fabric_on`` — ``trace_format="shared"``: each distinct trace is
      generated once in the parent, published to shared memory, and the
      grid is dispatched in trace groups.

    The two grids must settle **bit-identical** per-cell results —
    a mismatch raises, because it would mean the fabric changed
    simulation outcomes, which no amount of speedup excuses.  The
    returned report's ``"sweep"`` section carries per-mode wall-clock
    and end-to-end inst/s (= cells x instructions / wall) plus their
    ratio as ``speedup``.
    """
    import tempfile

    from repro.runtime import Runtime

    workloads = list(workloads)
    schemes = list(schemes)
    cells = len(schemes) * len(workloads)
    t0 = time.perf_counter()
    modes: dict[str, dict] = {}
    results: dict[str, dict] = {}
    for mode, trace_format in (("fabric_off", "columnar"),
                               ("fabric_on", "shared")):
        with tempfile.TemporaryDirectory(
            prefix=f"repro-sweep-{mode}-"
        ) as cache_dir:
            runtime = Runtime(jobs=jobs, cache_dir=cache_dir,
                              trace_format=trace_format)
            start = time.perf_counter()
            grid = runtime.run_grid(schemes, workloads, instructions)
            wall = time.perf_counter() - start
        failures = grid.failures()
        if failures:
            first = failures[0]
            raise RuntimeError(
                f"sweep {mode}: {len(failures)} cell(s) failed, e.g. "
                f"{first.job.scheme_id}/{first.job.workload}: {first.error}"
            )
        results[mode] = {
            f"{scheme}/{workload}": grid.result(scheme, workload).to_dict()
            for scheme in schemes
            for workload in workloads
        }
        modes[mode] = {
            "engine": trace_format,
            "wall_s": round(wall, 3),
            "inst_per_s": round(cells * instructions / wall),
        }
        if progress is not None:
            progress(f"sweep/{mode}", modes[mode])
    if results["fabric_off"] != results["fabric_on"]:
        differing = sorted(
            cell for cell in results["fabric_off"]
            if results["fabric_off"][cell] != results["fabric_on"].get(cell)
        )
        raise RuntimeError(
            "sweep results differ between fabric modes — the fabric must "
            f"never change outcomes (differing cells: {differing})"
        )
    return {
        "bench": "sweep",
        "workloads": workloads,
        "schemes": schemes,
        "instructions": instructions,
        "cells": cells,
        "jobs": jobs,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "sweep": {
            "fabric_off": modes["fabric_off"],
            "fabric_on": modes["fabric_on"],
            "speedup": round(
                modes["fabric_off"]["wall_s"] / modes["fabric_on"]["wall_s"],
                3,
            ),
            "identical_results": True,
        },
        "wall_s": round(time.perf_counter() - t0, 3),
        "peak_rss_kib": peak_rss_kib(),
        "children_peak_rss_kib": child_peak_rss_kib(),
    }


def write_report(report: dict, path: str | Path) -> Path:
    """Write a bench report as stable (sorted-key) JSON; returns path."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    """Read back a report written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


def _usable_rate(entry) -> float | None:
    """Best-of-N inst/s of a report cell, or None when malformed."""
    if not isinstance(entry, dict):
        return None
    rate = entry.get("inst_per_s")
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        return None
    return rate


def check_regression(
    current: dict,
    committed: dict,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    warnings: list[str] | None = None,
) -> list[str]:
    """Compare a fresh report against a committed one.

    Returns a list of human-readable failures — empty means every
    scheme present in both reports' ``columnar_schemes`` sections is
    within ``max_regression`` of its committed best-of-N inst/s.

    Mismatches between the two reports are *warned and skipped*, never
    failed: cells present on only one side (adding a scheme must not
    break CI retroactively), a section missing from either report,
    entries without a usable ``inst_per_s`` number (a malformed cell is
    a report problem, not a performance regression), and the retired
    object-engine ``schemes`` section of older reports.  Pass a list as
    ``warnings`` to collect one message per skipped mismatch; the CLI
    prints them.

    The same gate covers the ``"sweep"`` section's two fabric modes
    (end-to-end inst/s), with the same warn-and-skip treatment for
    reports that predate — or lack — the sweep bench.
    """
    failures = []
    warn = warnings.append if warnings is not None else (lambda _msg: None)
    for side, report in (("committed", committed), ("fresh", current)):
        # sweep-only reports carry a "schemes" *list* (the grid config),
        # not a per-scheme throughput mapping
        if isinstance(report.get(_RETIRED_SECTION), dict):
            warn(f"object: {side} report has an object-engine "
                 f"{_RETIRED_SECTION!r} section; that loop is gone, skipping")
    current_schemes = current.get(_SECTION)
    if not isinstance(current_schemes, dict):
        current_schemes = None
    committed_schemes = committed.get(_SECTION)
    if not isinstance(committed_schemes, dict):
        committed_schemes = None
    if current_schemes and not committed_schemes:
        warn(f"columnar: committed report has no {_SECTION!r} section; "
             f"skipping")
    if committed_schemes and not current_schemes:
        warn(f"columnar: fresh report has no {_SECTION!r} section; "
             f"nothing to compare")
    current_schemes = current_schemes or {}
    committed_schemes = committed_schemes or {}
    for scheme_id in committed_schemes:
        if scheme_id not in current_schemes and current_schemes:
            warn(f"columnar/{scheme_id}: in the committed report only; "
                 f"skipping")
    for scheme_id, entry in current_schemes.items():
        base = committed_schemes.get(scheme_id)
        if base is None:
            if committed_schemes:
                warn(f"columnar/{scheme_id}: not in the committed "
                     f"report; skipping")
            continue
        baseline_rate = _usable_rate(base)
        if baseline_rate is None or baseline_rate <= 0:
            warn(f"columnar/{scheme_id}: committed entry has no usable "
                 f"inst_per_s; skipping")
            continue
        rate = _usable_rate(entry)
        if rate is None:
            warn(f"columnar/{scheme_id}: fresh entry has no usable "
                 f"inst_per_s; skipping")
            continue
        floor = baseline_rate * (1.0 - max_regression)
        if rate < floor:
            failures.append(
                f"columnar/{scheme_id}: {rate:.0f} inst/s is "
                f"{1 - rate / baseline_rate:.0%} below the committed "
                f"{baseline_rate:.0f} inst/s (allowed: {max_regression:.0%})"
            )
    current_sweep = current.get("sweep")
    committed_sweep = committed.get("sweep")
    if current_sweep and not isinstance(committed_sweep, dict):
        warn("sweep: committed report has no 'sweep' section; skipping")
        committed_sweep = {}
    if committed_sweep and not isinstance(current_sweep, dict):
        warn("sweep: fresh report has no 'sweep' section; nothing to compare")
        current_sweep = {}
    current_sweep = current_sweep if isinstance(current_sweep, dict) else {}
    committed_sweep = (
        committed_sweep if isinstance(committed_sweep, dict) else {}
    )
    for mode in ("fabric_off", "fabric_on"):
        base = committed_sweep.get(mode)
        if base is None:
            if mode in current_sweep and committed_sweep:
                warn(f"sweep/{mode}: not in the committed report; skipping")
            continue
        baseline_rate = _usable_rate(base)
        if baseline_rate is None or baseline_rate <= 0:
            warn(f"sweep/{mode}: committed entry has no usable inst_per_s; "
                 f"skipping")
            continue
        if mode not in current_sweep:
            if current_sweep:
                warn(f"sweep/{mode}: in the committed report only; skipping")
            continue
        rate = _usable_rate(current_sweep.get(mode))
        if rate is None:
            warn(f"sweep/{mode}: fresh entry has no usable inst_per_s; "
                 f"skipping")
            continue
        floor = baseline_rate * (1.0 - max_regression)
        if rate < floor:
            failures.append(
                f"sweep/{mode}: {rate:.0f} inst/s is "
                f"{1 - rate / baseline_rate:.0%} below the committed "
                f"{baseline_rate:.0f} inst/s (allowed: {max_regression:.0%})"
            )
    return failures

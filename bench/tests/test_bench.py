"""Tests of the benchmark itself (run with ``python -m pytest bench/tests``).

They drive ``bench/run.py`` as its users do, at ``--smoke`` scale, and
check the contract ``BENCHMARK.json`` states: every metric printed with
its unit, failures counted and reflected in the exit status, seeds
deterministic, and no result without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import plan  # noqa: E402


def run_bench(*args: str, env: dict | None = None, cwd: Path = ROOT):
    """Run the benchmark command; returns (exit status, stdout lines)."""
    proc = subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True,
        timeout=170, env={**os.environ, **(env or {})},
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def summary(lines: list[str]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def smoke(workload: str, *extra: str, env: dict | None = None):
    """One round at smoke scale (``--seconds 0``), whatever the host speed."""
    return run_bench("--workload", workload, "--seed", "0", "--seconds", "0",
                     "--smoke", *extra, env=env)


def test_smoke_prints_every_end_to_end_metric_on_all_workloads():
    started = time.monotonic()
    for workload in WORKLOADS:
        status, lines, err = smoke(workload, "--trace", "0")
        assert status == 0, err
        result = summary(lines)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0, (workload, metric["name"])
            # and the human-readable report names it with its unit
            assert any(line.split()[:1] == [metric["name"]]
                       and line.split()[-1] == metric["unit"]
                       for line in lines), metric["name"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert time.monotonic() - started < 60


# Per-layer metrics that read 0 on every workload at smoke scale: no
# columnar conversion or trace fabric on the default path, no trace
# memo or shared-trace hits, and (when all is well) no unobserved layer.
IDLE_AT_SMOKE = {
    "trace.to_columnar_s", "trace.share.publish_s", "trace.share.attach_s",
    "runtime.jobs.trace_source.memo", "runtime.jobs.trace_source.shared",
    "bench.trace.unobserved",
}


def test_traced_smoke_computes_every_per_layer_metric():
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    observed = set()
    # grid-cold runs every scheme, farm-mixed every serve.* layer
    for workload in ("grid-cold", "farm-mixed"):
        status, lines, err = smoke(workload, "--trace", "1")
        assert status == 0, err
        result = summary(lines)
        assert result["correct"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == names
        assert result["metrics"]["bench.trace.unobserved"]["value"] == 0
        assert not any("UNOBSERVED" in line for line in lines)
        observed |= {n for n, m in result["metrics"].items() if m["value"]}
    # a name in BENCHMARK.json that nothing computes would read 0 forever
    assert observed == set(names) - IDLE_AT_SMOKE


def test_fault_on_every_attempt_fails_one_cell_and_the_run():
    status, lines, _ = smoke("grid-cold",
                             env={"REPRO_FAULT_SPEC": "raise@gzip/dlvp"})
    result = summary(lines)
    assert status != 0
    assert (result["failed"], result["attempted"]) == (1, 36)  # 1/cells
    assert not result["correct"]


def test_fault_on_first_attempt_is_retried():
    status, lines, err = smoke("grid-cold",
                               env={"REPRO_FAULT_SPEC": "raise@gzip/dlvp:1"})
    assert status == 0, err
    result = summary(lines)
    assert result["failed"] == 0 and result["correct"]
    attempts = next(float(line.split()[1]) for line in lines
                    if line.split()[:1] == ["attempts_per_cell"])
    assert attempts > 1


def test_seed_zero_gives_the_documented_lists():
    grid = plan.make_plan("grid-cold", 0)
    assert grid.schemes == ("baseline", "dlvp", "cap", "vtage", "dvtage",
                            "tournament")
    assert grid.workloads == ("gzip", "perlbmk", "nat", "mcf", "aifirf",
                              "avmshell")
    assert (grid.n, grid.jobs, grid.recovery) == (20_000, 2, "flush")
    long = plan.make_plan("long-trace", 0)
    assert (long.schemes, long.workloads, long.n, long.jobs) == (
        ("baseline", "dlvp"), ("perlbmk",), 500_000, 1)
    conflict = plan.make_plan("conflict-replay", 0)
    assert conflict.schemes == ("baseline", "dlvp", "vtage", "tournament")
    assert conflict.workloads == ("storeflood", "storeflood_lite", "perlbmk",
                                  "avmshell")
    assert (conflict.n, conflict.recovery) == (60_000, "oracle_replay")
    farm = plan.make_plan("farm-mixed", 0)
    assert len(farm.grids) == 16 and farm.n == 12_000
    assert farm.grids[0] == {"alice": ("gzip", "gobmk"),
                             "bob": ("gzip", "aifirf")}
    assert farm.grids[2] == {"alice": ("gcc", "sjeng", "gobmk"),
                             "bob": ("gcc", "basefp", "aifirf")}
    assert farm.cells_per_round() == 276


def test_nonzero_seed_is_deterministic_and_draws_from_the_pools():
    for name in WORKLOADS:
        assert plan.make_plan(name, 7) == plan.make_plan(name, 7)
    draws = {plan.make_plan("grid-cold", s).workloads for s in range(1, 9)}
    assert len(draws) > 1
    for workloads in draws:
        for slot, pool in zip(workloads, plan.GRID_COLD_POOLS):
            assert slot in pool
    farm = plan.make_plan("farm-mixed", 5)
    names = {w for grid in farm.grids for ws in grid.values() for w in ws}
    assert names == set(plan.FARM_POOL)
    assert farm.grids != plan.make_plan("farm-mixed", 0).grids
    assert farm.cells_per_round() == 276


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    status, lines, _ = run_bench("--workload", WORKLOADS[0], "--seed", "0",
                                 "--seconds", "1", "--trace", "0",
                                 cwd=tmp_path)
    assert status != 0
    assert not any(line.startswith("{") for line in lines)

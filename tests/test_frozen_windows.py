"""Frozen references for non-default instruction windows.

The golden suite and the other frozen files run the default core
(Table 4: a 224-entry ROB, 72-entry LDQ, 56-entry STQ).  The simulate
loop keeps its commit state only as far back as those windows reach,
so a loop that sized its state from the *default* ROB, or read an LDQ
or STQ entry off by one, would still pass every one of them.  This
suite freezes ``SimResult.to_dict()`` with each window shrunk or grown
on its own — ROB 16, 224 and 600, LDQ 4 and STQ 8 — for the baseline,
DLVP and the tournament under both recovery models, on the workloads
whose stalls and store traffic those windows shape:

* storeflood — loads that conflict with in-flight stores, so stores
  retire while younger loads wait on them;
* perlbmk — long load-use chains and branch redirects;
* eon — vector and multi-register loads.

6,500 instructions span four 2,048-instruction snapshot windows of the
loop, so window state is carried across column snapshots.  A run with
a :class:`repro.observe.RunRecord` keeps its whole commit history for
the record; each window is also run traced and must give the untraced
result.

Only regenerate after a *deliberate* model change::

    PYTHONPATH=src python tests/test_frozen_windows.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.observe import RunRecord
from repro.pipeline import CoreConfig, RecoveryMode, simulate
from repro.runtime.registry import get_scheme
from repro.workloads import build_workload_columnar

FROZEN_PATH = Path(__file__).parent / "frozen_windows.json"
INSTRUCTIONS = 6_500
WORKLOADS = ("storeflood", "perlbmk", "eon")
SCHEMES = ("baseline", "dlvp", "tournament")
RECOVERIES = (RecoveryMode.FLUSH, RecoveryMode.ORACLE_REPLAY)
WINDOWS = {
    "rob16": CoreConfig(rob_entries=16),
    "rob224": CoreConfig(rob_entries=224),
    "rob600": CoreConfig(rob_entries=600),
    "ldq4": CoreConfig(ldq_entries=4),
    "stq8": CoreConfig(stq_entries=8),
}

_TRACES: dict[str, object] = {}


def _trace(workload: str):
    trace = _TRACES.get(workload)
    if trace is None:
        trace = _TRACES[workload] = build_workload_columnar(workload, INSTRUCTIONS)
    return trace


def simulate_cell(
    workload: str, window: str, scheme: str, recovery: RecoveryMode,
    record: RunRecord | None = None,
) -> dict:
    return simulate(
        _trace(workload), get_scheme(scheme).build(),
        core_config=WINDOWS[window], recovery=recovery, record=record,
    ).to_dict()


def _cells() -> list[tuple[str, str, str, RecoveryMode]]:
    return [
        (workload, window, scheme, recovery)
        for workload in WORKLOADS
        for window in WINDOWS
        for scheme in SCHEMES
        for recovery in RECOVERIES
    ]


def _key(workload: str, window: str, scheme: str, recovery: RecoveryMode) -> str:
    return f"{workload}/{window}/{scheme}/{recovery.value}"


@pytest.fixture(scope="module")
def frozen() -> dict:
    assert FROZEN_PATH.exists(), (
        f"{FROZEN_PATH} missing — regenerate with "
        f"`python {Path(__file__).name} --regen`"
    )
    return json.loads(FROZEN_PATH.read_text())


def test_frozen_covers_every_cell(frozen):
    assert frozen["instructions"] == INSTRUCTIONS
    assert set(frozen["cells"]) == {_key(*cell) for cell in _cells()}


def test_windows_shape_the_run(frozen):
    """Each window moves some cell's cycles away from the default's, so
    the frozen cells can tell a window that is ignored."""
    cells = frozen["cells"]
    for window in ("rob16", "rob600", "ldq4", "stq8"):
        assert any(
            cells[_key(w, window, s, r)]["cycles"]
            != cells[_key(w, "rob224", s, r)]["cycles"]
            for w, _, s, r in _cells()
        ), window


@pytest.mark.parametrize(
    "workload,window,scheme,recovery", _cells(),
    ids=[_key(*cell) for cell in _cells()],
)
def test_simresult_matches_frozen(frozen, workload, window, scheme, recovery):
    expected = frozen["cells"][_key(workload, window, scheme, recovery)]
    assert simulate_cell(workload, window, scheme, recovery) == expected


@pytest.mark.parametrize("window", sorted(WINDOWS))
def test_traced_run_matches_frozen(frozen, window):
    """A recorded run keeps every commit cycle, an untraced one only the
    window's; both give the frozen result."""
    cell = ("storeflood", window, "dlvp", RecoveryMode.FLUSH)
    record = RunRecord(interval=1_000)
    traced = simulate_cell(*cell, record=record)
    intervals = traced["intervals"]
    traced["intervals"] = None
    assert traced == frozen["cells"][_key(*cell)]
    n = traced["instructions"]
    assert len(intervals) == -(-n // 1_000)
    cycles = record.commit_cycles
    assert cycles[n - 1] == traced["cycles"]
    assert all(0 < a <= b for a, b in zip(cycles, cycles[1:n]))


def _regen() -> None:
    cells = {}
    for cell in _cells():
        cells[_key(*cell)] = simulate_cell(*cell)
        print(f"  {_key(*cell)}")
    FROZEN_PATH.write_text(json.dumps(
        {"instructions": INSTRUCTIONS, "cells": cells},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {FROZEN_PATH} ({len(cells)} cells)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)

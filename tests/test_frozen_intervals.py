"""Frozen interval rows of traced runs.

``run_traced`` derives its interval rows (coverage, accuracy, probes,
recoveries per N committed instructions) from what the simulate loop
records.  This suite pins those rows, plus a digest of the rest of the
traced ``SimResult``, for every scheme under both recovery models on
cells whose window ends fall on, between and off the loop's own
2,048-instruction snapshot windows:

* aifirf, storeflood, perlbmk and eon at 9,000 instructions, interval
  1,000;
* aifirf at 24,000 instructions, interval 10,000 (a short last row);
* gzip at 30,000 instructions, interval 7,000 (7,000 does not divide
  the snapshot window).

The rows were frozen from the hook-based tracer the record replaced.

Only regenerate after a *deliberate* model change::

    PYTHONPATH=src python tests/test_frozen_intervals.py --regen
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.observe import run_traced
from repro.pipeline import RecoveryMode
from repro.runtime.registry import get_scheme
from repro.workloads import build_workload_columnar

FROZEN_PATH = Path(__file__).parent / "frozen_intervals.json"
SCHEMES = ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament")
RECOVERIES = (RecoveryMode.FLUSH, RecoveryMode.ORACLE_REPLAY)
# (workload, instructions, interval)
RUNS = (
    ("aifirf", 9_000, 1_000),
    ("storeflood", 9_000, 1_000),
    ("perlbmk", 9_000, 1_000),
    ("eon", 9_000, 1_000),
    ("aifirf", 24_000, 10_000),
    ("gzip", 30_000, 7_000),
)

_TRACES: dict[tuple[str, int], object] = {}


def _trace(workload: str, instructions: int):
    key = (workload, instructions)
    trace = _TRACES.get(key)
    if trace is None:
        trace = _TRACES[key] = build_workload_columnar(workload, instructions)
    return trace


def _cells() -> list[tuple]:
    return [
        (workload, instructions, interval, scheme, recovery)
        for workload, instructions, interval in RUNS
        for scheme in SCHEMES
        for recovery in RECOVERIES
    ]


def _key(workload, instructions, interval, scheme, recovery) -> str:
    return f"{workload}/{instructions}/{interval}/{scheme}/{recovery.value}"


def traced_cell(workload, instructions, interval, scheme, recovery) -> dict:
    """The interval rows of one traced run, and a digest of the rest of
    its ``SimResult``."""
    run = run_traced(
        _trace(workload, instructions), get_scheme(scheme).build(),
        recovery=recovery, interval=interval,
    )
    result = run.result.to_dict()
    rows = result.pop("intervals")
    digest = hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()
    ).hexdigest()
    return {"intervals": rows, "result_sha256": digest}


@pytest.fixture(scope="module")
def frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text())


def test_frozen_covers_every_cell(frozen):
    assert set(frozen["cells"]) == {_key(*cell) for cell in _cells()}


@pytest.mark.parametrize(
    "workload,instructions,interval,scheme,recovery", _cells(),
    ids=[_key(*cell) for cell in _cells()],
)
def test_interval_rows_match_frozen(
    frozen, workload, instructions, interval, scheme, recovery
):
    expected = frozen["cells"][
        _key(workload, instructions, interval, scheme, recovery)
    ]
    assert traced_cell(
        workload, instructions, interval, scheme, recovery
    ) == expected


def _regen() -> None:
    cells = {}
    for cell in _cells():
        cells[_key(*cell)] = traced_cell(*cell)
        print(f"  {_key(*cell)}")
    FROZEN_PATH.write_text(json.dumps(
        {"cells": cells}, indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {FROZEN_PATH} ({len(cells)} cells)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)

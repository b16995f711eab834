"""Frozen per-column digests of every registered workload's trace.

The goldens simulate one workload per kernel at 3,000 instructions.
This file pins what the workload builder emits for *every* registered
workload, at 3,000 instructions and at 10,000: the longer builds cross
the builder's 8,192-row chunk and several 2,500-row cold-burst
spacings.  Each cell stores the sha256 of every column's little-endian
bytes (``repro.trace.columnar.COLUMNS``), so a change to any generated
field of any row shows up here, named by workload, length and column.

The digests were recorded from the ``Instruction``-per-row builder that
the column builder replaced.  Regenerate only after a deliberate change
to a workload generator::

    PYTHONPATH=src python tests/test_frozen_traces.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.trace.columnar import COLUMNS
from repro.workloads import SUITE, build_workload_columnar

FROZEN_PATH = Path(__file__).parent / "frozen_traces.json"
LENGTHS = (3_000, 10_000)


def column_digests(trace) -> dict[str, str]:
    """sha256 of every column, over its little-endian bytes."""
    out = {}
    for attr, _ in COLUMNS:
        col = getattr(trace, attr)
        if sys.byteorder != "little":
            col = col[:]
            col.byteswap()
        out[attr] = hashlib.sha256(col.tobytes()).hexdigest()
    return out


def _cells() -> list[tuple[str, int]]:
    return [(name, n) for name in sorted(SUITE) for n in LENGTHS]


@pytest.fixture(scope="module")
def frozen() -> dict:
    assert FROZEN_PATH.exists(), (
        f"{FROZEN_PATH} missing — regenerate with "
        f"`python {Path(__file__).name} --regen`"
    )
    return json.loads(FROZEN_PATH.read_text())


def test_frozen_traces_cover_every_workload(frozen):
    assert set(frozen["cells"]) == {f"{w}/{n}" for w, n in _cells()}


@pytest.mark.parametrize("workload,n", _cells(), ids=lambda v: str(v))
def test_builder_reproduces_frozen_columns(frozen, workload, n):
    trace = build_workload_columnar(workload, n)
    expected = frozen["cells"][f"{workload}/{n}"]
    assert len(trace) == expected["rows"]
    got = column_digests(trace)
    changed = [attr for attr, _ in COLUMNS if got[attr] != expected[attr]]
    assert not changed, f"{workload}/{n}: columns changed: {changed}"


def _regen() -> None:
    cells = {}
    for workload, n in _cells():
        trace = build_workload_columnar(workload, n)
        cells[f"{workload}/{n}"] = {"rows": len(trace), **column_digests(trace)}
    FROZEN_PATH.write_text(json.dumps(
        {"lengths": list(LENGTHS), "cells": cells}, indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {FROZEN_PATH} ({len(cells)} cells)")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)

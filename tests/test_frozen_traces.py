"""Frozen per-column digests of every registered workload's trace.

The goldens simulate one workload per kernel at 3,000 instructions.
This file pins what the workload builder emits for *every* registered
workload, at 3,000 instructions and at 10,000: the longer builds cross
several of the builder's 2,048-row packs and several 2,500-row
cold-burst spacings.  Each cell stores the sha256 of every column's
little-endian bytes, so a change to any generated field of any row
shows up here, named by workload, length and column.

The digests were recorded from the ``Instruction``-per-row builder that
the column builder replaced, in the column layout of that time
(:data:`LEGACY_COLUMNS`): each ragged field as an 8-byte prefix index
from 0 rather than a one-byte count per row, and ``mem_size`` as four
bytes.  :func:`column_digests` rebuilds those columns from the current
ones before hashing, so the frozen file stays as it was recorded.
Regenerate only after a deliberate change to a workload generator::

    PYTHONPATH=src python tests/test_frozen_traces.py --regen
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from itertools import accumulate
from pathlib import Path

import pytest

from repro.workloads import SUITE, build_workload_columnar

FROZEN_PATH = Path(__file__).parent / "frozen_traces.json"
LENGTHS = (3_000, 10_000)

# (column, typecode) of the layout the digests were recorded in.
LEGACY_COLUMNS = (
    ("pc", "Q"),
    ("op", "B"),
    ("flags", "B"),
    ("mem_addr", "Q"),
    ("mem_size", "I"),
    ("target", "Q"),
    ("srcs_index", "Q"),
    ("srcs", "I"),
    ("dests_index", "Q"),
    ("dests", "I"),
    ("values_index", "Q"),
    ("values_lo", "Q"),
    ("values_hi", "Q"),
)


def legacy_column(trace, attr: str, typecode: str) -> array:
    """Column ``attr`` of the recorded layout, rebuilt from ``trace``."""
    if attr.endswith("_index"):
        counts = getattr(trace, attr[:-len("_index")] + "_count")
        return array(typecode, accumulate(counts, initial=0))
    return array(typecode, getattr(trace, attr))


def column_digests(trace) -> dict[str, str]:
    """sha256 of every legacy column, over its little-endian bytes."""
    out = {}
    for attr, typecode in LEGACY_COLUMNS:
        col = legacy_column(trace, attr, typecode)
        if sys.byteorder != "little":
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
    changed = [attr for attr, _ in LEGACY_COLUMNS if got[attr] != expected[attr]]
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

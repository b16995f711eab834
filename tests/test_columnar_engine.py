"""The columnar engine at trace lengths the goldens never reach.

The golden suite pins 3,000-instruction traces, which fit inside one
snapshot window of the columnar ``simulate()`` loop.  These tests cover
what only longer traces exercise:

* window seams — stores executed in one window and retired in the
  next, flat offsets carried from window to window — against results
  the object engine produced before it was deleted, frozen cell for
  cell in ``frozen_seams.json``;
* the memory bounds the windowing exists for (no whole-trace column
  snapshots, no per-instruction commit history), and the bytes a built
  row costs at the narrowest column widths;
* the one-pass columnar build (one kernel run, no thread, a peak
  near one trace) and its in-place splice (a peak of the trace plus
  the cold bursts);
* v4 writes of multi-chunk columnar traces by column slicing, and the
  trace cache's single-chunk entries (chunked entries still load).

Only regenerate the frozen seam results after a *deliberate* model
change::

    PYTHONPATH=src python tests/test_columnar_engine.py --regen
"""

from __future__ import annotations

import json
import sys
import threading
import tracemalloc
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest

from repro.isa import OpClass
from repro.pipeline import RecoveryMode, core_model, simulate
from repro.runtime import ResultCache
from repro.runtime.registry import get_scheme, scheme_ids
from repro.trace import ColumnarTrace
from repro.trace.columnar import COLUMNS, F_VECTOR
from repro.trace.serialization import (
    DEFAULT_CHUNK_SIZE,
    iter_trace_chunks,
    load_trace,
    load_trace_columnar,
    save_trace,
    v4_bytes,
)
from repro.workloads import SUITE, build_workload, build_workload_columnar

SCHEMES = ("baseline", "dlvp", "cap", "vtage", "dvtage", "tournament")

# storeflood: in-flight stores conflict with loads, so store retirement
# crosses windows; eon: 128-bit vector loads and multi-register LDMs;
# iirflt: LDP-style two-destination loads.
SEAM_WORKLOADS = ("storeflood", "eon", "iirflt")
SEAM_INSTRUCTIONS = 7_000
SEAMS_PATH = Path(__file__).parent / "frozen_seams.json"
RECOVERIES = list(RecoveryMode)

_TRACES: dict[str, ColumnarTrace] = {}


def _trace(workload: str) -> ColumnarTrace:
    trace = _TRACES.get(workload)
    if trace is None:
        trace = _TRACES[workload] = build_workload_columnar(
            workload, SEAM_INSTRUCTIONS
        )
    return trace


def _seam_key(workload: str, scheme_id: str, recovery: RecoveryMode) -> str:
    return f"{workload}/{scheme_id}/{recovery.value}"


@pytest.fixture(scope="module")
def frozen_seams() -> dict:
    return json.loads(SEAMS_PATH.read_text())


def test_seam_schemes_are_the_registered_builtins():
    assert set(SCHEMES) <= set(scheme_ids())


def test_frozen_seams_cover_every_cell(frozen_seams):
    assert frozen_seams["instructions"] == SEAM_INSTRUCTIONS
    assert set(frozen_seams["cells"]) == {
        _seam_key(w, s, r)
        for w in SEAM_WORKLOADS for s in SCHEMES for r in RECOVERIES
    }


@pytest.mark.parametrize("recovery", RECOVERIES, ids=lambda r: r.value)
@pytest.mark.parametrize("scheme_id", SCHEMES)
@pytest.mark.parametrize("workload", SEAM_WORKLOADS)
def test_window_seams_match_the_object_engine(
    workload, scheme_id, recovery, frozen_seams
):
    """The columnar loop against the object engine's frozen results."""
    col = _trace(workload)
    assert len(col) >= 3 * core_model._SNAPSHOT_WINDOW
    expected = frozen_seams["cells"][_seam_key(workload, scheme_id, recovery)]
    # A row-for-row copy carries no verdicts, so this run resolves them.
    col = col.slice(0, len(col))
    got = simulate(col, scheme=get_scheme(scheme_id).build(),
                   recovery=recovery).to_dict()
    assert got == expected


def test_seam_traces_hold_vector_and_multi_destination_loads():
    eon = _trace("eon")
    iirflt = _trace("iirflt")
    loads = [inst for inst in eon if inst.op == OpClass.LOAD]
    assert any(inst.is_vector and max(inst.values) >> 64 for inst in loads)
    assert any(len(inst.dests) > 1 for inst in loads)
    assert any(iirflt.dests_count[i] == 2
               for i in range(len(iirflt)) if iirflt.op[i] == OpClass.LOAD)


# ---------------------------------------------------------------------------
# memory: windowed snapshots
# ---------------------------------------------------------------------------

MEMORY_INSTRUCTIONS = 16_000
# The baseline on 16k gzip instructions peaks near 2.9 MiB with windowed
# snapshots (4.9 MiB when this bound was set); whole-trace snapshots
# pushed it to ~8.2 MiB.  (tracemalloc slows simulate() ~80x, hence the
# short trace.)
MEMORY_BOUND = 6 * 1024 * 1024


def test_columnar_simulate_peak_memory_is_window_bounded():
    trace = build_workload_columnar("gzip", MEMORY_INSTRUCTIONS)
    assert len(trace) >= 7 * core_model._SNAPSHOT_WINDOW
    simulate(build_workload_columnar("gzip", 2_000))   # warm lazy imports
    tracemalloc.start()
    try:
        simulate(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_BOUND, f"columnar simulate peak {peak} bytes"


def _footprint(roots) -> int:
    """Bytes of the lists, dicts, deques and tuples among ``roots`` and
    of everything they hold, each object counted once."""
    seen = set()
    total = 0
    stack = [root for root in roots if isinstance(root, (list, dict, deque, tuple))]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, deque, tuple)):
            stack.extend(obj)
    return total


def _loop_state_bytes(monkeypatch, workload: str, n: int, scheme_id: str) -> int:
    """The footprint of the simulate loop's local containers once its
    last instruction has committed: ``_assemble_result`` is called from
    the loop's frame, so its caller's locals are the loop's state."""
    trace = build_workload_columnar(workload, n)
    seen = []
    assemble = core_model._assemble_result

    def probe(*args):
        seen.append(_footprint(sys._getframe(1).f_locals.values()))
        return assemble(*args)

    monkeypatch.setattr(core_model, "_assemble_result", probe)
    simulate(trace, get_scheme(scheme_id).build())
    monkeypatch.setattr(core_model, "_assemble_result", assemble)
    assert len(seen) == 1
    return seen[0]


# Growth of the loop's own state from 16k to 64k perlbmk instructions.
# A commit cycle kept per instruction (a list slot and an int, plus the
# LDQ/STQ histories) adds 19-26 bytes an instruction; window-bounded
# commit state leaves only the issue-port busy maps, which swing by up
# to ~130 KiB between prunes (under 3 bytes an instruction here).
LOOP_STATE_BYTES_PER_INSTRUCTION = 6


@pytest.mark.parametrize("scheme_id", ["baseline", "dlvp"])
def test_simulate_loop_state_does_not_grow_with_the_trace(monkeypatch, scheme_id):
    """Measured on the loop's locals rather than with tracemalloc, which
    slows simulate() too much for traces long enough to show a slope."""
    short = _loop_state_bytes(monkeypatch, "perlbmk", 16_000, scheme_id)
    long = _loop_state_bytes(monkeypatch, "perlbmk", 64_000, scheme_id)
    per_instruction = (long - short) / 48_000
    assert per_instruction < LOOP_STATE_BYTES_PER_INSTRUCTION, (
        f"loop state {short} -> {long} bytes: {per_instruction:.1f} B/instruction"
    )


# ---------------------------------------------------------------------------
# one-pass build
# ---------------------------------------------------------------------------


def test_columnar_build_runs_the_kernel_once_on_this_thread(monkeypatch):
    spec = SUITE["gzip"]
    calls = []

    def kernel(builder, n, **params):
        calls.append(threading.current_thread())
        return spec.kernel(builder, n, **params)

    started = []
    thread_start = threading.Thread.start

    def record_start(self, *args, **kwargs):
        started.append(self.name)
        return thread_start(self, *args, **kwargs)

    monkeypatch.setitem(SUITE, "gzip", replace(spec, kernel=kernel))
    monkeypatch.setattr(threading.Thread, "start", record_start)
    trace = build_workload_columnar("gzip", 12_000)
    assert calls == [threading.current_thread()]
    assert started == []
    monkeypatch.setitem(SUITE, "gzip", spec)
    assert trace == ColumnarTrace.from_trace(build_workload("gzip", 12_000))


def test_columnar_build_peaks_near_one_trace():
    """The cold-burst splice consumes its sources column by column: the
    build peaks ~1.7x the finished trace at 60k instructions, at the
    kernel's end (the builder's memory image and one chunk of pending
    rows included), against ~2.5x when the hot stream and the result
    are both whole."""
    build_workload_columnar("gzip", 2_000)     # warm lazy imports
    tracemalloc.start()
    try:
        trace = build_workload_columnar("gzip", 60_000)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) > 50_000
    assert peak < 1.9 * kept, f"build peak {peak} for {kept} kept"


def _column_bytes(trace: ColumnarTrace) -> list[int]:
    return [memoryview(getattr(trace, attr)).nbytes for attr, _ in COLUMNS]


def test_splice_in_place_peaks_at_the_trace_plus_the_cold_rows():
    """The cold-burst splice's shape: runs of a hot trace interleaved
    with short runs of a cold one, spliced into the hot trace in place.
    Each hot column grows by its cold column, which is released once
    copied, so the splice holds no more than the result and the cold
    trace (tracemalloc counts a ``realloc`` by its growth).  A copy
    into a third trace holds a whole extra result column besides."""
    whole = build_workload_columnar("gzip", 60_000)
    split = 54_000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        hot = whole.slice(0, split)
        cold = whole.slice(split, len(whole))
        cold_bytes = sum(_column_bytes(cold))
        bursts = range(2_500, split, 2_500)
        per_burst = len(cold) // len(bursts)
        cuts = [(at, (k + 1) * per_burst) for k, at in enumerate(bursts)]
        cuts[-1] = (cuts[-1][0], len(cold))
        hot.splice_in(cold, cuts)
        del cold
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(hot) == len(whole)
    assert hot.instruction(2_500) == whole.instruction(split)
    bound = sum(_column_bytes(hot)) + cold_bytes + 64 * 1024
    assert peak - start <= bound, f"splice peak {peak - start} > {bound}"


# A built row's column bytes, verdicts included: one-byte counts and a
# one-byte mem_size, and each value column at the narrowest width its
# values need.  perlbmk reads 27.1; with fixed 8-byte addresses and
# values and 4-byte register ids it read 48.4, and with 8-byte prefix
# indexes and a 4-byte mem_size besides, 72.4.
MAX_COLUMN_BYTES_PER_ROW = 30


def test_built_trace_holds_at_most_30_column_bytes_per_row():
    trace = build_workload_columnar("perlbmk", 20_000)
    nbytes = sum(_column_bytes(trace)) + memoryview(trace.verdicts).nbytes
    assert nbytes / len(trace) <= MAX_COLUMN_BYTES_PER_ROW, (
        f"{nbytes / len(trace):.1f} column bytes per row"
    )


# ---------------------------------------------------------------------------
# v4 writes by column slicing
# ---------------------------------------------------------------------------


def _boundary_trace() -> ColumnarTrace:
    """>1 chunk, a vector load ending chunk 1 and an LDM starting chunk 2."""
    eon = build_workload_columnar("eon", 12_000)
    vector = multi = None
    for i in range(len(eon)):
        if eon.op[i] != OpClass.LOAD:
            continue
        if vector is None and eon.flags[i] & F_VECTOR:
            vector = i
        if multi is None and eon.dests_count[i] > 1:
            multi = i
    assert vector is not None and multi is not None
    out = ColumnarTrace(eon.name)
    out.extend(eon, 0, DEFAULT_CHUNK_SIZE - 1)
    out.extend(eon, vector, vector + 1)
    out.extend(eon, multi, multi + 1)
    out.extend(eon, DEFAULT_CHUNK_SIZE, len(eon))
    return out


def test_v2_round_trip_of_a_multi_chunk_columnar_trace(tmp_path, monkeypatch):
    """The binary (now v4) format, written by column slicing."""
    trace = _boundary_trace()
    assert len(trace) > DEFAULT_CHUNK_SIZE
    boundary = [trace.instruction(DEFAULT_CHUNK_SIZE - 1),
                trace.instruction(DEFAULT_CHUNK_SIZE)]
    assert boundary[0].is_vector and len(boundary[1].dests) > 1
    reference = trace.to_trace()

    def no_views(self, *args):
        raise AssertionError("v4 write materialized an Instruction")

    path = tmp_path / "t.v4"
    monkeypatch.setattr(ColumnarTrace, "__iter__", no_views)
    save_trace(trace, path)
    image = v4_bytes(trace)
    monkeypatch.undo()

    assert [len(c) for c in iter_trace_chunks(path)] == [
        DEFAULT_CHUNK_SIZE, len(trace) - DEFAULT_CHUNK_SIZE]
    assert load_trace_columnar(path) == trace
    assert load_trace(path).instructions == reference.instructions
    single = tmp_path / "single.v4"
    single.write_bytes(image)
    assert load_trace_columnar(single) == trace


def test_slice_starts_its_flat_columns_at_its_first_row():
    """A slice across the chunk boundary holds exactly its rows'
    entries: its flat columns start at the first row's."""
    trace = _boundary_trace()
    start, stop = DEFAULT_CHUNK_SIZE - 3, DEFAULT_CHUNK_SIZE + 5
    part = trace.slice(start, stop)
    rows = [trace.instruction(i) for i in range(start, stop)]
    assert list(part) == rows
    assert part.dests.tolist() == [reg for inst in rows for reg in inst.dests]


# ---------------------------------------------------------------------------
# the trace cache: one chunk per entry, older chunked entries still load
# ---------------------------------------------------------------------------


def test_cache_entry_is_one_chunk_written_from_the_columns(tmp_path, monkeypatch):
    """A cached trace is the single-chunk image ``v4_bytes`` gives,
    written without slicing the trace and read back without joining
    chunks, verdicts included."""
    trace = build_workload_columnar("eon", 20_000)
    assert len(trace) > DEFAULT_CHUNK_SIZE and trace.verdicts is not None
    image = v4_bytes(trace)
    cache = ResultCache(tmp_path)

    def no_splice(self, parts):
        raise AssertionError("the cache write or read spliced rows")

    monkeypatch.setattr(ColumnarTrace, "extend_rows", no_splice)
    cache.put_trace("k", trace)
    got = cache.get_trace_columnar("k")
    monkeypatch.undo()
    path = cache.trace_path("k")
    assert path.read_bytes() == image
    assert [len(chunk) for chunk in iter_trace_chunks(path)] == [len(trace)]
    assert got == trace and got.verdicts == trace.verdicts


def test_chunked_cache_entry_still_loads(tmp_path):
    """An entry laid out by the chunked writer (8,192-row chunks, then
    the verdicts) loads equal to the trace, verdicts included."""
    trace = build_workload_columnar("eon", 20_000)
    cache = ResultCache(tmp_path)
    path = cache.trace_path("k")
    path.parent.mkdir(parents=True)
    save_trace(trace, path)
    assert [len(chunk) for chunk in iter_trace_chunks(path)] == [
        DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_SIZE, len(trace) - 2 * DEFAULT_CHUNK_SIZE]
    got = cache.get_trace_columnar("k")
    assert got == trace and got.verdicts == trace.verdicts


def _regen() -> None:
    """Freeze ``simulate()`` of every seam cell's object trace."""
    cells = {}
    for workload in SEAM_WORKLOADS:
        trace = build_workload(workload, SEAM_INSTRUCTIONS)
        for scheme_id in SCHEMES:
            for recovery in RECOVERIES:
                key = _seam_key(workload, scheme_id, recovery)
                cells[key] = simulate(
                    trace, scheme=get_scheme(scheme_id).build(),
                    recovery=recovery,
                ).to_dict()
                print(f"  {key}")
    SEAMS_PATH.write_text(json.dumps(
        {"instructions": SEAM_INSTRUCTIONS, "cells": cells},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {SEAMS_PATH} ({len(cells)} cells)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)

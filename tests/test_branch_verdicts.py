"""Branch verdicts: resolved once per trace, exact, and carried with it.

* **Exactness** — :func:`repro.branch.resolve_verdicts` (TAGE on packed
  fold registers) must equal a fresh :class:`BranchUnit` resolving the
  object trace row by row (TAGE on one FoldedHistory per register),
  with numpy imported and with numpy made unimportable alike.
* **Lifecycle** — verdicts are trace data, not a column: row edits drop
  them, equality and ``to_trace()`` ignore them, and the binary trace
  cache round-trips them (a v3 file without them still loads).
* **Once per trace** — a serial grid over a fresh cache runs the verdict
  pass once per workload, however many schemes simulate it.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.branch import BranchUnit, resolve_verdicts
from repro.branch import verdicts as verdicts_module
from repro.isa import Instruction, OpClass
from repro.pipeline import simulate
from repro.runtime import Runtime
from repro.runtime.cache import ResultCache
from repro.runtime.jobs import _TRACE_MEMO
from repro.trace import ColumnarTrace, load_trace_columnar, save_trace
from repro.workloads import SUITE, build_workload_columnar

# Workloads from every kernel family that emits conditionals, calls,
# returns or indirects in volume.
VERDICT_WORKLOADS = ("perlbmk", "gzip", "eon", "avmshell", "mcf", "nat")


def _row_by_row(trace: ColumnarTrace) -> list[int]:
    """Verdicts from a fresh BranchUnit resolving the object trace."""
    unit = BranchUnit()
    return [
        int(unit.resolve(inst)) if inst.is_branch else 0
        for inst in trace.to_trace()
    ]


def test_verdict_workloads_are_registered():
    assert set(VERDICT_WORKLOADS) <= set(SUITE)


@pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "no-numpy"])
@settings(max_examples=8, deadline=None)
@given(
    workload=st.sampled_from(VERDICT_WORKLOADS),
    n=st.integers(min_value=1_500, max_value=9_000),
)
def test_verdict_pass_equals_row_by_row_resolution(use_numpy, workload, n):
    # The verdict pass is pure Python: numpy being loaded, or absent
    # altogether, must not change a verdict.
    if use_numpy:
        pytest.importorskip("numpy")
    with pytest.MonkeyPatch.context() as mp:
        if not use_numpy:
            mp.setitem(sys.modules, "numpy", None)     # import numpy fails
        trace = build_workload_columnar(workload, n)
        verdicts = resolve_verdicts(trace)
    expected = _row_by_row(trace)
    assert verdicts.tolist() == expected
    assert trace.verdicts.tolist() == expected      # built with the same
    assert any(expected)


def test_simulated_branch_mispredictions_count_the_verdicts():
    trace = build_workload_columnar("perlbmk", 6_000)
    result = simulate(trace)
    assert result.branch_mispredictions == sum(trace.verdicts) > 0
    assert result.flushes.branch == result.branch_mispredictions


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def _alu(pc: int) -> Instruction:
    return Instruction(pc=pc, op=OpClass.ALU, dests=(1,), values=(pc,))


def _with_verdicts(n: int = 3_000) -> ColumnarTrace:
    trace = build_workload_columnar("gzip", n)
    assert trace.verdicts is not None and len(trace.verdicts) == len(trace)
    return trace


@pytest.mark.parametrize("edit", ["append", "append_all", "extend", "extend_rows"])
def test_row_edits_drop_verdicts(edit):
    trace = _with_verdicts()
    other = ColumnarTrace.from_trace(trace.to_trace())
    if edit == "append":
        trace.append(_alu(0x40))
    elif edit == "append_all":
        trace.append_all([_alu(0x40), _alu(0x44)])
    elif edit == "extend":
        trace.extend(other, 0, 10)
    else:
        trace.extend_rows([(other, 5, 9)])
    assert trace.verdicts is None


def test_slices_and_conversions_carry_no_verdicts():
    trace = _with_verdicts()
    assert trace.slice(0, 100).verdicts is None
    assert ColumnarTrace.from_trace(trace.to_trace()).verdicts is None


def test_verdicts_stay_out_of_equality_and_to_trace():
    trace = _with_verdicts()
    bare = ColumnarTrace.from_trace(trace.to_trace())
    assert bare == trace
    assert bare.to_trace().instructions == trace.to_trace().instructions
    bare.verdicts = resolve_verdicts(bare)
    bare.verdicts[0] ^= 1
    assert bare == trace


def test_first_simulate_resolves_and_stores_missing_verdicts(monkeypatch):
    trace = ColumnarTrace.from_trace(_with_verdicts().to_trace())
    calls = []
    real = verdicts_module.resolve_verdicts
    monkeypatch.setattr(verdicts_module, "resolve_verdicts",
                        lambda t: calls.append(t) or real(t))
    first = simulate(trace).to_dict()
    assert calls == [trace]
    assert trace.verdicts.tolist() == _row_by_row(trace)
    assert simulate(trace).to_dict() == first
    assert calls == [trace]


def test_trace_cache_round_trips_verdicts(tmp_path):
    cache = ResultCache(tmp_path)
    trace = _with_verdicts()
    cache.put_trace("k", trace)
    got = cache.get_trace_columnar("k")
    assert got == trace
    assert got.verdicts.tolist() == trace.verdicts.tolist()


def test_v2_file_without_verdicts_still_loads(tmp_path):
    """A binary (now v3) file without a verdict section loads."""
    trace = _with_verdicts()
    bare = ColumnarTrace.from_trace(trace.to_trace())
    path = tmp_path / "bare.v3"
    save_trace(bare, path)
    got = load_trace_columnar(path)
    assert got == trace and got.verdicts is None
    # the same file plus a section: only the section differs
    with_section = tmp_path / "with.v3"
    save_trace(trace, with_section)
    assert with_section.read_bytes().startswith(path.read_bytes())


def test_torn_verdict_section_is_rejected(tmp_path):
    path = tmp_path / "torn.v3"
    save_trace(_with_verdicts(), path)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(ValueError):
        load_trace_columnar(path)


# ---------------------------------------------------------------------------
# once per trace
# ---------------------------------------------------------------------------


def test_serial_grid_resolves_each_trace_once(tmp_path, monkeypatch):
    calls = []
    real = verdicts_module.resolve_verdicts
    monkeypatch.setattr(verdicts_module, "resolve_verdicts",
                        lambda t: calls.append(t.name) or real(t))
    _TRACE_MEMO.clear()
    try:
        grid = Runtime(jobs=1, cache_dir=tmp_path).run_grid(
            ["baseline", "dlvp", "vtage"], ["gzip", "nat"], 2_000)
    finally:
        _TRACE_MEMO.clear()
    assert not grid.failures()
    assert sorted(calls) == ["gzip", "nat"]

"""The columnar trace engine: representation, chunked building, serialization.

Five concerns share this file because they share one invariant — the
struct-of-arrays world must be *losslessly interchangeable* with the
object world:

* ``Trace ↔ ColumnarTrace ↔ v4 bytes`` round-trips bit for bit
  (property-based, covering ``taken=None``, multi-destination loads,
  128-bit vector values, empty ``srcs``/``values``);
* each value column holds the narrowest typecode that takes its rows,
  and widens, losslessly, when a later chunk, splice or extend needs
  more room;
* the column builder packs the same trace whatever its chunk size;
* serialization streams on both ends (the regression tests here fail
  against the old buffer-everything save/load);
* the bench gate's three voices (``bench.py`` default, the CI
  invocation, the committed report) say the same thing.

The *simulated-outcome* equivalence of the two engines lives in
``test_golden_simresults.py``, which runs every golden cell through
both.
"""

from __future__ import annotations

import json
import re
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import bench
from repro.isa import Instruction, OpClass
from repro.trace import (
    ColumnarTrace,
    Trace,
    iter_trace_chunks,
    load_trace,
    load_trace_columnar,
    save_trace,
)
from repro.trace.columnar import COLUMNS, WIDTHS, column_typecode
from repro.trace.serialization import StaleTraceFormat
from repro.trace.share import TraceStore
from repro.workloads import (
    SUITE,
    WorkloadBuilder,
    build_workload,
    build_workload_columnar,
)

REPO_ROOT = Path(__file__).parent.parent

# ---------------------------------------------------------------------------
# property-based round-trips
# ---------------------------------------------------------------------------

_U64 = st.integers(min_value=0, max_value=2**64 - 1)
_U128 = st.integers(min_value=0, max_value=2**128 - 1)
_REG = st.integers(min_value=0, max_value=2**32 - 1)
_PC = st.integers(min_value=0, max_value=2**62 - 1).map(lambda v: v * 4)


@st.composite
def instructions(draw) -> Instruction:
    op = draw(st.sampled_from(list(OpClass)))
    kwargs = {"pc": draw(_PC), "op": op}
    if op == OpClass.LOAD:
        # loads: one value per destination; vector loads carry 128-bit
        # values (two u64 halves in the columnar encoding)
        ndests = draw(st.integers(min_value=1, max_value=4))
        is_vector = draw(st.booleans())
        values = st.lists(_U128 if is_vector else _U64,
                          min_size=ndests, max_size=ndests)
        kwargs.update(
            dests=tuple(draw(st.lists(_REG, min_size=ndests, max_size=ndests))),
            values=tuple(draw(values)),
            mem_addr=draw(_U64),
            mem_size=16 if is_vector else draw(st.sampled_from([1, 2, 4, 8])),
            is_vector=is_vector,
            srcs=tuple(draw(st.lists(_REG, max_size=3))),
        )
    elif op == OpClass.STORE:
        kwargs.update(
            mem_addr=draw(_U64),
            mem_size=draw(st.sampled_from([1, 2, 4, 8])),
            values=(draw(_U64),),
            srcs=tuple(draw(st.lists(_REG, max_size=3))),
        )
    elif op == OpClass.BRANCH:
        kwargs.update(
            taken=draw(st.none() | st.booleans()),
            target=draw(st.none() | _PC),
        )
    elif op in (OpClass.JUMP, OpClass.CALL, OpClass.RETURN, OpClass.INDIRECT):
        kwargs.update(target=draw(st.none() | _PC))
    else:
        # ALU-ish ops: possibly empty srcs/dests/values — the ragged
        # count encoding must represent zero-length rows
        kwargs.update(
            srcs=tuple(draw(st.lists(_REG, max_size=3))),
            dests=tuple(draw(st.lists(_REG, max_size=2))),
            values=tuple(draw(st.lists(_U64, max_size=2))),
        )
    return Instruction(**kwargs)


traces = st.lists(instructions(), max_size=40).map(
    lambda insts: Trace("prop", insts)
)


@settings(max_examples=60, deadline=None)
@given(trace=traces)
def test_columnar_roundtrip_lossless(trace):
    columnar = ColumnarTrace.from_trace(trace)
    assert len(columnar) == len(trace)
    assert list(columnar) == list(trace.instructions)
    back = columnar.to_trace()
    assert list(back.instructions) == list(trace.instructions)


@settings(max_examples=40, deadline=None)
@given(trace=traces)
def test_v2_serialization_roundtrip(tmp_path_factory, trace):
    """The binary columnar format (now v3), in 7-row chunks."""
    path = tmp_path_factory.mktemp("v3") / "t.trace"
    save_trace(trace, path, chunk_size=7)
    assert list(load_trace(path).instructions) == list(trace.instructions)
    assert load_trace_columnar(path) == ColumnarTrace.from_trace(trace)


@settings(max_examples=40, deadline=None)
@given(trace=traces, data=st.data())
def test_extend_chunk_reassembly_roundtrip(trace, data):
    """Splitting at random points and re-extending is the identity.

    Covers empty chunks (duplicate cut points), the empty-self extend
    (the first chunk lands in a fresh trace) and ragged-index rebasing
    across arbitrary boundaries.
    """
    columnar = ColumnarTrace.from_trace(trace)
    n = len(columnar)
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=n), max_size=6)))
    bounds = [0] + cuts + [n]
    out = ColumnarTrace(trace.name)
    for lo, hi in zip(bounds, bounds[1:]):
        out.extend(ColumnarTrace(
            trace.name, (columnar.instruction(i) for i in range(lo, hi))
        ))
    assert out == columnar


def _assert_well_formed(trace: ColumnarTrace) -> None:
    """``from_columns`` accepts the trace's columns."""
    ColumnarTrace.from_columns("check", {
        attr: getattr(trace, attr) for attr, _ in COLUMNS
    })


@settings(max_examples=60, deadline=None)
@given(sources=st.lists(traces, min_size=1, max_size=3), prefix=traces,
       data=st.data())
def test_extend_rows_concatenates_random_parts(sources, prefix, data):
    """Random ``(source, start, stop)`` parts, empty ones, repeated
    sources and parts that walk a source backwards included, appended
    to an empty or non-empty trace: the result holds its own rows, then
    exactly the parts' rows, with counts that describe its flat
    columns."""
    columnar = [ColumnarTrace.from_trace(t) for t in sources]
    parts = []
    for _ in range(data.draw(st.integers(0, 6))):
        k = data.draw(st.integers(0, len(columnar) - 1))
        a, b = sorted(data.draw(st.lists(
            st.integers(0, len(columnar[k])), min_size=2, max_size=2)))
        parts.append((columnar[k], a, b))
    expected = list(prefix.instructions) + [
        src.instruction(i) for src, a, b in parts for i in range(a, b)
    ]
    out = ColumnarTrace.from_trace(prefix)
    out.extend_rows(parts)
    assert list(out) == expected
    _assert_well_formed(out)


def _assert_splice(base: list, other: list, cuts: list) -> None:
    """``splice_in`` of ``other`` into ``base`` at ``cuts`` equals the
    row-by-row interleave, and leaves ``other`` holding no column."""
    expected = []
    at0 = stop0 = 0
    for at, stop in cuts:
        expected += base[at0:at] + other[stop0:stop]
        at0, stop0 = at, stop
    expected += base[at0:]
    trace = ColumnarTrace("base", base)
    spliced = ColumnarTrace("other", other)
    trace.splice_in(spliced, cuts)
    assert list(trace) == expected
    _assert_well_formed(trace)
    assert not any(hasattr(spliced, attr) for attr, _ in COLUMNS)


@settings(max_examples=80, deadline=None)
@given(base=traces, other=traces, data=st.data())
def test_splice_in_equals_the_row_by_row_interleave(base, other, data):
    """Random runs of one trace spliced into another in place."""
    base, other = list(base.instructions), list(other.instructions)
    k = data.draw(st.integers(1, 5))
    ats = sorted(data.draw(st.lists(
        st.integers(0, len(base)), min_size=k, max_size=k)))
    stops = sorted(data.draw(st.lists(
        st.integers(0, len(other)), min_size=k, max_size=k)))
    stops[-1] = len(other)
    _assert_splice(base, other, list(zip(ats, stops)))


def test_splice_in_places_runs_at_the_edges_and_empty_runs():
    """Runs before row 0 and after the last row, and empty runs of
    either trace (two cuts at one row, two cuts at one stop)."""
    base = list(build_workload("eon", 300).instructions)
    other = list(build_workload("gzip", 120).instructions)
    n, m = len(base), len(other)
    for cuts in (
        [(0, m)],
        [(n, m)],
        [(0, 40), (n, m)],
        [(0, 0), (0, 30), (150, 30), (150, 90), (n, 90), (n, m)],
    ):
        _assert_splice(base, other, cuts)
    with pytest.raises(ValueError, match="every row"):
        ColumnarTrace("base", base).splice_in(ColumnarTrace("o", other), [(5, m - 1)])


def test_splice_in_refuses_cuts_out_of_order_or_range():
    """An ``at`` past the end, ``at``s or ``stop``s that descend: each
    raises before either trace or its verdicts change."""
    built = build_workload_columnar("eon", 300)
    base = built.slice(0, 20)
    base.verdicts = verdicts = built.verdicts[:20]
    rows = list(base)
    other = list(build_workload("gzip", 120).instructions)[:10]
    for cuts in (
        [(25, 5), (20, 10)],
        [(5, 5), (21, 10)],
        [(15, 5), (10, 10)],
        [(5, 8), (10, 4), (15, 10)],
    ):
        spliced = ColumnarTrace("other", other)
        with pytest.raises(ValueError, match="ascend"):
            base.splice_in(spliced, cuts)
        assert list(base) == rows and base.verdicts == verdicts
        assert list(spliced) == other


def test_chunks_equal_slices():
    trace = build_workload_columnar("eon", 5_000)
    chunks = list(trace.chunks(777))
    bounds = list(range(0, len(trace), 777)) + [len(trace)]
    assert chunks == [trace.slice(a, b) for a, b in zip(bounds, bounds[1:])]
    joined = ColumnarTrace(trace.name)
    joined.extend_rows([(chunk, 0, len(chunk)) for chunk in chunks])
    assert joined == trace


def _row_columns(**fields) -> list:
    """``append_columns`` arguments for one ALU row, ``fields`` overriding."""
    row = dict(pc=0, op=OpClass.ALU, flags=0, mem_addr=0, mem_size=8, target=0,
               srcs=(), dests=(), values=())
    row.update(fields)
    return [[row[name]] for name in ("pc", "op", "flags", "mem_addr", "mem_size",
                                     "target", "srcs", "dests", "values")]


@pytest.mark.parametrize("column,fields", [
    ("srcs_count", {"srcs": tuple(range(256))}),
    ("dests_count", {"dests": (1,) * 256}),
    ("values_count", {"values": (7,) * 256}),
    ("mem_size", {"mem_size": 256}),
], ids=["srcs", "dests", "values", "mem_size"])
def test_append_columns_refuses_what_a_byte_cannot_hold(column, fields):
    """More than 255 entries of a ragged field, or a ``mem_size`` over
    255, is refused naming the column, and no column changes; 255 is
    held."""
    trace = ColumnarTrace("t", [Instruction(pc=4, op=OpClass.ALU, dests=(1,))])
    before = trace.slice(0, 1)
    with pytest.raises(ValueError, match=column):
        trace.append_columns(*_row_columns(**fields))
    assert trace == before
    held = {k: v[:255] if isinstance(v, tuple) else 255 for k, v in fields.items()}
    trace.append_columns(*_row_columns(**held))
    assert trace.instruction(1) == Instruction(
        pc=0, op=OpClass.ALU, **{"mem_size": 8, **held})


def test_columnar_extend_rebases_ragged_indexes():
    a = ColumnarTrace.from_trace(Trace("a", [
        Instruction(pc=0, op=OpClass.ALU, srcs=(1, 2), dests=(3,), values=(9,)),
    ]))
    b = ColumnarTrace.from_trace(Trace("b", [
        Instruction(pc=4, op=OpClass.ALU, srcs=(4,), dests=(5,), values=(8,)),
    ]))
    a.extend(b)
    assert len(a) == 2
    assert a.instruction(1).srcs == (4,)
    assert a.instruction(1).values == (8,)


# ---------------------------------------------------------------------------
# column widths: narrow until a chunk needs more room
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_NARROW_PC = st.integers(min_value=0, max_value=2**10).map(lambda v: v * 4)
_NARROW_REG = st.integers(min_value=0, max_value=63)
_NARROW_VALUE = st.integers(min_value=0, max_value=2**20)


@st.composite
def narrow_instructions(draw) -> Instruction:
    """Rows whose every value fits ``'B'``, ``'H'`` or ``'I'``."""
    pc = draw(_NARROW_PC)
    regs = st.lists(_NARROW_REG, max_size=2).map(tuple)
    if draw(st.booleans()):
        dests = draw(st.lists(_NARROW_REG, min_size=1, max_size=2).map(tuple))
        return Instruction(
            pc=pc, op=OpClass.LOAD, srcs=draw(regs), dests=dests,
            mem_addr=draw(_NARROW_VALUE) * 8, mem_size=8,
            values=tuple(draw(_NARROW_VALUE) for _ in dests))
    return Instruction(pc=pc, op=OpClass.BRANCH, srcs=draw(regs),
                       taken=draw(st.booleans()), target=draw(_NARROW_PC))


@st.composite
def widening_instructions(draw) -> Instruction:
    """One row that a narrow trace cannot hold: an address of 2**32 or
    more (as wide as CapConfig's 49-bit ARMv8 addresses), a register id
    of 256 or more, or a 128-bit vector value."""
    kind = draw(st.sampled_from(["address", "register", "vector"]))
    if kind == "address":
        addr = draw(st.integers(min_value=2**30, max_value=2**47)) * 4
        return Instruction(pc=addr, op=OpClass.LOAD, dests=(1,), mem_addr=addr,
                           mem_size=8, values=(draw(_NARROW_VALUE),))
    if kind == "register":
        reg = draw(st.integers(min_value=256, max_value=2**40))
        return Instruction(pc=8, op=OpClass.ALU, srcs=(reg, 2), dests=(reg,),
                           values=(draw(_NARROW_VALUE),))
    return Instruction(pc=8, op=OpClass.LOAD, dests=(1,), mem_addr=64, mem_size=16,
                       is_vector=True,
                       values=(draw(st.integers(min_value=2**64, max_value=2**128 - 1)),))


def _narrowest(values) -> str:
    """The narrowest typecode of ``WIDTHS`` that holds every value."""
    top = max(values, default=0)
    return next(code for code in WIDTHS if top >> 8 * array(code).itemsize == 0)


def _narrowest_typecodes(rows) -> dict:
    """Each column's narrowest typecode for the instructions ``rows``."""
    values = [v for inst in rows for v in inst.values]
    return {
        "pc": _narrowest(inst.pc for inst in rows),
        "mem_addr": _narrowest(inst.mem_addr or 0 for inst in rows),
        "target": _narrowest(inst.target or 0 for inst in rows),
        "srcs": _narrowest(r for inst in rows for r in inst.srcs),
        "dests": _narrowest(r for inst in rows for r in inst.dests),
        "values_lo": _narrowest(v & _MASK64 for v in values),
        "values_hi": _narrowest(v >> 64 for v in values),
    }


def _typecodes(trace: ColumnarTrace) -> dict:
    """Every column's typecode (array or attached memoryview)."""
    return {attr: column_typecode(getattr(trace, attr)) for attr, _ in COLUMNS}


def _assert_narrowest(trace: ColumnarTrace, rows) -> None:
    """``trace``'s one-byte columns are ``'B'`` and each value column
    the narrowest typecode that holds ``rows``."""
    codes = _typecodes(trace)
    expected = _narrowest_typecodes(rows)
    assert codes == {attr: expected.get(attr, "B") for attr, _ in COLUMNS}


@settings(max_examples=60, deadline=None)
@given(head=st.lists(narrow_instructions(), min_size=1, max_size=20),
       wide=st.lists(widening_instructions(), min_size=1, max_size=3),
       tail=st.lists(narrow_instructions(), max_size=5))
def test_columns_widen_when_a_later_chunk_needs_more_room(head, wide, tail):
    """Narrow chunks first, then one chunk per widening row, then narrow
    ones again: every column ends at the narrowest typecode holding all
    of its rows, and every row reads back unchanged."""
    trace = ColumnarTrace("w", head)
    _assert_narrowest(trace, head)
    for inst in wide:
        trace.append(inst)
    trace.append_all(tail)
    rows = head + wide + tail
    assert list(trace) == rows
    _assert_narrowest(trace, rows)
    _assert_well_formed(trace)


def _width_pair() -> tuple[list, list]:
    """Rows of a narrow trace (every column ``'B'``) and of a wide one."""
    narrow = [Instruction(pc=4 * k, op=OpClass.ALU, srcs=(1,), dests=(2,),
                          values=(k,)) for k in range(50)]
    wide = [Instruction(pc=(1 << 40) + 4 * k, op=OpClass.LOAD, srcs=(300,),
                        dests=(3,), mem_addr=1 << 36, mem_size=16, is_vector=True,
                        values=((1 << 100) + k,)) for k in range(20)]
    return narrow, wide


def test_splice_in_and_extend_rows_across_widths():
    """A wide trace spliced into a narrow one widens its columns, a
    narrow one spliced into a wide one is widened as it is copied, and
    ``extend_rows`` from both into an empty or a narrow trace takes the
    widest typecode of each column."""
    narrow, wide = _width_pair()
    assert set(_typecodes(ColumnarTrace("n", narrow)).values()) == {"B"}
    for base, other in ((narrow, wide), (wide, narrow)):
        cuts = [(0, 3), (len(base) // 2, 10), (len(base), len(other))]
        _assert_splice(base, other, cuts)
        trace = ColumnarTrace("base", base)
        trace.splice_in(ColumnarTrace("other", other), cuts)
        _assert_narrowest(trace, base + other)
    for prefix in ([], narrow[:7]):
        out = ColumnarTrace("x", prefix)
        n, w = ColumnarTrace("n", narrow), ColumnarTrace("w", wide)
        out.extend_rows([(n, 0, len(n)), (w, 0, len(w)), (n, 0, 5)])
        rows = prefix + narrow + wide + narrow[:5]
        assert list(out) == rows
        _assert_narrowest(out, rows)
        _assert_well_formed(out)


def test_widened_trace_round_trips_through_v4_and_the_fabric(tmp_path):
    """Chunks of different widths in one v4 file keep their typecodes
    and load as the widened trace; the trace's single-chunk image
    attaches with each column cast to its recorded typecode."""
    narrow, wide = _width_pair()
    chunks = [ColumnarTrace("w", narrow), ColumnarTrace("w", wide)]
    path = tmp_path / "w.trace"
    save_trace(chunks, path)
    assert [_typecodes(c) for c in iter_trace_chunks(path)] == [
        _typecodes(c) for c in chunks]
    joined = load_trace_columnar(path)
    assert list(joined) == narrow + wide
    _assert_narrowest(joined, narrow + wide)
    with TraceStore() as store:
        with store.attach(store.publish("w", joined)) as handle:
            assert handle.trace == joined
            assert _typecodes(handle.trace) == _typecodes(joined)
            assert list(handle.trace) == narrow + wide


def test_rejected_chunk_leaves_every_column_and_typecode():
    """A chunk with one row the columns cannot hold (256 sources) is
    refused before any column widens, though its other rows would have
    widened three."""
    narrow, _ = _width_pair()
    trace = ColumnarTrace("t", narrow)
    before = {attr: (column_typecode(getattr(trace, attr)), getattr(trace, attr).tolist())
              for attr, _ in COLUMNS}
    assert {code for code, _ in before.values()} == {"B"}
    rows = [_row_columns(pc=1 << 40, srcs=(300,), values=(1 << 100,)),
            _row_columns(srcs=tuple(range(256)))]
    with pytest.raises(ValueError, match="srcs_count"):
        trace.append_columns(*(a + b for a, b in zip(*rows)))
    assert {attr: (column_typecode(getattr(trace, attr)), getattr(trace, attr).tolist())
            for attr, _ in COLUMNS} == before


# ---------------------------------------------------------------------------
# chunked column building
# ---------------------------------------------------------------------------

CHUNK_KERNELS = ("gzip", "mcf", "nat", "aifirf")


@pytest.mark.parametrize("workload", CHUNK_KERNELS)
def test_chunked_build_equals_one_pack(workload):
    """Packing rows every 512 rows must give the trace a single pack gives."""
    n = 6_000
    one_pack = build_workload_columnar(workload, n, chunk_size=n)
    assert build_workload_columnar(workload, n, chunk_size=512) == one_pack
    assert build_workload(workload, n).instructions == list(one_pack)


def test_builder_packs_chunk_size_rows(monkeypatch):
    """The builder packs its pending rows every ``chunk_size`` rows."""
    packed = []
    append_columns = ColumnarTrace.append_columns

    def counting(self, pc, *fields):
        packed.append(len(pc))
        append_columns(self, pc, *fields)

    monkeypatch.setattr(ColumnarTrace, "append_columns", counting)
    builder = WorkloadBuilder("gzip", seed=1, chunk_size=2_048)
    SUITE["gzip"].kernel(builder, 6_000, **SUITE["gzip"].params)
    trace = builder.build_columnar()
    assert packed[:-1] == [2_048] * (len(packed) - 1)
    assert 0 < packed[-1] <= 2_048
    assert sum(packed) == len(trace) >= 6_000


def test_build_workload_columnar_matches():
    assert build_workload_columnar("gzip", 4_000) == ColumnarTrace.from_trace(
        build_workload("gzip", 4_000)
    )


# ---------------------------------------------------------------------------
# serialization streams on both ends (regression: the old save built
# the whole file in a StringIO; the old load read_text().splitlines())
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def big_trace():
    return build_workload("gzip", 50_000)


def test_v1_save_streams(tmp_path, big_trace):
    """An object trace saves chunk by chunk (once as v1 text, now v3)."""
    path = tmp_path / "big.trace"
    tracemalloc.start()
    save_trace(big_trace, path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    file_size = path.stat().st_size
    assert file_size > 1_000_000
    # pre-fix: the whole serialized text (>= file_size) sat in memory
    assert peak < file_size / 2, f"save peak {peak} vs file {file_size}"


def test_chunked_read_streams(tmp_path, big_trace):
    path = tmp_path / "big.trace"
    save_trace(big_trace, path)
    file_size = path.stat().st_size
    tracemalloc.start()
    n = sum(len(chunk) for chunk in iter_trace_chunks(path))
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert n == len(big_trace)
    # pre-fix: every line of the file was resident at once
    assert peak < file_size / 2, f"read peak {peak} vs file {file_size}"


def test_v2_chunked_roundtrip_of_generated_trace(tmp_path, big_trace):
    """A generated trace in 8,192-row binary (now v3) chunks."""
    path = tmp_path / "big.v3.trace"
    save_trace(big_trace, path, chunk_size=8_192)
    assert load_trace_columnar(path) == ColumnarTrace.from_trace(big_trace)


def test_save_trace_accepts_chunk_iterator(tmp_path):
    path = tmp_path / "streamed.trace"
    trace = build_workload_columnar("gzip", 12_000)
    chunks = (trace.slice(a, min(len(trace), a + 4_096))
              for a in range(0, len(trace), 4_096))
    save_trace(chunks, path)
    assert load_trace_columnar(path) == trace


# ---------------------------------------------------------------------------
# column-edge validation: a tampered binary file must be rejected at the
# deserialization boundary (from_columns), not crash the simulator later
# ---------------------------------------------------------------------------


def _tamper_srcs_final(t):
    t.srcs_count[-1] += 1


def _tamper_dests_final(t):
    t.dests_count[-1] += 3


def _tamper_values_final(t):
    t.values_count[-1] += 1


def _tamper_hi_lo_length(t):
    t.values_hi.pop()


def _tamper_count_length(t):
    t.dests_count.append(0)


@pytest.mark.parametrize("mutate", [
    _tamper_srcs_final,
    _tamper_dests_final,
    _tamper_values_final,
    _tamper_hi_lo_length,
    _tamper_count_length,
], ids=["srcs-final", "dests-final", "values-final",
        "hi-lo-length", "count-length"])
def test_tampered_v2_file_rejected(tmp_path, mutate):
    """iter_trace_chunks must reject a binary (now v3) file whose counts
    do not describe its flat columns or whose count column is not one
    entry per row (accepted, the engine would read out of bounds or
    silently mis-slice operands)."""
    trace = build_workload_columnar("gzip", 400)
    mutate(trace)
    path = tmp_path / "tampered.trace"
    # The chunk-iterator path writes columns verbatim.
    save_trace([trace], path)
    with pytest.raises(ValueError):
        list(iter_trace_chunks(path))


def test_v2_prefix_index_file_is_refused_as_stale(tmp_path):
    """A file in the retired prefix-index layout is refused by name."""
    path = tmp_path / "old.trace"
    path.write_bytes(b"repro-trace-v2\ngzip 1:8:4\n")
    for load in (iter_trace_chunks, load_trace, load_trace_columnar):
        with pytest.raises(StaleTraceFormat, match="prefix-index"):
            list(load(path))


def test_from_columns_validates_flat_lengths():
    from array import array

    good = build_workload_columnar("gzip", 100)
    columns = {attr: getattr(good, attr) for attr, _ in COLUMNS}
    assert len(ColumnarTrace.from_columns("ok", dict(columns))) == len(good)
    truncated = dict(columns)
    truncated["srcs"] = array("I", columns["srcs"][:-1])
    with pytest.raises(ValueError, match="srcs_count"):
        ColumnarTrace.from_columns("bad", truncated)


# ---------------------------------------------------------------------------
# summary counts atomics (regression: ATOMIC was dropped from the
# memory-op accounting)
# ---------------------------------------------------------------------------


def test_summary_counts_atomics():
    trace = Trace("atomics", [
        Instruction(pc=0, op=OpClass.LOAD, dests=(1,), values=(7,), mem_addr=64),
        Instruction(pc=4, op=OpClass.ATOMIC, mem_addr=128, mem_size=8),
        Instruction(pc=8, op=OpClass.ATOMIC, mem_addr=128, mem_size=8),
        Instruction(pc=12, op=OpClass.STORE, values=(1,), mem_addr=64),
    ])
    summary = trace.summary()
    assert summary.atomics == 2
    assert summary.loads == 1
    assert summary.stores == 1
    columnar_summary = ColumnarTrace.from_trace(trace).summary()
    assert columnar_summary == summary


# ---------------------------------------------------------------------------
# bench-gate coherence: one number, used everywhere
# ---------------------------------------------------------------------------


def test_bench_gate_is_coherent():
    """bench.py's default, the CI invocation and the committed report
    must agree (the pre-fix state: default 30%, CI 5%, docs ±20%)."""
    ci = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    ci_gate = re.search(r"--max-regression\s+([0-9.]+)", ci)
    assert ci_gate is not None, "CI no longer passes --max-regression"
    assert float(ci_gate.group(1)) == bench.DEFAULT_MAX_REGRESSION
    assert bench.BENCH_REPORT_NAME in ci, (
        "CI checks a different report than bench.BENCH_REPORT_NAME"
    )
    report_path = REPO_ROOT / bench.BENCH_REPORT_NAME
    assert report_path.exists(), f"committed {bench.BENCH_REPORT_NAME} missing"
    report = json.loads(report_path.read_text())
    # the committed reference carries the columnar loop's numbers (older
    # reports also carry the retired object engine's, which --check skips)
    assert report.get("columnar_schemes"), "columnar-engine section missing"
    for scheme_id, entry in report["columnar_schemes"].items():
        assert entry["inst_per_s"] > 0, scheme_id


def test_check_regression_covers_both_engines():
    """The columnar cells gate; the retired object-engine section is
    warned about and skipped, even when it reads as a regression."""
    committed = {
        "schemes": {"dlvp": {"inst_per_s": 100_000}},
        "columnar_schemes": {"dlvp": {"inst_per_s": 100_000}},
    }
    current = {
        "schemes": {"dlvp": {"inst_per_s": 10_000}},
        "columnar_schemes": {"dlvp": {"inst_per_s": 50_000}},
    }
    warnings: list[str] = []
    failures = bench.check_regression(current, committed, 0.20,
                                      warnings=warnings)
    assert len(failures) == 1
    assert failures[0].startswith("columnar/dlvp")
    assert sum("object-engine" in w for w in warnings) == 2
    # schemes on only one side never fail retroactively
    assert bench.check_regression({"columnar_schemes": {}}, committed,
                                  0.20) == []


def test_check_regression_warns_and_skips_mismatched_reports():
    """Report-shape mismatches are warnings, never failures.

    Pre-fix, a fresh cell without ``inst_per_s`` raised KeyError and
    cells on only one side vanished silently; now each mismatch is
    skipped with one collected warning, and only genuine slowdowns of
    comparable cells fail."""
    committed = {
        "columnar_schemes": {
            "dlvp": {"inst_per_s": 100_000},
            "retired": {"inst_per_s": 90_000},
            "broken_fresh": {"inst_per_s": 50_000},
            "broken_committed": {"inst_per_s": 0},
        },
    }
    current = {
        "columnar_schemes": {
            "dlvp": {"inst_per_s": 95_000},
            "brand_new": {"inst_per_s": 10},
            "broken_fresh": {"wall_s": 1.0},
            "broken_committed": {"inst_per_s": 70_000},
        },
    }
    warnings: list[str] = []
    failures = bench.check_regression(current, committed, 0.20,
                                      warnings=warnings)
    assert failures == []
    text = "\n".join(warnings)
    assert "retired" in text            # committed-only cell skipped
    assert "brand_new" in text          # fresh-only cell skipped
    assert "broken_fresh" in text       # fresh cell lacks inst_per_s
    assert "broken_committed" in text   # committed baseline unusable
    warnings = []
    assert bench.check_regression(current, {}, 0.20, warnings=warnings) == []
    assert "columnar_schemes" in "\n".join(warnings)   # no baseline section
    # a genuine regression still fails alongside the warnings
    current["columnar_schemes"]["dlvp"]["inst_per_s"] = 10_000
    failures = bench.check_regression(current, committed, 0.20,
                                      warnings=[])
    assert len(failures) == 1 and failures[0].startswith("columnar/dlvp")
    # and the warnings list stays optional
    assert bench.check_regression({"columnar_schemes": {}}, committed,
                                  0.20) == []

"""Trace serialization (the v4 format): round trips and rejected files."""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, OpClass
from repro.trace import (
    ColumnarTrace,
    Trace,
    iter_trace_chunks,
    load_trace,
    load_trace_columnar,
    save_trace,
)
from repro.trace.columnar import COLUMNS, WIDTHS
from repro.trace.serialization import StaleTraceFormat


def roundtrip(tmp_path, trace):
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    return load_trace(path)


class TestRoundtrip:
    def test_empty_trace(self, tmp_path):
        out = roundtrip(tmp_path, Trace("empty", []))
        assert out.name == "empty"
        assert len(out) == 0

    def test_mixed_instructions(self, tmp_path):
        insts = [
            Instruction(pc=0x10, op=OpClass.LOAD, srcs=(3,), dests=(1, 2),
                        mem_addr=0x100, mem_size=8, values=(5, 6)),
            Instruction(pc=0x14, op=OpClass.STORE, mem_addr=0x200, mem_size=4,
                        values=(7,)),
            Instruction(pc=0x18, op=OpClass.BRANCH, taken=False, target=0x1C),
            Instruction(pc=0x1C, op=OpClass.ALU, dests=(4,), values=(9,)),
            Instruction(pc=0x20, op=OpClass.LOAD, dests=(1,), mem_addr=0x300,
                        mem_size=16, values=(1 << 100,), is_vector=True),
        ]
        out = roundtrip(tmp_path, Trace("mix", insts))
        assert out.instructions == insts

    def test_workload_roundtrip(self, tmp_path):
        from repro.workloads import build_workload
        trace = build_workload("aifirf", 800)
        out = roundtrip(tmp_path, trace)
        assert out.instructions == trace.instructions
        assert out.name == trace.name


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.trace"
        p.write_text("not-a-trace foo 0\n")
        with pytest.raises(ValueError, match="not a repro-trace-v4 file"):
            load_trace(p)

    def test_truncated_body_rejected(self, tmp_path):
        p = tmp_path / "short.trace"
        save_trace(Trace("t", [Instruction(pc=16, op=OpClass.ALU, dests=(1,),
                                           values=(3,))] * 2), p)
        p.write_bytes(p.read_bytes()[:-20])
        with pytest.raises(ValueError, match="truncated"):
            load_trace(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "zero-bytes.trace"
        p.write_bytes(b"")
        with pytest.raises(ValueError, match="not a repro-trace-v4 file"):
            load_trace(p)

    def test_malformed_line_rejected(self, tmp_path):
        """The v4 header line must be ``<name> <itemsizes>``."""
        p = tmp_path / "mal.trace"
        p.write_bytes(b"repro-trace-v4\nt\n")
        with pytest.raises(ValueError, match="malformed"):
            load_trace(p)

    def test_v3_file_refused_as_stale(self, tmp_path):
        """A file in the fixed-width v3 layout is refused by name, by
        every loader, like the v2 layout before it."""
        p = tmp_path / "old.trace"
        p.write_bytes(b"repro-trace-v3\ngzip 1:8:4\n" + bytes(64))
        for load in (iter_trace_chunks, load_trace, load_trace_columnar):
            with pytest.raises(StaleTraceFormat, match="v3 trace.*fixed-width"):
                list(load(p))

    def test_typecode_a_column_cannot_hold_rejected(self, tmp_path):
        """A chunk framing a one-byte column at another width is refused."""
        p = tmp_path / "wide-op.trace"
        save_trace(Trace("t", [Instruction(pc=16, op=OpClass.ALU, dests=(1,))]), p)
        data = p.read_bytes()
        # header line, u32 row count, then pc's typecode, u64 size and byte
        at = data.index(b"\n", len(b"repro-trace-v4\n")) + 1 + 4 + 9 + 1
        assert data[at:at + 9] == b"B" + (1).to_bytes(8, "little")   # op's frame
        p.write_bytes(data[:at] + b"Q" + data[at + 1:])
        with pytest.raises(ValueError, match="'op'"):
            load_trace(p)


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(["load", "store", "branch", "alu"]))
    pc = draw(st.integers(min_value=0, max_value=1 << 20)) * 4
    if kind == "load":
        n = draw(st.integers(min_value=1, max_value=3))
        return Instruction(
            pc=pc, op=OpClass.LOAD,
            dests=tuple(range(1, n + 1)),
            mem_addr=draw(st.integers(min_value=0, max_value=1 << 20)) * 8,
            mem_size=8,
            values=tuple(draw(st.integers(min_value=0, max_value=(1 << 64) - 1))
                         for _ in range(n)),
        )
    if kind == "store":
        return Instruction(pc=pc, op=OpClass.STORE,
                           mem_addr=draw(st.integers(min_value=0, max_value=1 << 20)) * 8,
                           mem_size=8,
                           values=(draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),))
    if kind == "branch":
        return Instruction(pc=pc, op=OpClass.BRANCH,
                           taken=draw(st.booleans()), target=pc + 8)
    return Instruction(pc=pc, op=OpClass.ALU, dests=(1,),
                       values=(draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),))


@settings(max_examples=30)
@given(st.lists(instructions(), max_size=40))
def test_roundtrip_property(tmp_path_factory, insts):
    tmp = tmp_path_factory.mktemp("traces")
    trace = Trace("prop", insts)
    path = tmp / "t.trace"
    save_trace(trace, path)
    assert load_trace(path).instructions == insts


def _narrowest(values) -> str:
    """The narrowest typecode of ``WIDTHS`` that holds every value."""
    top = max(values, default=0)
    return next(code for code in WIDTHS if top >> 8 * array(code).itemsize == 0)


@settings(max_examples=30, deadline=None)
@given(st.lists(instructions(), min_size=1, max_size=40), st.data())
def test_chunks_keep_their_widths_and_load_widened(tmp_path_factory, insts, data):
    """Chunks packed one by one each hold their own narrowest
    typecodes; the file keeps them chunk by chunk, and the loaded trace
    holds each column at the widest of its chunks'."""
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=1, max_value=len(insts)), max_size=4)))
    bounds = [0] + cuts + [len(insts)]
    parts = [insts[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]
    chunks = [ColumnarTrace("prop", rows) for rows in parts]
    for chunk, rows in zip(chunks, parts):
        assert chunk.pc.typecode == _narrowest(inst.pc for inst in rows)
        assert chunk.dests.typecode == _narrowest(r for inst in rows for r in inst.dests)
        assert chunk.values_lo.typecode == _narrowest(v for inst in rows for v in inst.values)
    path = tmp_path_factory.mktemp("chunks") / "t.trace"
    save_trace(chunks, path)
    typecodes = [{attr: getattr(c, attr).typecode for attr, _ in COLUMNS} for c in chunks]
    assert [{attr: getattr(c, attr).typecode for attr, _ in COLUMNS}
            for c in iter_trace_chunks(path)] == typecodes
    whole = ColumnarTrace("prop", insts)
    loaded = load_trace_columnar(path)
    assert loaded == whole and list(loaded) == insts
    for attr, _ in COLUMNS:
        widest = max((codes[attr] for codes in typecodes), key=WIDTHS.index)
        assert getattr(loaded, attr).typecode == widest == getattr(whole, attr).typecode

"""Trace serialization (the v3 format): round trips and rejected files."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Instruction, OpClass
from repro.trace import Trace, load_trace, save_trace


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
        with pytest.raises(ValueError, match="not a repro-trace-v3 file"):
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
        with pytest.raises(ValueError, match="not a repro-trace-v3 file"):
            load_trace(p)

    def test_malformed_line_rejected(self, tmp_path):
        """The v3 header line must be ``<name> <itemsizes>``."""
        p = tmp_path / "mal.trace"
        p.write_bytes(b"repro-trace-v3\nt\n")
        with pytest.raises(ValueError, match="malformed"):
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

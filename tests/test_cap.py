"""Tests for the CAP baseline address predictor."""

import pytest

from repro.predictors import CapConfig, CapPredictor


def drive(cap, pc, addrs):
    """Feed an address sequence through predict+train; returns predictions."""
    out = []
    for addr in addrs:
        out.append(cap.predict_pc(pc))
        cap.train(pc, addr)
    return out


class TestBasics:
    def test_unknown_pc_no_prediction(self):
        assert CapPredictor().predict_pc(0x1000) is None

    def test_constant_address_predicted(self):
        cap = CapPredictor(CapConfig(confidence_threshold=3, update_delay=0))
        preds = drive(cap, 0x1000, [0x5000] * 20)
        assert preds[-1] is not None
        assert preds[-1].addr == 0x5000

    def test_confidence_threshold_delays_prediction(self):
        lo = CapPredictor(CapConfig(confidence_threshold=3, update_delay=0))
        hi = CapPredictor(CapConfig(confidence_threshold=10, update_delay=0))
        seq = [0x5000] * 8
        last_lo = drive(lo, 0x1000, seq)[-1]
        last_hi = drive(hi, 0x1000, seq)[-1]
        assert last_lo is not None
        assert last_hi is None

    def test_periodic_pattern_learned_without_delay(self):
        cap = CapPredictor(CapConfig(confidence_threshold=3, update_delay=0))
        pattern = [0x5000, 0x5008, 0x5010, 0x5018]
        preds = drive(cap, 0x1000, pattern * 20)
        correct = sum(
            1 for p, a in zip(preds[40:], (pattern * 20)[40:])
            if p is not None and p.addr == a
        )
        assert correct > 20

    def test_random_addresses_never_confident(self):
        import random
        rng = random.Random(5)
        cap = CapPredictor(CapConfig(confidence_threshold=3, update_delay=0))
        addrs = [rng.randrange(1 << 20) * 8 for _ in range(300)]
        preds = drive(cap, 0x1000, addrs)
        assert sum(1 for p in preds if p is not None) < 20


class TestUpdateDelay:
    def test_delay_blocks_tight_period_patterns(self):
        """With in-flight lag, a short-period stream's history trails
        reality and confidence cannot build — the structural weakness
        Section 2.2 describes."""
        delayed = CapPredictor(CapConfig(confidence_threshold=3, update_delay=48))
        pattern = [0x5000 + 8 * i for i in range(5)]    # 5 does not divide 48
        preds = drive(delayed, 0x1000, pattern * 64)
        assert sum(1 for p in preds if p is not None) < 10

    def test_delay_aligned_period_still_works(self):
        # A period dividing the delay keeps the stale history aligned —
        # those streams survive, which bounds how much the lag costs.
        delayed = CapPredictor(CapConfig(confidence_threshold=3, update_delay=48))
        pattern = [0x5000 + 8 * i for i in range(8)]    # 8 divides 48
        preds = drive(delayed, 0x1000, pattern * 64)
        assert sum(1 for p in preds if p is not None) > 50

    def test_delay_preserves_constant_loads(self):
        cap = CapPredictor(CapConfig(confidence_threshold=3, update_delay=48))
        preds = drive(cap, 0x1000, [0x5000] * 120)
        assert preds[-1] is not None and preds[-1].addr == 0x5000


class TestStats:
    def test_record_outcome(self):
        cap = CapPredictor()
        cap.record_outcome(None, 0x100)
        assert cap.stats.loads_seen == 1
        assert cap.stats.predictions == 0
        assert cap.stats.coverage == 0.0

    def test_storage_bits_matches_table4(self):
        bits = CapPredictor().storage_bits()
        assert 90_000 < bits < 100_000       # paper: ~95k bits (ARMv8)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            CapConfig(load_buffer_entries=1000)
        with pytest.raises(ValueError):
            CapConfig(confidence_threshold=0)


class TestCapacityPressure:
    def test_colliding_static_loads_evict_each_other(self):
        """CAP's load buffer replaces on miss — a cold load landing on a
        hot load's slot forces a retrain (unlike PAP's Policy-2)."""
        cap = CapPredictor(CapConfig(confidence_threshold=3, update_delay=0))
        hot = 0x1000
        drive(cap, hot, [0x5000] * 20)
        assert cap.predict_pc(hot) is not None
        # Find a PC colliding in the LB with a different tag.
        collider = None
        for candidate in range(0x100000, 0x400000, 4):
            (index, tag), (hot_index, hot_tag) = cap._lb_key(candidate), cap._lb_key(hot)
            if index == hot_index and tag != hot_tag:
                collider = candidate
                break
        assert collider is not None
        cap.train(collider, 0x9000)
        assert cap.predict_pc(hot) is None      # evicted, must retrain

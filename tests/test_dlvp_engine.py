"""End-to-end tests of the DLVP engine's load path (fetch -> probe ->
execute), driven through the per-run closures the pipeline uses."""

import pytest

from repro.core import DlvpConfig, DlvpEngine
from repro.isa import OpClass
from repro.memory import MemoryHierarchy, MemoryImage
from repro.predictors import CapConfig, CapPredictor

LOAD = int(OpClass.LOAD)


def load(pc=0x1000, addr=0x5000, values=(42,), ndests=1, size=8):
    """A load's leading flat-protocol scalars: ``(pc, op, mem_addr,
    mem_size, flags, ndests, values)``."""
    return (pc, LOAD, addr, size, 0, ndests, values)


class Driver:
    """A DLVP engine plus the fetch/execute closures of one run."""

    def __init__(self, address_predictor=None, **config_kwargs):
        self.image = MemoryImage()
        self.hierarchy = MemoryHierarchy()
        self.engine = DlvpEngine(
            config=DlvpConfig(**config_kwargs), hierarchy=self.hierarchy,
            image=self.image, address_predictor=address_predictor,
        )
        self.fetch_closure = self.engine.make_flat_fetch()
        self.execute_closure = self.engine.make_flat_execute()

    def fetch(self, ld, cycle=0, slot=0, probe_cycle=None):
        """Fetch-side tuple ``(values, correct, handle, registers)``;
        the probe issues two cycles after fetch unless told otherwise."""
        if probe_cycle is None:
            probe_cycle = cycle + 2
        return self.fetch_closure(*ld, cycle, slot, probe_cycle)

    def execute(self, ld, fp, value_predicted=None):
        """Demand-access the load, then validate and train; returns
        ``(value_predicted, value_correct)``."""
        access = self.hierarchy.access(ld[0], ld[2])
        if value_predicted is None:
            value_predicted = fp[0] is not None
        return self.execute_closure(
            *ld, fp[2], fp[0], access.way, value_predicted
        )

    def run_load(self, ld, cycle=0):
        """One full fetch -> probe -> execute round for a load."""
        fp = self.fetch(ld, cycle)
        return self.execute(ld, fp), fp[0]

    def train_until_predicted(self, ld=None, rounds=200):
        ld = ld or load()
        for _ in range(rounds):
            (value_predicted, _), _ = self.run_load(ld)
            if value_predicted:
                return
        pytest.fail("no value prediction")


class TestHappyPath:
    def test_trains_then_predicts_correct_value(self):
        d = Driver()
        d.image.write(0x5000, 8, 42)
        outcome = None
        for i in range(40):
            outcome, values = d.run_load(load(), cycle=10 * i)
            if outcome[0]:
                break
        assert outcome is not None and outcome == (True, True)
        assert values == (42,)
        assert d.engine.stats.value_correct >= 1
        assert d.engine.stats.probe_hits >= 1

    def test_engine_shares_caller_image(self):
        """Regression: an empty MemoryImage is falsy; the engine must
        keep the caller's instance, not silently make its own."""
        image = MemoryImage()
        engine = DlvpEngine(image=image)
        assert engine.image is image

    def test_multi_dest_values_extracted(self):
        d = Driver()
        d.image.write(0x5000, 8, 11)
        d.image.write(0x5008, 8, 22)
        ld = load(ndests=2, values=(11, 22))
        predicted = None
        for i in range(40):
            _, values = d.run_load(ld, cycle=10 * i)
            if values is not None:
                predicted = values
                break
        assert predicted == (11, 22)

    def test_oversized_footprint_not_predicted(self):
        d = Driver()
        ld = load(ndests=8, values=tuple(range(8)), size=8)
        for i in range(40):
            _, values = d.run_load(ld, cycle=10 * i)
            assert values is None       # 64B footprint > probe capture
        assert d.engine.stats.probes > 0


class TestInFlightConflicts:
    def test_stale_probe_inserts_into_lscd(self):
        """Correct address + wrong value = an in-flight store raced the
        probe; the load must enter the LSCD."""
        d = Driver()
        d.image.write(0x5000, 8, 42)
        d.train_until_predicted()
        # Now the architectural value changes but the image (committed
        # state) still has the old value: the probe returns stale 42.
        stale = load(values=(99,))
        correct_before = d.engine.stats.address_correct
        fp = d.fetch(stale)
        assert fp[0] == (42,) and not fp[1]
        outcome = d.execute(stale, fp, value_predicted=True)
        assert outcome == (True, False)
        assert d.engine.stats.address_correct == correct_before + 1
        assert d.engine.stats.inflight_conflicts == 1
        assert stale[0] in d.engine.lscd

    def test_lscd_blocks_future_instances(self):
        d = Driver()
        d.engine.lscd.insert(0x1000)
        fp = d.fetch(load())
        assert fp[0] is None
        assert d.engine.lscd.filtered == 1
        assert d.execute(load(), fp) == (False, False)
        assert d.engine.stats.address_predictions == 0
        assert d.engine.stats.lscd_blocked == 1


class TestProbeBehaviour:
    def test_probe_miss_generates_prefetch(self):
        d = Driver()
        d.image.write(0x5000, 8, 42)
        # Train the APT (demand accesses keep L1 warm), then evict.
        d.train_until_predicted()
        d.hierarchy.l1d.invalidate(0x5000)
        misses = d.engine.stats.probe_misses
        fp = d.fetch(load())
        assert fp[0] is None
        assert d.engine.stats.probe_misses == misses + 1
        assert d.engine.stats.prefetches == 1
        # The prefetch brought the block back.
        assert d.hierarchy.probe_l1(0x5000)[0]

    def test_prefetch_disabled(self):
        d = Driver(prefetch_on_miss=False)
        d.image.write(0x5000, 8, 42)
        d.train_until_predicted()
        d.hierarchy.l1d.invalidate(0x5000)
        fp = d.fetch(load())
        assert fp[0] is None
        assert d.engine.stats.prefetches == 0

    def test_stale_way_prediction_misses(self):
        d = Driver()
        d.image.write(0x5000, 8, 42)
        d.train_until_predicted()
        # Move the block to a different way: evict + refill after
        # touching other blocks in the set.
        d.hierarchy.l1d.invalidate(0x5000)
        d.hierarchy.l1d.fill(0x5000)
        d.fetch(load())
        # Either the way happens to match (fine) or it is counted.
        assert d.engine.stats.way_mispredictions in (0, 1)

    def test_paq_age_drop_cancels_prediction(self):
        d = Driver(paq_drop_cycles=2)
        d.image.write(0x5000, 8, 42)
        for _ in range(40):
            fp = d.fetch(load(), probe_cycle=100)   # far beyond the window
            if d.engine.paq.dropped:
                assert fp[0] is None and fp[2][2] is None
                assert d.engine.paq.dropped == d.engine.paq.enqueued == 1
                assert d.engine.stats.probes == 0
                return
            d.execute(load(), fp)
        pytest.fail("no prediction ever queued")


class TestCapBackend:
    def test_cap_variant_trains_and_predicts(self):
        d = Driver(address_predictor=CapPredictor(
            CapConfig(confidence_threshold=3, update_delay=0)
        ))
        d.image.write(0x5000, 8, 42)
        predicted = False
        for i in range(60):
            (value_predicted, _), _ = d.run_load(load(), cycle=i)
            predicted = predicted or value_predicted
        assert predicted


class TestUnpredictedPath:
    def test_third_load_of_group_counts_in_denominator(self):
        d = Driver()
        assert d.fetch(load(), slot=None) is None
        assert d.engine.stats.loads_seen == 1

"""Tests for PAQ, LSCD and the PVT/VPE."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    LoadStoreConflictDetector,
    PaqEntry,
    PredictedAddressQueue,
    PredictedValuesTable,
    ValuePredictionEngine,
)


def entry(addr=0x1000, cycle=0):
    return PaqEntry(addr=addr, size=8, way=0, allocated_cycle=cycle)


class TestPaq:
    def test_fifo_order(self):
        paq = PredictedAddressQueue()
        paq.push(entry(addr=0x1000))
        paq.push(entry(addr=0x2000))
        assert paq.service(0).addr == 0x1000
        assert paq.service(0).addr == 0x2000

    def test_capacity_rejection(self):
        paq = PredictedAddressQueue(entries=2)
        assert paq.push(entry())
        assert paq.push(entry())
        assert not paq.push(entry())
        assert paq.rejected_full == 1

    def test_age_based_drop(self):
        paq = PredictedAddressQueue(drop_cycles=4)
        paq.push(entry(cycle=0))
        assert paq.service(10) is None
        assert paq.dropped == 1

    def test_entry_within_window_survives(self):
        paq = PredictedAddressQueue(drop_cycles=4)
        paq.push(entry(cycle=0))
        assert paq.service(4) is not None

    def test_drop_rate(self):
        paq = PredictedAddressQueue(drop_cycles=1)
        paq.push(entry(cycle=0))
        paq.push(entry(cycle=0))
        paq.service(0)
        paq.service(100)
        assert paq.drop_rate == 0.5

    def test_bypass_counted_only_when_serviced(self):
        # Regression: push() used to count `bypassed` for every enqueue
        # into an empty queue, even if the entry later aged out or was
        # flushed — a probe that never issued can't have bypassed the
        # queue.  The bypass is real only once the entry is serviced.
        paq = PredictedAddressQueue()
        paq.push(entry())
        assert paq.bypassed == 0        # not yet serviced
        paq.service(0)
        assert paq.bypassed == 1

    def test_bypass_not_counted_for_flushed_entry(self):
        paq = PredictedAddressQueue()
        paq.push(entry())               # empty-queue enqueue...
        paq.flush()                     # ...but the probe never issues
        assert paq.bypassed == 0

    def test_bypass_not_counted_for_dropped_entry(self):
        paq = PredictedAddressQueue(drop_cycles=2)
        paq.push(entry(cycle=0))
        assert paq.service(50) is None  # ages out
        assert paq.bypassed == 0

    def test_bypass_not_counted_for_non_empty_enqueue(self):
        paq = PredictedAddressQueue()
        paq.push(entry(addr=0x1000))
        paq.push(entry(addr=0x2000))    # queue non-empty: no bypass
        paq.service(0)
        paq.service(0)
        assert paq.bypassed == 1        # only the first entry

    def test_flush_empties(self):
        paq = PredictedAddressQueue()
        paq.push(entry())
        paq.flush()
        assert paq.service(0) is None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PredictedAddressQueue(entries=0)

    def test_flush_counts_separately_from_drops(self):
        paq = PredictedAddressQueue()
        paq.push(entry())
        paq.push(entry())
        paq.flush()
        assert paq.flushed == 2
        assert paq.dropped == 0
        assert paq.serviced == 0

    def test_flushed_excluded_from_drop_rate(self):
        # 2 accepted, 1 serviced, 1 flushed: the flushed entry never had
        # a chance to be serviced, so the drop rate must stay 0 — the
        # old accounting would have reported 0/2 anyway, but with a
        # later age-out it skewed to dropped/(enqueued) instead of
        # dropped/(enqueued - flushed).
        paq = PredictedAddressQueue(drop_cycles=1)
        paq.push(entry(cycle=0))
        paq.service(0)
        paq.push(entry(cycle=0))
        paq.flush()
        assert paq.drop_rate == 0.0
        paq.push(entry(cycle=10))
        paq.push(entry(cycle=10))
        paq.service(10)
        paq.service(100)          # ages out -> dropped
        assert paq.drop_rate == pytest.approx(1 / 3)  # 1 of 3 eligible

    def test_conservation_invariant_after_flush(self):
        paq = PredictedAddressQueue(entries=4, drop_cycles=2)
        paq.push(entry(cycle=0))
        paq.push(entry(cycle=0))
        paq.service(1)
        paq.flush()
        paq.push(entry(cycle=5))
        paq.push(entry(cycle=5))
        paq.service(50)           # drops both stale entries, returns None
        paq.push(entry(cycle=60))
        assert (paq.serviced + paq.dropped + paq.flushed + len(paq)
                == paq.enqueued)

    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=60))
    def test_occupancy_bounded(self, cycles):
        paq = PredictedAddressQueue(entries=8)
        for c in cycles:
            paq.push(entry(cycle=c))
            assert len(paq) <= 8

    @given(st.lists(
        st.tuples(st.sampled_from(["push", "service", "flush"]),
                  st.integers(min_value=0, max_value=40)),
        max_size=80,
    ))
    def test_conservation_invariant_holds_always(self, ops):
        # serviced + dropped + flushed + len(queue) == enqueued after
        # every operation, for any interleaving of pushes, services
        # (with arbitrary cycle gaps -> age-based drops) and flushes.
        paq = PredictedAddressQueue(entries=4, drop_cycles=3)
        for op, cycle in ops:
            if op == "push":
                paq.push(entry(cycle=cycle))
            elif op == "service":
                paq.service(cycle)
            else:
                paq.flush()
            assert (paq.serviced + paq.dropped + paq.flushed + len(paq)
                    == paq.enqueued)
            # bypass accounting rides the same conservation: a bypass
            # is a *serviced* entry that entered an empty queue, so it
            # can never exceed the serviced count.
            assert 0 <= paq.bypassed <= paq.serviced


class TestLscd:
    def test_blocks_after_insert(self):
        lscd = LoadStoreConflictDetector()
        lscd.insert(0x1000)
        assert lscd.blocks(0x1000)
        assert 0x1000 in lscd

    def test_unknown_pc_not_blocked(self):
        assert not LoadStoreConflictDetector().blocks(0x1234)

    def test_fifo_eviction(self):
        lscd = LoadStoreConflictDetector(entries=2)
        lscd.insert(0x1)
        lscd.insert(0x2)
        lscd.insert(0x3)
        assert not lscd.blocks(0x1)
        assert lscd.blocks(0x2)
        assert lscd.blocks(0x3)

    def test_reinsert_refreshes(self):
        lscd = LoadStoreConflictDetector(entries=2)
        lscd.insert(0x1)
        lscd.insert(0x2)
        lscd.insert(0x1)        # refresh: 0x1 is now youngest
        lscd.insert(0x3)        # evicts 0x2
        assert lscd.blocks(0x1)
        assert not lscd.blocks(0x2)

    def test_filtered_counter(self):
        lscd = LoadStoreConflictDetector()
        lscd.insert(0x1)
        lscd.blocks(0x1)
        lscd.blocks(0x1)
        assert lscd.filtered == 2

    def test_paper_capacity_default(self):
        assert LoadStoreConflictDetector().capacity == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LoadStoreConflictDetector(entries=0)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=80))
    def test_fifo_eviction_order_matches_model(self, pcs):
        # Reference model: an ordered list where re-insertion moves the
        # PC to the back (youngest) and overflow evicts the front
        # (oldest).  The LSCD must agree on membership after any
        # insertion sequence.
        lscd = LoadStoreConflictDetector(entries=4)
        model: list[int] = []
        for pc in pcs:
            if pc in model:
                model.remove(pc)
            elif len(model) >= 4:
                model.pop(0)
            model.append(pc)
            lscd.insert(pc)
            assert len(lscd) == len(model) <= 4
            for known in model:
                assert known in lscd
        blocked = [pc for pc in range(10) if lscd.blocks(pc)]
        assert blocked == sorted(model)

    @given(st.lists(st.integers(min_value=0, max_value=9), max_size=80))
    def test_reinsert_never_double_occupies(self, pcs):
        lscd = LoadStoreConflictDetector(entries=4)
        for pc in pcs:
            lscd.insert(pc)
            assert len(lscd) <= 4
        # every present PC appears exactly once: refreshing an existing
        # PC must not consume a second slot
        assert len({pc for pc in range(10) if pc in lscd}) == len(lscd)


class TestPvt:
    def test_allocate_and_reclaim(self):
        pvt = PredictedValuesTable(entries=4)
        assert pvt.try_allocate(2, cycle=0, free_cycle=10)
        assert pvt.occupancy(5) == 2
        assert pvt.occupancy(10) == 0

    def test_capacity_enforced(self):
        pvt = PredictedValuesTable(entries=4)
        assert pvt.try_allocate(3, 0, 100)
        assert not pvt.try_allocate(2, 1, 100)
        assert pvt.allocation_failures == 1

    def test_reclaim_frees_capacity(self):
        pvt = PredictedValuesTable(entries=4)
        pvt.try_allocate(4, 0, 5)
        assert pvt.try_allocate(4, 6, 20)

    def test_flush_clears(self):
        pvt = PredictedValuesTable(entries=4)
        pvt.try_allocate(4, 0, 1000)
        pvt.flush()
        assert pvt.occupancy(1) == 0

    def test_peak_occupancy_tracked(self):
        pvt = PredictedValuesTable(entries=8)
        pvt.try_allocate(3, 0, 100)
        pvt.try_allocate(4, 1, 100)
        assert pvt.peak_occupancy == 7

    def test_write_read_counters(self):
        pvt = PredictedValuesTable()
        pvt.try_allocate(2, 0, 10)
        pvt.note_consumer_read(2)
        assert pvt.writes == 2
        assert pvt.reads == 2

    def test_invalid_allocation(self):
        with pytest.raises(ValueError):
            PredictedValuesTable().try_allocate(0, 0, 1)

    def test_paper_dimensions(self):
        pvt = PredictedValuesTable()
        assert pvt.capacity == 32
        assert pvt.read_ports == 2
        assert pvt.write_ports == 2

    @given(st.integers(1, 8), st.lists(st.one_of(
        st.tuples(st.just("allocate"), st.integers(1, 4), st.integers(0, 60),
                  st.integers(0, 60)),
        st.tuples(st.just("occupancy"), st.integers(0, 80)),
        st.tuples(st.just("flush"),),
    ), max_size=60))
    def test_matches_a_list_model(self, entries, ops):
        """Random admissions, reclaims and flushes: the table agrees
        with a plain list of live (free_cycle, registers) allocations,
        all of whose due entries are freed before each admission."""
        pvt = PredictedValuesTable(entries=entries)
        live: list[tuple[int, int]] = []
        failures = peak = writes = 0

        def reclaim(cycle):
            live[:] = [a for a in live if a[0] > cycle]

        for op in ops:
            if op[0] == "allocate":
                _, registers, cycle, hold = op
                reclaim(cycle)
                admitted = sum(r for _, r in live) + registers <= entries
                if admitted:
                    live.append((cycle + hold, registers))
                    writes += registers
                    peak = max(peak, sum(r for _, r in live))
                else:
                    failures += 1
                assert pvt.try_allocate(registers, cycle, cycle + hold) == admitted
            elif op[0] == "occupancy":
                reclaim(op[1])
                assert pvt.occupancy(op[1]) == sum(r for _, r in live)
            else:
                pvt.flush()
                live.clear()
            assert pvt.allocation_failures == failures
            assert pvt.peak_occupancy == peak
            assert pvt.writes == writes


class TestVpe:
    def test_admit_and_validate(self):
        vpe = ValuePredictionEngine()
        assert vpe.admit(1, cycle=0, free_cycle=10)
        vpe.record_validation(True)
        vpe.record_validation(False)
        assert vpe.stats.value_predictions == 2
        assert vpe.stats.value_correct == 1
        assert vpe.stats.value_mispredictions == 1
        assert vpe.stats.value_accuracy == 0.5

    def test_full_pvt_rejects(self):
        vpe = ValuePredictionEngine(pvt_entries=1)
        assert vpe.admit(1, 0, 1000)
        assert not vpe.admit(1, 1, 1000)
        assert vpe.stats.pvt_rejections == 1

    def test_flush_clears_pvt(self):
        vpe = ValuePredictionEngine(pvt_entries=1)
        vpe.admit(1, 0, 1000)
        vpe.flush()
        assert vpe.admit(1, 1, 1000)

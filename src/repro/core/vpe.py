"""VPE — Value Prediction Engine and the Predicted Values Table.

Section 3.2.1: rather than arbitrating for PRF write ports (Design #1)
or widening the PRF (Design #2), predicted values live in a small
dedicated 32-entry cache — the PVT — tagged by physical register number
(Design #3, the paper's choice).  A predicted bit per rename-map-table
entry steers consumers to the PVT; entries free when the predicted
instruction executes and validates.  A full PVT turns a prediction into
a no-prediction, which the paper reports "is almost never encountered".
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush


class PredictedValuesTable:
    """Occupancy model of the 32-entry PVT.

    The timing model allocates one entry per value-predicted destination
    register and tells us when the owning load executes; entries whose
    load has executed are reclaimed lazily as time advances.
    """

    def __init__(self, entries: int = 32, read_ports: int = 2, write_ports: int = 2) -> None:
        if entries <= 0:
            raise ValueError("PVT must have at least one entry")
        self.capacity = entries
        self.read_ports = read_ports
        self.write_ports = write_ports
        # (free_cycle, registers) pairs as a heap, soonest free first;
        # plain tuples — one is created per admitted prediction on the
        # simulate() hot path.
        self._allocations: list[tuple[int, int]] = []
        self._occupied = 0
        self.writes = 0
        self.reads = 0
        self.allocation_failures = 0
        self.peak_occupancy = 0

    def _reclaim(self, cycle: int) -> None:
        """Free every allocation whose load has executed by ``cycle``."""
        allocations = self._allocations
        while allocations and allocations[0][0] <= cycle:
            self._occupied -= heappop(allocations)[1]

    def try_allocate(self, registers: int, cycle: int, free_cycle: int) -> bool:
        """Reserve ``registers`` entries from ``cycle`` until ``free_cycle``.

        Returns False (prediction becomes no-prediction) when the PVT
        cannot hold them.
        """
        if registers <= 0:
            raise ValueError("must allocate at least one register")
        self._reclaim(cycle)
        occupied = self._occupied + registers
        if occupied > self.capacity:
            self.allocation_failures += 1
            return False
        self._occupied = occupied
        if occupied > self.peak_occupancy:
            self.peak_occupancy = occupied
        heappush(self._allocations, (free_cycle, registers))
        self.writes += registers
        return True

    def note_consumer_read(self, registers: int = 1) -> None:
        """A consumer read predicted value(s) from the PVT."""
        self.reads += registers

    def occupancy(self, cycle: int) -> int:
        self._reclaim(cycle)
        return self._occupied

    def flush(self) -> None:
        """Pipeline flush deallocates everything speculative."""
        self._allocations.clear()
        self._occupied = 0


@dataclass
class VpeStats:
    value_predictions: int = 0
    value_correct: int = 0
    pvt_rejections: int = 0

    @property
    def value_mispredictions(self) -> int:
        return self.value_predictions - self.value_correct

    @property
    def value_accuracy(self) -> float:
        if not self.value_predictions:
            return 1.0
        return self.value_correct / self.value_predictions


class ValuePredictionEngine:
    """Bookkeeping shared by every value-prediction scheme.

    Owns the PVT and the per-run value-prediction outcome counters; the
    timing model funnels every scheme (DLVP, VTAGE, CAP-based DLVP,
    tournament) through one of these so accounting is uniform.
    """

    def __init__(self, pvt_entries: int = 32) -> None:
        self.pvt = PredictedValuesTable(entries=pvt_entries)
        self.stats = VpeStats()

    def admit(self, registers: int, cycle: int, free_cycle: int) -> bool:
        """Try to accept a value prediction into the PVT."""
        if self.pvt.try_allocate(registers, cycle, free_cycle):
            return True
        self.stats.pvt_rejections += 1
        return False

    def record_validation(self, correct: bool) -> None:
        self.stats.value_predictions += 1
        if correct:
            self.stats.value_correct += 1

    def flush(self) -> None:
        self.pvt.flush()

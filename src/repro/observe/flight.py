"""Flight recorder — the last N events preceding a failure.

When a simulation dies (a real exception or an injected ``raise``
fault from :mod:`repro.faults`), the tail of what its
:class:`repro.observe.RunRecord` recorded is the black-box record of
what the machine was doing right before the end: the commits (with
their cycles) and recoveries up to the failure point, which the record
finds as the first uncommitted instruction.  A run that finished ends
its tail with ``run_end``, so dumps distinguish "finished" from "died".

:class:`FaultTripwire` is the observe-side integration with the fault
plan grammar: a ``raise`` rule that selects a traced run arms a
deterministic mid-run trip (at half the instruction count by default),
so the flight recorder's dump can be exercised — and asserted on — at
a reproducible point inside ``simulate()`` rather than before it runs.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.faults.plan import FaultInjected, FaultRule

DEFAULT_CAPACITY = 256


def flight_tail(record, capacity: int = DEFAULT_CAPACITY) -> tuple[int, list[dict]]:
    """``(events_seen, tail)``: how many events the run recorded up to
    its failure point (or its end), and the last ``capacity`` of them,
    oldest first."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    stop = record.committed()
    cycles = record.commit_cycles
    flushes = record.flushes
    finished = record.result is not None
    first = max(0, stop - capacity)
    tail = []
    if first == 0:
        tail.append({"kind": "run_start", "trace": record.trace_name,
                     "scheme": record.scheme_name,
                     "instructions": record.instructions})
    k = bisect_left(flushes, (first,))
    for index in range(first, stop):
        while k < len(flushes) and flushes[k][0] <= index:
            tail.append(_recovery(flushes[k]))
            k += 1
        tail.append({"kind": "commit", "index": index, "cycle": cycles[index]})
    # A recovery of the instruction that never committed.
    tail.extend(_recovery(flush) for flush in flushes[k:])
    if finished:
        tail.append({"kind": "run_end", "cycles": record.result.cycles,
                     "instructions": record.result.instructions})
    seen = 1 + stop + len(flushes) + finished
    return seen, tail[-capacity:]


def _recovery(flush: tuple) -> dict:
    index, cycle, kind, pc = flush
    return {"kind": "recovery", "index": index, "cycle": cycle,
            "reason": kind, "pc": pc}


class FaultTripwire:
    """Raise an injected fault mid-simulation, deterministically.

    Armed from a ``raise`` rule of a :class:`repro.faults.FaultPlan`;
    trips once instruction ``trip_at`` has committed (default: half the
    run, fixed when the run starts), at the snapshot window the record
    ends right after it.  The other fault kinds
    (crash/hang/slow/corrupt_cache) stay worker-side in
    :func:`repro.faults.inject` — only ``raise`` moves inside the run,
    because only it needs to interact with the flight recorder.
    """

    def __init__(self, rule: FaultRule, trip_at: int | None = None) -> None:
        if rule.kind != "raise":
            raise ValueError(f"tripwire needs a raise rule, got {rule.kind!r}")
        self.rule = rule
        self.trip_at = trip_at
        self.tripped = False

    def arm(self, instructions: int) -> int:
        """Fix ``trip_at`` for a run of ``instructions``; returns it."""
        if self.trip_at is None:
            self.trip_at = max(1, instructions // 2)
        return self.trip_at

    def check(self, end: int, commit_cycles: list[int]) -> None:
        """Trip once the committed prefix ``[0, end)`` covers ``trip_at``."""
        if not self.tripped and end > self.trip_at:
            self.tripped = True
            raise FaultInjected(
                f"injected fault ({self.rule.clause()}) at instruction "
                f"{self.trip_at}, cycle {commit_cycles[self.trip_at]}"
            )

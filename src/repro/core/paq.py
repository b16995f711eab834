"""PAQ — the Predicted Address Queue.

Predicted addresses travel from the front-end into this FIFO in the
out-of-order engine; probes drain it opportunistically on load-store
lane bubbles.  An entry not serviced within ``drop_cycles`` of its
allocation is dropped — it can no longer deliver its value before the
load reaches rename, so probing would be wasted work.  A request may
bypass the queue entirely when it is empty (Section 3.2.2).
"""

from __future__ import annotations

from collections import deque


class PaqEntry:
    """One queued predicted address.

    ``bypass`` marks an entry that entered an *empty* queue: if it is
    subsequently serviced, its probe went straight through without
    waiting behind older predictions — the Section 3.2.2 bypass.  The
    flag is set by :meth:`PredictedAddressQueue.push` and only counted
    when the entry is actually serviced; an empty-queue entry that ages
    out or is flushed never bypassed anything.
    """

    __slots__ = ("addr", "size", "way", "allocated_cycle", "bypass")

    def __init__(
        self,
        addr: int,
        size: int,
        way: int | None,
        allocated_cycle: int,
        bypass: bool = False,
    ) -> None:
        self.addr = addr
        self.size = size
        self.way = way
        self.allocated_cycle = allocated_cycle
        self.bypass = bypass


class PredictedAddressQueue:
    """Bounded FIFO with age-based drop."""

    def __init__(self, entries: int = 32, drop_cycles: int = 4) -> None:
        if entries <= 0:
            raise ValueError("PAQ must have at least one entry")
        self.capacity = entries
        self.drop_cycles = drop_cycles
        self._queue: deque[PaqEntry] = deque()
        self.enqueued = 0
        self.dropped = 0
        self.rejected_full = 0
        self.serviced = 0
        self.bypassed = 0
        self.flushed = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def drop_rate(self) -> float:
        """Fraction of accepted entries that aged out (paper: <0.1%).

        Entries cleared by a pipeline flush never had the chance to be
        serviced, so they are excluded from the denominator — otherwise
        branchy workloads would artificially deflate the rate.
        """
        eligible = self.enqueued - self.flushed
        if eligible <= 0:
            return 0.0
        return self.dropped / eligible

    def push(self, entry: PaqEntry) -> bool:
        """Enqueue; returns False (and counts a rejection) when full.

        An entry entering an empty queue is only *marked* as a bypass
        candidate; ``bypassed`` is counted by :meth:`service` when the
        entry's probe actually issues, so entries that age out or are
        flushed before servicing never inflate the bypass count.
        """
        if len(self._queue) >= self.capacity:
            self.rejected_full += 1
            return False
        entry.bypass = not self._queue
        self._queue.append(entry)
        self.enqueued += 1
        return True

    def service(self, cycle: int) -> PaqEntry | None:
        """Pop the next serviceable entry at ``cycle``.

        Entries older than ``drop_cycles`` are discarded first; returns
        ``None`` when nothing remains to probe.
        """
        while self._queue:
            entry = self._queue.popleft()
            if cycle - entry.allocated_cycle > self.drop_cycles:
                self.dropped += 1
                continue
            self.serviced += 1
            if entry.bypass:
                self.bypassed += 1
            return entry
        return None

    def flush(self) -> None:
        """Drop everything (pipeline flush).

        Flushed entries are accounted separately from age-based drops so
        ``serviced + dropped + flushed + len(queue) == enqueued`` always
        holds.
        """
        self.flushed += len(self._queue)
        self._queue.clear()

"""Trace-level analyses behind the paper's motivation figures.

``load_store_conflicts`` reproduces Figure 1: the fraction of dynamic
loads whose value was produced by a store executed since the prior
dynamic instance of that same static load, split into *committed* and
*in-flight* conflicting stores.  The paper reports that about two thirds
of such conflicts involve already-committed stores — exactly the ones
DLVP neutralises by reading the data cache instead of a stale predictor
table.

``repeatability`` reproduces Figure 2: for each dynamic load, how many
times its address (or value) is observed for that static load over the
whole trace.  The paper's headline statistics: 91% of loads have
addresses repeating >= 8 times while only 80% have values repeating
>= 64 times, which is why an address predictor can afford a much lower
confidence threshold.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.trace.columnar import ColumnarTrace
from repro.trace.trace import Trace

_WORD_BYTES = 4


def _touched_words(addr: int, nbytes: int) -> range:
    """Aligned 4-byte word indices covered by ``[addr, addr + nbytes)``."""
    first = addr // _WORD_BYTES
    last = (addr + max(1, nbytes) - 1) // _WORD_BYTES
    return range(first, last + 1)


@dataclass(frozen=True)
class ConflictProfile:
    """Figure 1 numbers for one trace.

    Fractions are of *dynamic loads that have a prior dynamic instance*;
    first-occurrence loads cannot conflict by the paper's definition and
    are excluded from the denominator of the conflict split but included
    in ``total_loads``.
    """

    name: str
    total_loads: int
    repeat_loads: int
    conflict_committed: int
    conflict_inflight: int

    @property
    def conflicts(self) -> int:
        return self.conflict_committed + self.conflict_inflight

    @property
    def fraction_conflicting(self) -> float:
        """Fraction of all dynamic loads that conflict with any store."""
        return self.conflicts / self.total_loads if self.total_loads else 0.0

    @property
    def fraction_committed(self) -> float:
        """Fraction of all dynamic loads conflicting with committed stores."""
        return self.conflict_committed / self.total_loads if self.total_loads else 0.0

    @property
    def fraction_inflight(self) -> float:
        """Fraction of all dynamic loads conflicting with in-flight stores."""
        return self.conflict_inflight / self.total_loads if self.total_loads else 0.0

    @property
    def committed_share(self) -> float:
        """Share of conflicts attributable to committed stores (paper: ~67%)."""
        return self.conflict_committed / self.conflicts if self.conflicts else 0.0


def load_store_conflicts(
    trace: Trace | ColumnarTrace, window: int = 224
) -> ConflictProfile:
    """Classify every dynamic load by conflicting-store recency.

    Args:
        trace: The trace to profile.
        window: Instruction-window size separating *in-flight* from
            *committed* conflicting stores.  A store within ``window``
            dynamic instructions before the load is considered still in
            the pipeline when the load is fetched (the paper's baseline
            has a 224-entry ROB).

    Returns:
        A :class:`ConflictProfile` with the Figure 1 breakdown.
    """
    last_load_index: dict[int, int] = {}
    last_store_index: dict[int, int] = {}
    total = repeats = committed = inflight = 0

    for i, inst in enumerate(trace):
        if inst.is_store:
            assert inst.mem_addr is not None
            for word in _touched_words(inst.mem_addr, inst.mem_size):
                last_store_index[word] = i
            continue
        if not inst.is_load:
            continue
        total += 1
        assert inst.mem_addr is not None
        prior = last_load_index.get(inst.pc)
        last_load_index[inst.pc] = i
        if prior is None:
            continue
        repeats += 1
        newest_store = -1
        for word in _touched_words(inst.mem_addr, inst.footprint_bytes):
            newest_store = max(newest_store, last_store_index.get(word, -1))
        if newest_store <= prior:
            continue
        if i - newest_store <= window:
            inflight += 1
        else:
            committed += 1

    return ConflictProfile(
        name=trace.name,
        total_loads=total,
        repeat_loads=repeats,
        conflict_committed=committed,
        conflict_inflight=inflight,
    )


@dataclass(frozen=True)
class RepeatabilityProfile:
    """Figure 2 numbers for one trace.

    ``address_buckets[k]`` / ``value_buckets[k]`` count dynamic loads
    whose address/value occurs exactly ``k`` times for that static load.
    """

    name: str
    total_loads: int
    address_buckets: dict[int, int]
    value_buckets: dict[int, int]

    def fraction_repeating(self, kind: str, at_least: int) -> float:
        """Fraction of dynamic loads whose address/value repeats >= N times.

        Args:
            kind: ``"address"`` or ``"value"``.
            at_least: Minimum occurrence count.
        """
        buckets = self._buckets(kind)
        if not self.total_loads:
            return 0.0
        hits = sum(count for k, count in buckets.items() if k >= at_least)
        return hits / self.total_loads

    def breakdown(self, kind: str, thresholds: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)) -> dict[int, float]:
        """Cumulative Figure 2 series: fraction repeating >= each threshold."""
        return {t: self.fraction_repeating(kind, t) for t in thresholds}

    def _buckets(self, kind: str) -> dict[int, int]:
        if kind == "address":
            return self.address_buckets
        if kind == "value":
            return self.value_buckets
        raise ValueError(f"kind must be 'address' or 'value', got {kind!r}")


def repeatability(trace: Trace | ColumnarTrace) -> RepeatabilityProfile:
    """Compute the Figure 2 address/value repeatability breakdown.

    One pass over the trace's instructions, in order.
    """
    addr_counts: dict[int, Counter[int]] = defaultdict(Counter)
    value_counts: dict[int, Counter[tuple[int, ...]]] = defaultdict(Counter)
    dynamic: list[tuple[int, int, tuple[int, ...]]] = []

    for inst in trace:
        if not inst.is_load:
            continue
        assert inst.mem_addr is not None
        addr_counts[inst.pc][inst.mem_addr] += 1
        value_counts[inst.pc][inst.values] += 1
        dynamic.append((inst.pc, inst.mem_addr, inst.values))

    address_buckets: Counter[int] = Counter()
    value_buckets: Counter[int] = Counter()
    for pc, addr, values in dynamic:
        address_buckets[addr_counts[pc][addr]] += 1
        value_buckets[value_counts[pc][values]] += 1

    return RepeatabilityProfile(
        name=trace.name,
        total_loads=len(dynamic),
        address_buckets=dict(address_buckets),
        value_buckets=dict(value_buckets),
    )

"""LSCD — Load-Store Conflict Detector (Section 3.2.2).

A 4-entry FIFO filter of load PCs that were *address*-predicted
correctly yet *value*-mispredicted — the signature of an in-flight
store updating the location after the speculative probe.  Captured
loads are barred from being predicted and from updating the APT, so
their APT entries age out naturally.  LSCD is the special-purpose stand
-in for the back-end MDP, which is too tightly coupled to help the
front-end (Section 2.3).
"""

from __future__ import annotations

from collections import OrderedDict


class LoadStoreConflictDetector:
    """Tiny FIFO filter of conflict-prone load PCs."""

    def __init__(self, entries: int = 4) -> None:
        if entries <= 0:
            raise ValueError("LSCD must have at least one entry")
        self.capacity = entries
        self._pcs: OrderedDict[int, None] = OrderedDict()
        self.insertions = 0
        self.filtered = 0

    def __contains__(self, pc: int) -> bool:
        return pc in self._pcs

    def __len__(self) -> int:
        return len(self._pcs)

    def blocks(self, pc: int) -> bool:
        """True when the load at ``pc`` must not predict or train."""
        blocked = pc in self._pcs
        if blocked:
            self.filtered += 1
        return blocked

    def insert(self, pc: int) -> None:
        """Record a conflicting load, evicting the oldest if full.

        Re-inserting a PC already present *refreshes* it (moves it to
        the youngest FIFO slot) rather than occupying a second entry.
        """
        if pc in self._pcs:
            self._pcs.move_to_end(pc)
            return
        if len(self._pcs) >= self.capacity:
            self._pcs.popitem(last=False)
        self._pcs[pc] = None
        self.insertions += 1

    def storage_bits(self, pc_bits: int = 32) -> int:
        return self.capacity * pc_bits

"""CAP: Correlated Address Predictor (Bekerman et al., ISCA 1999).

The paper's address-prediction baseline.  Two direct-mapped tables
(Table 4: 1k entries each):

* *Load buffer* — indexed by load PC; holds a tag, a per-static-load
  history register (hash of the load's recent addresses), a saturating
  confidence counter and the last observed address.
* *Link table* — indexed by the load-buffer history; holds a tag and
  the address that followed that history last time ("link").

Because the context is *per static load*, managing speculative state is
awkward in hardware (Section 2.2); in this functional model we simply
train at execute in program order, which is the idealised behaviour.

The confidence threshold is a parameter: the original paper used 3; the
DLVP paper sweeps 3..64 (Figure 4) and uses 24 inside DLVP-with-CAP
(Section 5.2.3).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.predictors.base import AddressPrediction, PredictorStats


@dataclass(frozen=True)
class CapConfig:
    """CAP parameters (Table 4 defaults).

    ``update_delay`` models the structural lag of CAP's per-static-load
    history: the history is built from load *addresses*, which are not
    known at fetch, so with many instances of a tight loop in flight
    the history (and the link/confidence state) used by a lookup trails
    the youngest executed instance by roughly the in-flight load count.
    PAP does not share this problem — its context is load *PCs*, which
    the front-end has at fetch and can update speculatively (the
    Section 2.2 comparison).  The delay is expressed in dynamic loads;
    224 ROB entries at a ~1/3 load mix give ~48-75 in-flight loads.
    """

    load_buffer_entries: int = 1024
    link_entries: int = 1024
    tag_bits: int = 14
    history_bits: int = 16
    confidence_threshold: int = 3
    address_bits: int = 49
    update_delay: int = 48

    def __post_init__(self) -> None:
        if self.load_buffer_entries & (self.load_buffer_entries - 1):
            raise ValueError("load buffer entries must be a power of two")
        if self.link_entries & (self.link_entries - 1):
            raise ValueError("link entries must be a power of two")
        if self.confidence_threshold <= 0:
            raise ValueError("confidence threshold must be positive")


@dataclass(slots=True)
class _LoadBufferEntry:
    tag: int
    history: int = 0
    confidence: int = 0
    last_addr: int = 0


@dataclass(slots=True)
class _LinkEntry:
    tag: int
    addr: int


class CapPredictor:
    """Two-table correlated address predictor."""

    def __init__(self, config: CapConfig | None = None) -> None:
        self.config = config or CapConfig()
        cfg = self.config
        self._load_buffer: list[_LoadBufferEntry | None] = [None] * cfg.load_buffer_entries
        self._links: list[_LinkEntry | None] = [None] * cfg.link_entries
        # (pc word, load-buffer index, load-buffer tag, address) of the
        # trained loads whose history/link update is still delayed.
        self._pending: deque[tuple[int, int, int, int]] = deque()
        # Last link-table candidate computed at lookup time per static
        # load: confidence is trained against *these* (what a real CAP
        # would actually have predicted at fetch), not against the
        # delayed training stream's self-consistent view.
        self._shadow: dict[int, int | None] = {}
        self.stats = PredictorStats()
        self._lb_bits = cfg.load_buffer_entries.bit_length() - 1
        self._lb_mask = cfg.load_buffer_entries - 1
        self._link_bits = cfg.link_entries.bit_length() - 1
        self._link_mask = cfg.link_entries - 1
        self._tag_bits = cfg.tag_bits
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._history_mask = (1 << cfg.history_bits) - 1
        # Chunk offsets of the history folds (none for a zero width).
        self._index_shifts = (
            tuple(range(0, cfg.history_bits, self._link_bits))
            if self._link_bits else ()
        )
        self._tag_shifts = (
            tuple(range(0, cfg.history_bits, cfg.tag_bits)) if cfg.tag_bits else ()
        )

    # -- indexing -----------------------------------------------------

    def _lb_key(self, pc: int) -> tuple[int, int]:
        """Load-buffer ``(index, tag)`` of the static load at ``pc``."""
        word = pc >> 2
        bits = self._lb_bits
        return (
            (word ^ (word >> bits) ^ (word >> (2 * bits))) & self._lb_mask,
            (word ^ (word >> self._tag_bits)) & self._tag_mask,
        )

    def _link_key(self, word: int, history: int) -> tuple[int, int]:
        """Link-table ``(index, tag)`` for a load's per-static-load history.

        The history is XOR-folded to the index width and to the tag
        width (:func:`~repro.branch.history.fold_history`, inlined over
        the precomputed chunk shifts).
        """
        history &= self._history_mask
        index_mask = self._link_mask
        index_fold = 0
        for shift in self._index_shifts:
            index_fold ^= (history >> shift) & index_mask
        tag_mask = self._tag_mask
        tag_fold = 0
        for shift in self._tag_shifts:
            tag_fold ^= (history >> shift) & tag_mask
        return (
            (word ^ (word >> self._link_bits) ^ index_fold) & index_mask,
            (word ^ (tag_fold << 1)) & tag_mask,
        )

    # -- prediction ---------------------------------------------------

    def predict_pc(self, pc: int) -> AddressPrediction | None:
        """Predict the next address for the static load at ``pc``.

        The link candidate is computed (and remembered for confidence
        training) even while the predictor is below threshold — a real
        CAP reads both tables every lookup and uses the outcome to move
        the confidence counter.
        """
        lb_index, lb_tag = self._lb_key(pc)
        lb = self._load_buffer[lb_index]
        if lb is None or lb.tag != lb_tag:
            self._shadow[pc] = None
            return None
        link_index, link_tag = self._link_key(pc >> 2, lb.history)
        link = self._links[link_index]
        if link is None or link.tag != link_tag:
            self._shadow[pc] = None
            return None
        self._shadow[pc] = link.addr
        if lb.confidence < self.config.confidence_threshold:
            return None
        return AddressPrediction(
            addr=link.addr, size=8, way=None, index=link_index, tag=link.tag
        )

    # -- training -----------------------------------------------------

    def train(self, pc: int, addr: int) -> None:
        """Train with an executed load (applied after ``update_delay``).

        The confidence counter moves at once, by the real lookup
        outcome.  The history and link updates are queued and applied
        once ``update_delay`` younger loads have trained — the in-flight
        history lag described in :class:`CapConfig`.  With
        ``update_delay=0`` they are immediate (the idealised predictor).
        """
        lb_index, lb_tag = self._lb_key(pc)
        lb = self._load_buffer[lb_index]
        if lb is not None and lb.tag == lb_tag:
            shadow = self._shadow.get(pc)
            if shadow is not None:
                if shadow == addr:
                    if lb.confidence < self.config.confidence_threshold:
                        lb.confidence += 1
                elif lb.confidence > 0:
                    lb.confidence -= 1
        delay = self.config.update_delay
        if delay <= 0:
            self._apply_train(pc >> 2, lb_index, lb_tag, addr)
            return
        pending = self._pending
        pending.append((pc >> 2, lb_index, lb_tag, addr))
        while len(pending) > delay:
            self._apply_train(*pending.popleft())

    def _apply_train(self, word: int, lb_index: int, lb_tag: int, addr: int) -> None:
        """Install the (history -> address) link and advance the history.

        CAP keeps a *compressed* address history — 4 low address bits
        per address shifted into the per-load history, four addresses
        deep here.  The compression is what limits it: streams alias
        every 16 elements and data-dependent address sequences fold
        onto each other, so confidence never builds there, while
        constant-address and short-period loads survive.  (Keeping full
        addresses would need hundreds of bits per load-buffer entry.)
        Confidence is handled in :meth:`train` against real lookup
        outcomes, not here.
        """
        lb = self._load_buffer[lb_index]
        if lb is None or lb.tag != lb_tag:
            self._load_buffer[lb_index] = _LoadBufferEntry(
                tag=lb_tag, history=((addr >> 3) & 0xF) & self._history_mask,
                last_addr=addr,
            )
            return
        link_index, link_tag = self._link_key(word, lb.history)
        link = self._links[link_index]
        if link is None or link.tag != link_tag or link.addr != addr:
            self._links[link_index] = _LinkEntry(link_tag, addr)
        lb.history = ((lb.history << 4) | ((addr >> 3) & 0xF)) & self._history_mask
        lb.last_addr = addr

    # -- accounting ---------------------------------------------------

    def record_outcome(self, prediction: AddressPrediction | None, actual_addr: int) -> bool:
        """Coverage/accuracy bookkeeping, same contract as PAP's."""
        self.stats.loads_seen += 1
        if prediction is None:
            return False
        self.stats.predictions += 1
        correct = prediction.addr == actual_addr
        if correct:
            self.stats.correct += 1
        return correct

    def storage_bits(self) -> int:
        """Table 4: ~95k bits for ARMv8 (78k for ARMv7)."""
        cfg = self.config
        lb_bits = cfg.load_buffer_entries * (cfg.tag_bits + 2 + 8 + cfg.history_bits)
        link_bits = cfg.link_entries * (cfg.tag_bits + (cfg.address_bits - 8))
        return lb_bits + link_bits

"""PAP: Path-based Address Prediction (Section 3.1) — the paper's core.

The Address Prediction Table (APT) is a partially tagged, direct-mapped
structure living in the front-end.  Index and tag are both computed as
an XOR of the low-order load-PC bits with the folded load-path history.
Each entry holds a 14-bit tag, the predicted memory address, a 2-bit
forward probabilistic confidence counter (probability vector
{1, 1/2, 1/4} — confident after ~8 observations), a 2-bit size code and
an optional predicted cache way (Table 1).

Training (Section 3.1.2) runs at load execution:

* APT miss — allocation Policy-2: replace the probed entry only if its
  confidence is zero, otherwise decrement it (confident entries survive
  eviction attempts).
* APT hit, address match — probabilistically increment confidence.
* APT hit, address mismatch — reset confidence and reallocate with the
  executed load's information.

A prediction is made only on a tag match with saturated confidence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.predictors.base import AddressPrediction, PredictorStats
from repro.predictors.confidence import PAP_FPC_VECTOR, fpc_advance
from repro.predictors.history import LoadPathHistory
from repro.branch.history import fold_history

_SIZE_CODES = {4: 0, 8: 1, 16: 2, 32: 3}
_SIZE_FROM_CODE = {code: size for size, code in _SIZE_CODES.items()}

# Outcome codes returned by PapPredictor.train — what happened to the
# probed APT entry.  Interned string constants so returning one is free.
TRAIN_ALLOCATE = "allocate"    # empty slot claimed by this load
TRAIN_EVICT = "evict"          # zero-confidence victim replaced
TRAIN_DECAY = "decay"          # confident victim survived; confidence -1
TRAIN_CONFIRM = "confirm"      # address match; confidence advanced
TRAIN_HOLD = "hold"            # address match; probabilistic advance missed
TRAIN_RESET = "reset"          # address mismatch on a hit; retrain in place


def encode_size(size_bytes: int) -> int:
    """Encode an access size into the APT's 2-bit size field."""
    try:
        return _SIZE_CODES[size_bytes]
    except KeyError:
        raise ValueError(f"unsupported access size: {size_bytes}") from None


def decode_size(code: int) -> int:
    """Decode the APT's 2-bit size field back to bytes."""
    return _SIZE_FROM_CODE[code]


@dataclass(frozen=True)
class AptEntryLayout:
    """Field widths of one APT entry (Table 1)."""

    tag_bits: int = 14
    address_bits: int = 49       # 32 for ARMv7, 49 for ARMv8
    confidence_bits: int = 2
    size_bits: int = 2
    way_bits: int = 2            # log2(L1D associativity); optional field

    def bits(self, include_way: bool = False) -> int:
        total = self.tag_bits + self.address_bits + self.confidence_bits + self.size_bits
        return total + (self.way_bits if include_way else 0)


@dataclass(frozen=True)
class PapConfig:
    """PAP predictor parameters (Table 4 defaults: 1k entries, 16-bit
    load-path history — a 67k-bit ≈ 8KB budget for ARMv8)."""

    entries: int = 1024
    tag_bits: int = 14
    history_bits: int = 16
    address_bits: int = 49
    way_prediction: bool = True
    fpc_vector: tuple[float, ...] = PAP_FPC_VECTOR
    allocation_policy: int = 2     # Policy-1: always replace; Policy-2: paper's choice
    seed: int = 0xAB7

    def __post_init__(self) -> None:
        if self.entries & (self.entries - 1):
            raise ValueError("APT entry count must be a power of two")
        if self.allocation_policy not in (1, 2):
            raise ValueError("allocation_policy must be 1 or 2")


class _AptEntry:
    __slots__ = ("tag", "addr", "size_code", "way", "confidence")

    def __init__(
        self,
        tag: int,
        addr: int,
        size_code: int,
        way: int | None,
        confidence: int = 0,
    ) -> None:
        self.tag = tag
        self.addr = addr
        self.size_code = size_code
        self.way = way
        self.confidence = confidence


class PapPredictor:
    """The APT plus its load-path-history context."""

    def __init__(self, config: PapConfig | None = None) -> None:
        self.config = config or PapConfig()
        cfg = self.config
        self._rng = random.Random(cfg.seed)
        self._index_bits = cfg.entries.bit_length() - 1
        self._entries: list[_AptEntry | None] = [None] * cfg.entries
        self.history = LoadPathHistory(cfg.history_bits)
        self._idx_fold = self.history.folded_register(self._index_bits)
        self._tag_fold = self.history.folded_register(cfg.tag_bits)
        # Hot-path constants hoisted off the (frozen-dataclass) config.
        self._index_mask = cfg.entries - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._tag_shift = 2 + cfg.tag_bits
        self._conf_max = len(cfg.fpc_vector)
        self._use_way = cfg.way_prediction
        self.stats = PredictorStats()
        self.allocations = 0
        self.confidence_resets = 0

    # -- key computation ----------------------------------------------

    def compute_key(self, pc: int, history_value: int | None = None) -> tuple[int, int]:
        """(index, tag) for ``pc`` under the given (or current) history.

        Both index and tag XOR low-order PC bits with folded load-path
        history; the tag folds to ``tag_bits`` and the index to
        ``log2(entries)`` bits, so they decorrelate.
        """
        if history_value is None:
            # Hot path: the registered folds track the live history.
            idx_fold = self._idx_fold.value
            tag_fold = self._tag_fold.value
        else:
            cfg = self.config
            idx_fold = fold_history(history_value, cfg.history_bits, self._index_bits)
            tag_fold = fold_history(history_value, cfg.history_bits, cfg.tag_bits)
        word = pc >> 2
        index_bits = self._index_bits
        # Fold high PC bits into the index so regularly-strided code
        # does not alias systematically.
        index = (
            word ^ (word >> index_bits) ^ (word >> (2 * index_bits)) ^ idx_fold
        ) & self._index_mask
        tag = (word ^ (pc >> self._tag_shift) ^ tag_fold) & self._tag_mask
        return index, tag

    # -- prediction ---------------------------------------------------

    def predict(self, index: int, tag: int) -> AddressPrediction | None:
        """Predict using a key computed at fetch.

        Returns a prediction only on a tag match with saturated
        confidence; otherwise the predictor is still training.
        """
        entry = self._entries[index]
        if entry is None or entry.tag != tag:
            return None
        if entry.confidence < self._conf_max:
            return None
        return AddressPrediction(
            entry.addr,
            decode_size(entry.size_code),
            entry.way if self._use_way else None,
            index,
            tag,
        )

    def predict_pc(self, pc: int) -> AddressPrediction | None:
        """Convenience: key computation + prediction under current history."""
        index, tag = self.compute_key(pc)
        return self.predict(index, tag)

    # -- training -----------------------------------------------------

    def train(
        self,
        index: int,
        tag: int,
        addr: int,
        size: int,
        way: int | None = None,
    ) -> str:
        """Train the APT with an executed load (Section 3.1.2).

        ``index``/``tag`` must be the key computed when the load was
        fetched, so the update lands on the entry the prediction used.

        Returns one of the ``TRAIN_*`` outcome codes (a module-level
        string constant — returning one costs nothing on the hot path,
        which ignores it).
        """
        cfg = self.config
        entry = self._entries[index]
        size_code = encode_size(size)

        if entry is None or entry.tag != tag:
            # APT miss.
            if cfg.allocation_policy == 1 or entry is None or entry.confidence == 0:
                evicting = entry is not None
                self._entries[index] = _AptEntry(tag, addr, size_code, way)
                self.allocations += 1
                return TRAIN_EVICT if evicting else TRAIN_ALLOCATE
            entry.confidence -= 1
            return TRAIN_DECAY

        # APT hit.
        if entry.addr == addr:
            outcome = TRAIN_HOLD
            if entry.confidence < self._conf_max:
                if fpc_advance(self._rng, cfg.fpc_vector, entry.confidence):
                    entry.confidence += 1
                    outcome = TRAIN_CONFIRM
            entry.size_code = size_code
            entry.way = way
            return outcome
        self.confidence_resets += 1
        entry.addr = addr
        entry.size_code = size_code
        entry.way = way
        entry.confidence = 0
        return TRAIN_RESET

    # -- accounting ---------------------------------------------------

    def record_outcome(self, prediction: AddressPrediction | None, actual_addr: int) -> bool:
        """Update coverage/accuracy stats for one dynamic load.

        Returns True when the prediction was made and correct.
        """
        self.stats.loads_seen += 1
        if prediction is None:
            return False
        self.stats.predictions += 1
        correct = prediction.addr == actual_addr
        if correct:
            self.stats.correct += 1
        return correct

    def storage_bits(self, include_way: bool = False) -> int:
        """Total APT budget (Table 4: 1k x 67 bits = 67k bits for ARMv8)."""
        layout = AptEntryLayout(
            tag_bits=self.config.tag_bits, address_bits=self.config.address_bits
        )
        return self.config.entries * layout.bits(include_way=include_way)

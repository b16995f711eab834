"""D-VTAGE — the differential VTAGE of Perais & Seznec (HPCA 2015).

Section 2.1 of the DLVP paper describes it: a last-value table (LVT)
sits in front of the first VTAGE component and stores the *last value*
per instruction, while the tagged components store *strides* (deltas).
The prediction is ``last_value + stride``, which captures strided value
sequences VTAGE proper cannot (its entries hold full values and a
changing value resets confidence every time).

The paper also names D-VTAGE's costs.  This model does not charge
either of them:

* the adder on the prediction critical path is not modelled — a
  D-VTAGE prediction is available as early as a VTAGE one;
* the speculative window that tracks in-flight last values is
  idealised (the LVT is updated at train time in program order).

Both are the most favourable assumptions for D-VTAGE.

It shares VTAGE's ISA problem: one slot per destination register, so
the static opcode filter applies equally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.isa import OpClass
from repro.predictors.base import PredictorStats
from repro.predictors.confidence import VTAGE_FPC_VECTOR, fpc_advance
from repro.branch.history import fold_history

_MASK64 = (1 << 64) - 1
_LOAD = int(OpClass.LOAD)


@dataclass(frozen=True)
class DvtageConfig:
    """D-VTAGE parameters, mirroring the VTAGE budget split.

    The LVT replaces part of the tagged-table budget: 256 LVT entries
    (tag + 64-bit last value) plus two tagged stride components keeps
    the total close to the 8KB-class budget of Table 4.
    """

    lvt_entries: int = 256
    table_entries: int = 256
    tag_bits: int = 16
    stride_bits: int = 16
    history_lengths: tuple[int, ...] = (5, 13)
    fpc_vector: tuple[float, ...] = VTAGE_FPC_VECTOR
    static_filter: bool = True
    seed: int = 0xD7A6

    def __post_init__(self) -> None:
        if self.lvt_entries & (self.lvt_entries - 1):
            raise ValueError("LVT entries must be a power of two")
        if self.table_entries & (self.table_entries - 1):
            raise ValueError("table entries must be a power of two")


@dataclass(slots=True)
class _LvtEntry:
    tag: int
    last_value: int


@dataclass(slots=True)
class _StrideEntry:
    tag: int
    stride: int
    confidence: int = 0


class DvtagePredictor:
    """LVT + tagged stride components, single-destination loads.

    The pipeline drives it in two phases: :meth:`predict_flat` at fetch
    reads the LVT and the stride tables once and returns a plain tuple
    handle, :meth:`train_flat` at execute trains from it.  The handle
    is ``(prediction, lvt, lvt_index, lvt_tag, provider, entry, mixed,
    word, folds)``: the LVT entry (None on a miss, which allocates at
    ``lvt_index``/``lvt_tag``), the longest-history stride table whose
    tag matched and its entry (both None on a miss or an LVT miss), the
    history-independent index and tag halves of the load's PC, and the
    per-table ``(table, index fold, tag fold)`` of the fetch-time
    history.  Nothing trains D-VTAGE between a load's fetch and its
    execute, so the carried entries are the live ones.
    """

    def __init__(self, config: DvtageConfig | None = None) -> None:
        self.config = config or DvtageConfig()
        cfg = self.config
        self._rng = random.Random(cfg.seed)
        self._lvt: list[_LvtEntry | None] = [None] * cfg.lvt_entries
        self._tables: list[list[_StrideEntry | None]] = [
            [None] * cfg.table_entries for _ in cfg.history_lengths
        ]
        self._index_bits = cfg.table_entries.bit_length() - 1
        self._index_mask = cfg.table_entries - 1
        self._lvt_mask = cfg.lvt_entries - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._stride_mask = (1 << cfg.stride_bits) - 1
        self._confident = len(cfg.fpc_vector)
        self._newest_first = tuple(reversed(range(len(cfg.history_lengths))))
        self.stats = PredictorStats()
        # One-entry memo of the per-table folds, keyed on the history
        # bits they read.
        self._history_mask = (1 << max(cfg.history_lengths, default=0)) - 1
        self._fold_memo_history: int | None = None
        self._fold_memo: list = []

    def _folds(self, history: int) -> list:
        """Per-table ``(table, index fold, tag fold)`` of ``history``,
        the index fold salted and the tag fold shifted as the keys use
        them."""
        cfg = self.config
        folds = [
            (
                self._tables[table],
                fold_history(history, hist_len, self._index_bits) ^ (table * 0x9E5),
                fold_history(history, hist_len, cfg.tag_bits) << 1,
            )
            for table, hist_len in enumerate(cfg.history_lengths)
        ]
        self._fold_memo_history = history
        self._fold_memo = folds
        return folds

    # -- fetch side ---------------------------------------------------------

    def predict_flat(
        self, pc: int, op: int, ndests: int, is_vector: bool, history: int
    ) -> tuple | None:
        """Fetch side: the lookup handle, or None when ineligible.

        Eligible are single-destination loads, minus vector loads under
        the static filter.  The handle's first field is the predicted
        value (last value + provider stride), or None.
        """
        if op != _LOAD or ndests != 1 or (is_vector and self.config.static_filter):
            return None
        word = pc >> 2
        index_bits = self._index_bits
        mixed = word ^ (word >> index_bits) ^ (word >> (2 * index_bits))
        lvt_index = mixed & self._lvt_mask
        lvt_tag = word & self._tag_mask
        lvt = self._lvt[lvt_index]
        if lvt is None or lvt.tag != lvt_tag:
            return (None, None, lvt_index, lvt_tag, None, None, mixed, word, None)
        history &= self._history_mask
        folds = (
            self._fold_memo if history == self._fold_memo_history
            else self._folds(history)
        )
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        for provider in self._newest_first:
            table, index_fold, tag_fold = folds[provider]
            entry = table[(mixed ^ index_fold) & index_mask]
            if entry is not None and entry.tag == (word ^ tag_fold) & tag_mask:
                prediction = (
                    (lvt.last_value + entry.stride) & _MASK64
                    if entry.confidence >= self._confident else None
                )
                return (prediction, lvt, lvt_index, lvt_tag, provider, entry,
                        mixed, word, folds)
        return (None, lvt, lvt_index, lvt_tag, None, None, mixed, word, folds)

    # -- execute side -------------------------------------------------------

    def train_flat(
        self, handle: tuple | None, op: int, values: tuple[int, ...]
    ) -> int | None:
        """Execute side: train from the fetch-time handle (None when the
        instruction was ineligible); returns the prediction that was
        made.  Every load counts toward the coverage denominator."""
        if op == _LOAD:
            self.stats.loads_seen += 1
        if handle is None:
            return None
        prediction, lvt, lvt_index, lvt_tag, provider, entry, mixed, word, folds = handle
        value = values[0] & _MASK64
        if lvt is None:
            self._lvt[lvt_index] = _LvtEntry(lvt_tag, value)
        else:
            observed = (value - lvt.last_value) & _MASK64
            # Strides are narrow (16 bits, sign-extended) in hardware.
            stride_mask = self._stride_mask
            if observed & ~stride_mask and (observed | stride_mask) != _MASK64:
                observed = None      # stride not representable
            lvt.last_value = value
            start = 0
            if entry is not None:
                if observed is not None and entry.stride == observed:
                    confidence = entry.confidence
                    if confidence < self._confident and fpc_advance(
                        self._rng, self.config.fpc_vector, confidence
                    ):
                        entry.confidence = confidence + 1
                    observed = None  # trained in place: nothing to allocate
                elif entry.confidence == 0 and observed is not None:
                    entry.stride = observed
                else:
                    entry.confidence = 0
                start = provider + 1
            if observed is not None:
                index_mask = self._index_mask
                for table, index_fold, tag_fold in folds[start:]:
                    index = (mixed ^ index_fold) & index_mask
                    victim = table[index]
                    if victim is None or victim.confidence == 0:
                        table[index] = _StrideEntry(
                            (word ^ tag_fold) & self._tag_mask, observed
                        )
                        break
        if prediction is not None:
            self.stats.predictions += 1
            if prediction == value:
                self.stats.correct += 1
        return prediction

    def storage_bits(self) -> int:
        cfg = self.config
        lvt = cfg.lvt_entries * (cfg.tag_bits + 64)
        tables = (
            len(cfg.history_lengths)
            * cfg.table_entries
            * (cfg.tag_bits + cfg.stride_bits + 3)
        )
        return lvt + tables

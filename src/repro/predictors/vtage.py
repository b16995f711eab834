"""VTAGE value predictor (Perais & Seznec, HPCA 2014) with the paper's
ARM-specific opcode filters.

Structure per Table 4: three direct-mapped, partially tagged tables of
256 entries indexed with hashes of PC and global *branch* history of
lengths {0, 5, 13}; each entry carries a 16-bit tag, a 64-bit value and
a 3-bit forward-probabilistic confidence counter.  The 0-history table
doubles as the tagged last-value base ("using tags with the LVP table is
crucial", Section 2.1).

Multi-destination loads (Section 5.2.2): each destination register is a
separate prediction slot whose key concatenates the slot number with the
PC; a 128-bit vector value burns two 64-bit slots.  Mispredicting *any*
slot flushes, and a load only counts as covered when *every* slot
predicts — this is precisely the ISA-induced inefficiency the paper
diagnoses.

Opcode filters:

* ``STATIC`` — LDP/LDM/VLD are never predicted and never update the
  tables (preloaded filter, no training needed).
* ``DYNAMIC`` — a small table tracks per-instruction-type accuracy;
  types observed below 95% accuracy are blocked from predicting and
  updating.  Training the filter costs mispredictions, which is why the
  paper finds static beats dynamic.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.isa import Instruction, OpClass
from repro.predictors.base import PredictorStats
from repro.predictors.confidence import VTAGE_FPC_VECTOR, fpc_advance
from repro.branch.history import fold_history


class OpcodeFilterMode(enum.Enum):
    """Which multi-destination-load filter VTAGE runs with (Fig 7)."""

    NONE = "none"
    DYNAMIC = "dynamic"
    STATIC = "static"


_LOAD = int(OpClass.LOAD)
_MASK64 = (1 << 64) - 1
_EXCLUDED_OPS = frozenset(
    {int(OpClass.STORE), int(OpClass.ATOMIC), int(OpClass.BARRIER)}
)
_OP_NAMES = {int(op): op.name.lower() for op in OpClass}


def instruction_type(inst: Instruction) -> str:
    """Coarse instruction type used by the opcode filters."""
    return _itype_flat(int(inst.op), len(inst.dests), inst.is_vector)


def _itype_flat(op: int, ndests: int, is_vector: bool) -> str:
    """:func:`instruction_type` over raw column scalars."""
    if op == _LOAD:
        if is_vector:
            return "vld"
        if ndests == 2:
            return "ldp"
        if ndests > 2:
            return "ldm"
        return "load"
    return _OP_NAMES[op]


_FILTERED_TYPES = frozenset({"ldp", "ldm", "vld"})


@dataclass(frozen=True)
class VtageConfig:
    """VTAGE parameters (Table 4: 3 x 256 x 83 bits = 62.3k bits)."""

    table_entries: int = 256
    tag_bits: int = 16
    history_lengths: tuple[int, ...] = (0, 5, 13)
    fpc_vector: tuple[float, ...] = VTAGE_FPC_VECTOR
    loads_only: bool = True
    filter_mode: OpcodeFilterMode = OpcodeFilterMode.STATIC
    dynamic_filter_threshold: float = 0.95
    dynamic_filter_warmup: int = 128
    seed: int = 0x57A6

    def __post_init__(self) -> None:
        if self.table_entries & (self.table_entries - 1):
            raise ValueError("table entries must be a power of two")
        if not self.history_lengths or self.history_lengths[0] != 0:
            raise ValueError("first VTAGE component must use history length 0 (LVP base)")


class _VtageEntry:
    __slots__ = ("tag", "value", "confidence")

    def __init__(self, tag: int, value: int, confidence: int = 0) -> None:
        self.tag = tag
        self.value = value
        self.confidence = confidence


class VtagePredictor:
    """VTAGE with per-destination-register slots and opcode filtering.

    The pipeline drives it in two phases: :meth:`begin_flat` at fetch
    looks every prediction slot up and returns a plain tuple handle,
    :meth:`finish_flat` at execute trains from that handle.  A slot's
    key concatenates the slot number and the slot count with the PC
    (the paper's fix for multi-destination loads) and hashes it with
    the folded branch history.  The handle of a single 64-bit slot is
    ``(prediction, provider, entry, mixed, tag_base, folds)``; with
    several slots it is ``(prediction, slots, folds)`` holding one
    ``(mixed, tag_base, provider, entry, value)`` per slot, ``value``
    being the slot's confident prediction or None.  ``provider`` is
    the longest-history table whose tag matched (None on a miss),
    ``entry`` that table's entry, ``mixed``/``tag_base`` the
    history-independent halves of the index and tag, and ``folds`` the
    per-table ``(table, index fold, tag fold)`` of the fetch-time
    history.  Nothing else trains the tables between an instruction's
    fetch and its execute, so the carried entries are the live ones;
    with at least five index bits the slots of one instruction (16 at
    most) never share a table index either.
    """

    def __init__(self, config: VtageConfig | None = None) -> None:
        self.config = config or VtageConfig()
        cfg = self.config
        self._rng = random.Random(cfg.seed)
        self._tables: list[list[_VtageEntry | None]] = [
            [None] * cfg.table_entries for _ in cfg.history_lengths
        ]
        self._index_bits = cfg.table_entries.bit_length() - 1
        self._index_mask = cfg.table_entries - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._confident = len(cfg.fpc_vector)
        self._newest_first = tuple(reversed(range(len(cfg.history_lengths))))
        self._dynamic = cfg.filter_mode == OpcodeFilterMode.DYNAMIC
        self.stats = PredictorStats()              # per-load accounting
        self.slot_predictions = 0
        self.slot_correct = 0
        # Per instruction type: [predictions, correct] of the fully
        # predicted instances (drives the dynamic filter).
        self._type_accuracy: dict[str, list[int]] = {}
        # One-entry memo of the per-table folds, keyed on the history
        # bits they read: those only change on branches, so runs of
        # consecutive loads share the fold computation.
        self._history_mask = (1 << max(cfg.history_lengths)) - 1
        self._fold_memo_history: int | None = None
        self._fold_memo: list = []

    # -- eligibility ----------------------------------------------------

    def eligible_flat(
        self, op: int, ndests: int, is_vector: bool, values: tuple[int, ...]
    ) -> bool:
        """May this instruction be predicted / may it update the tables?"""
        if not ndests or not values:
            return False
        if self.config.loads_only and op != _LOAD:
            return False
        if op in _EXCLUDED_OPS:
            return False
        itype = _itype_flat(op, ndests, is_vector)
        mode = self.config.filter_mode
        if mode == OpcodeFilterMode.STATIC and itype in _FILTERED_TYPES:
            return False
        if mode == OpcodeFilterMode.DYNAMIC:
            acc = self._type_accuracy.get(itype)
            if (
                acc is not None
                and acc[0] >= self.config.dynamic_filter_warmup
                and (acc[1] / acc[0] if acc[0] else 1.0)
                < self.config.dynamic_filter_threshold
            ):
                return False
        return True

    def _folds(self, history: int) -> list:
        """Per-table ``(table, index fold, tag fold)`` of ``history``.

        The index fold carries the table's salt and the tag fold its
        one-bit shift, so a slot's keys are ``(mixed ^ index_fold) &
        index_mask`` and ``(tag_base ^ tag_fold) & tag_mask``.
        """
        cfg = self.config
        folds = [
            (
                self._tables[table],
                (fold_history(history, hist_len, self._index_bits) if hist_len else 0)
                ^ (table * 0x9E5),
                (fold_history(history, hist_len, cfg.tag_bits) if hist_len else 0) << 1,
            )
            for table, hist_len in enumerate(cfg.history_lengths)
        ]
        self._fold_memo_history = history
        self._fold_memo = folds
        return folds

    # -- fetch side -------------------------------------------------------

    def begin_flat(
        self,
        pc: int,
        op: int,
        ndests: int,
        is_vector: bool,
        values: tuple[int, ...],
        history: int,
    ) -> tuple | None:
        """Fetch side: look up every slot; None when ineligible.

        Counts every load toward the coverage denominator, eligible or
        not — the paper's coverage is over *all* dynamic loads.  The
        handle's first field is the predicted values, or None unless
        every slot has a confident provider: a multi-destination load
        is predicted all-or-nothing (a partial prediction would still
        stall the consumers of the unpredicted registers and still risk
        a flush).
        """
        if op == _LOAD:
            self.stats.loads_seen += 1
            # A single-destination scalar load passes every filter but
            # the dynamic one.
            if (ndests != 1 or is_vector or not values or self._dynamic) and (
                not self.eligible_flat(op, ndests, is_vector, values)
            ):
                return None
        elif not self.eligible_flat(op, ndests, is_vector, values):
            return None
        history &= self._history_mask
        folds = (
            self._fold_memo if history == self._fold_memo_history
            else self._folds(history)
        )
        index_bits = self._index_bits
        index_mask = self._index_mask
        tag_mask = self._tag_mask
        confident = self._confident
        if ndests == 1 and not is_vector:
            base = ((pc >> 2) << 5) | 1
            # Fold high bits down so regularly-strided code does not
            # alias systematically in the small (256-entry) tables.
            tag_base = base ^ (base >> index_bits)
            mixed = tag_base ^ (base >> (2 * index_bits))
            for provider in self._newest_first:
                table, index_fold, tag_fold = folds[provider]
                entry = table[(mixed ^ index_fold) & index_mask]
                if entry is not None and entry.tag == (tag_base ^ tag_fold) & tag_mask:
                    prediction = (
                        (entry.value,) if entry.confidence >= confident else None
                    )
                    return (prediction, provider, entry, mixed, tag_base, folds)
            return (None, None, None, mixed, tag_base, folds)

        # One 64-bit slot per destination register, two per vector value.
        num_slots = (2 * ndests) if is_vector else ndests
        slots = []
        slot_values = []
        for slot in range(num_slots):
            base = ((pc >> 2) << 5) | (slot << 1) | (num_slots & 1)
            tag_base = base ^ (base >> index_bits)
            mixed = tag_base ^ (base >> (2 * index_bits))
            provider = entry = None
            for table_id in self._newest_first:
                table, index_fold, tag_fold = folds[table_id]
                hit = table[(mixed ^ index_fold) & index_mask]
                if hit is not None and hit.tag == (tag_base ^ tag_fold) & tag_mask:
                    provider, entry = table_id, hit
                    break
            value = (
                entry.value
                if entry is not None and entry.confidence >= confident
                else None
            )
            slots.append((mixed, tag_base, provider, entry, value))
            slot_values.append(value)
        prediction = None
        if None not in slot_values:
            if is_vector:
                prediction = tuple(
                    (slot_values[2 * i + 1] << 64) | slot_values[2 * i]
                    for i in range(ndests)
                )
            else:
                prediction = tuple(slot_values)
        return (prediction, slots, folds)

    # -- execute side -----------------------------------------------------

    def finish_flat(
        self,
        handle: tuple,
        op: int,
        ndests: int,
        is_vector: bool,
        values: tuple[int, ...],
    ) -> bool:
        """Execute side: train every slot from the fetch-time handle.

        Returns True when the (made) prediction was fully correct.
        """
        prediction = handle[0]
        if ndests == 1 and not is_vector:
            _, provider, entry, mixed, tag_base, folds = handle
            target = values[0] & _MASK64
            self._train_slot(folds, mixed, tag_base, provider, entry, target)
            itype = "load" if op == _LOAD else _OP_NAMES[op]
            num_slots = 1
            hits = correct = prediction is not None and prediction[0] == target
        else:
            _, slots, folds = handle
            if is_vector:
                targets = []
                for value in values:
                    targets.append(value & _MASK64)
                    targets.append((value >> 64) & _MASK64)
            else:
                targets = [v & _MASK64 for v in values]
            # zip() pairs slots with values up to the shorter of the two.
            hits = pairs = 0
            for (mixed, tag_base, provider, entry, value), target in zip(slots, targets):
                pairs += 1
                if value == target:
                    hits += 1
                self._train_slot(folds, mixed, tag_base, provider, entry, target)
            itype = _itype_flat(op, ndests, is_vector)
            num_slots = len(slots)
            correct = prediction is not None and hits == pairs

        acc = self._type_accuracy.get(itype)
        if acc is None:
            acc = self._type_accuracy[itype] = [0, 0]
        if prediction is None:
            return False
        if op == _LOAD:
            self.stats.predictions += 1
            if correct:
                self.stats.correct += 1
        acc[0] += 1
        if correct:
            acc[1] += 1
        self.slot_predictions += num_slots
        self.slot_correct += hits
        return correct

    def _train_slot(
        self,
        folds: list,
        mixed: int,
        tag_base: int,
        provider: int | None,
        entry: _VtageEntry | None,
        target: int,
    ) -> None:
        """Train one slot: the provider learns or loses confidence, and a
        miss allocates in a longer-history table whose victim is
        unconfident."""
        if entry is not None:
            if entry.value == target:
                confidence = entry.confidence
                if confidence < self._confident and fpc_advance(
                    self._rng, self.config.fpc_vector, confidence
                ):
                    entry.confidence = confidence + 1
                return
            if entry.confidence == 0:
                entry.value = target
            else:
                entry.confidence = 0
            start = provider + 1
        else:
            start = 0
        for table, index_fold, tag_fold in folds[start:]:
            index = (mixed ^ index_fold) & self._index_mask
            victim = table[index]
            if victim is None or victim.confidence == 0:
                table[index] = _VtageEntry(
                    (tag_base ^ tag_fold) & self._tag_mask, target
                )
                return

    # -- accounting ---------------------------------------------------------

    def storage_bits(self) -> int:
        """Table 4: 3 x 256 x 83 = 62.3k bits."""
        cfg = self.config
        entry_bits = cfg.tag_bits + 64 + 3
        return len(cfg.history_lengths) * cfg.table_entries * entry_bits

    def type_accuracy_report(self) -> dict[str, float]:
        """Observed per-type accuracy (drives the dynamic filter)."""
        return {
            itype: correct / predictions
            for itype, (predictions, correct) in self._type_accuracy.items()
            if predictions
        }

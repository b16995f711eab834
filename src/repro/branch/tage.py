"""TAGE conditional branch predictor (Seznec, MICRO 2011 flavour).

A bimodal base table backed by several partially tagged components
indexed with geometrically increasing global-history lengths.  The
implementation follows the canonical structure: longest-match provides
the prediction, the alternate prediction arbitrates for "newly
allocated" entries, and useful counters steer allocation on
mispredictions.

Index/tag hashes fold the global history through circularly updated
fold registers, as TAGE hardware does.  There are two implementations
of the same registers, pinned to each other by the tests:

* :meth:`Tage.update`/:meth:`Tage._keys` read one
  :class:`~repro.branch.history.FoldedHistory` per (table, width) — the
  reference, one object per register;
* :meth:`Tage.make_update_fused`, the closure the branch-verdict pass
  runs, packs every table's register of one fold width into one lane
  of one Python int, so a push updates all of them with a few integer
  operations and a lookup reads each table's index and tag with a
  shift and a mask.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.branch.history import GlobalHistory, fold_history


@dataclass(frozen=True)
class TageConfig:
    """Geometry of the TAGE predictor."""

    base_entries: int = 4096
    tagged_entries: int = 1024
    tag_bits: int = 11
    history_lengths: tuple[int, ...] = (4, 8, 16, 32, 64, 128)
    counter_bits: int = 3
    useful_bits: int = 2
    max_history: int = 128

    def __post_init__(self) -> None:
        # A power of two reduces the index hash to a mask, as in hardware
        # (PapConfig asks the same of the APT).
        if self.tagged_entries < 2 or self.tagged_entries & (self.tagged_entries - 1):
            raise ValueError("tagged_entries must be a power of two of at least 2")
        if self.tag_bits < 2:
            raise ValueError("tag_bits must be at least 2")


class _TaggedEntry:
    __slots__ = ("tag", "ctr", "useful")

    def __init__(self, tag: int = 0, ctr: int = 0, useful: int = 0) -> None:
        self.tag = tag
        self.ctr = ctr          # signed, [-4, 3] for 3 bits
        self.useful = useful


class Tage:
    """TAGE predictor with deterministic, seeded allocation randomness."""

    def __init__(self, config: TageConfig | None = None, seed: int = 0x7A6E) -> None:
        self.config = config or TageConfig()
        cfg = self.config
        self._rng = random.Random(seed)
        self.history = GlobalHistory(cfg.max_history)
        self._base = [0] * cfg.base_entries          # 2-bit counters, [0, 3]
        self._tables: list[list[_TaggedEntry]] = [
            [_TaggedEntry() for _ in range(cfg.tagged_entries)]
            for _ in cfg.history_lengths
        ]
        idx_bits = cfg.tagged_entries.bit_length() - 1
        self._idx_bits = idx_bits
        self._idx_folds = [
            self.history.folded_register(L, idx_bits) for L in cfg.history_lengths
        ]
        self._tag_folds = [
            self.history.folded_register(L, cfg.tag_bits) for L in cfg.history_lengths
        ]
        self._tag_folds2 = [
            self.history.folded_register(L, cfg.tag_bits - 1)
            for L in cfg.history_lengths
        ]
        # Per-table fold triples plus hoisted key-hash constants, so
        # _keys() does no per-call list indexing or config access.
        self._key_folds = list(zip(self._idx_folds, self._tag_folds, self._tag_folds2))
        self._entries_mask = cfg.tagged_entries - 1
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (cfg.counter_bits - 1))
        self._useful_max = (1 << cfg.useful_bits) - 1
        # Memoized (index, tag) per table for the last (pc, history) pair.
        self._key_pc = -1
        self._key_version = -1
        self._key_cache: list[tuple[int, int]] = []
        self.predictions = 0
        self.mispredictions = 0

    # -- indexing -----------------------------------------------------

    def _keys(self, pc: int) -> list[tuple[int, int]]:
        """(index, tag) per tagged table, memoized until pc/history change."""
        version = self.history.version
        if pc == self._key_pc and self._key_version == version:
            return self._key_cache
        tag_mask = self._tag_mask
        pc_idx = (pc >> 2) ^ (pc >> (2 + self._idx_bits))
        pc_tag = pc >> 2
        entries_mask = self._entries_mask
        keys = [
            (
                (pc_idx ^ f_idx.value ^ table) & entries_mask,
                (pc_tag ^ f_tag.value ^ (f_tag2.value << 1)) & tag_mask,
            )
            for table, (f_idx, f_tag, f_tag2) in enumerate(self._key_folds)
        ]
        self._key_pc = pc
        self._key_version = version
        self._key_cache = keys
        return keys

    def _index(self, pc: int, table: int) -> int:
        return self._keys(pc)[table][0]

    def _tag(self, pc: int, table: int) -> int:
        return self._keys(pc)[table][1]

    def _base_index(self, pc: int) -> int:
        return (pc >> 2) % self.config.base_entries

    # -- prediction ---------------------------------------------------

    def predict(self, pc: int) -> bool:
        """Predict taken/not-taken for the branch at ``pc``."""
        taken, _, _ = self._lookup(pc)
        return taken

    def _lookup(self, pc: int) -> tuple[bool, int | None, bool]:
        """Returns (prediction, provider table or None, alt prediction)."""
        provider = None
        provider_pred = None
        alt_pred = self._base[self._base_index(pc)] >= 2
        keys = self._keys(pc)
        tables = self._tables
        for table in range(len(keys) - 1, -1, -1):
            index, tag = keys[table]
            entry = tables[table][index]
            if entry.tag == tag:
                if provider is None:
                    provider = table
                    provider_pred = entry.ctr >= 0
                else:
                    alt_pred = entry.ctr >= 0
                    break
        if provider is None:
            return alt_pred, None, alt_pred
        assert provider_pred is not None
        return provider_pred, provider, alt_pred

    # -- update -------------------------------------------------------

    def update(self, pc: int, taken: bool) -> bool:
        """Train on the resolved branch; returns True if mispredicted.

        The caller is responsible for pushing the outcome into
        :attr:`history` afterwards via :meth:`update_history` (kept
        separate so speculative-history schemes can manage it).
        """
        prediction, provider, alt_pred = self._lookup(pc)
        self.predictions += 1
        mispredicted = prediction != taken

        base_idx = self._base_index(pc)
        if provider is None or alt_pred == prediction:
            counter = self._base[base_idx]
            self._base[base_idx] = min(3, counter + 1) if taken else max(0, counter - 1)

        if provider is not None:
            entry = self._tables[provider][self._keys(pc)[provider][0]]
            if taken:
                entry.ctr = min(self._ctr_max, entry.ctr + 1)
            else:
                entry.ctr = max(self._ctr_min, entry.ctr - 1)
            provider_pred = prediction
            if provider_pred != alt_pred:
                if provider_pred == taken:
                    entry.useful = min(self._useful_max, entry.useful + 1)
                else:
                    entry.useful = max(0, entry.useful - 1)

        if mispredicted:
            self.mispredictions += 1
            self._allocate(pc, taken, provider)
        return mispredicted

    def _allocate(self, pc: int, taken: bool, provider: int | None) -> None:
        """Allocate in one table with longer history than the provider."""
        keys = self._keys(pc)
        start = 0 if provider is None else provider + 1
        candidates = [
            table
            for table in range(start, len(self.config.history_lengths))
            if self._tables[table][keys[table][0]].useful == 0
        ]
        if not candidates:
            for table in range(start, len(self.config.history_lengths)):
                entry = self._tables[table][keys[table][0]]
                entry.useful = max(0, entry.useful - 1)
            return
        # Prefer shorter history with probability 1/2 each step, the
        # usual TAGE anti-ping-pong heuristic.
        chosen = candidates[0]
        for candidate in candidates[1:]:
            if self._rng.random() < 0.5:
                break
            chosen = candidate
        entry = self._tables[chosen][keys[chosen][0]]
        entry.tag = keys[chosen][1]
        entry.ctr = 0 if taken else -1
        entry.useful = 0

    def make_update_fused(self):
        """Build the branch-verdict pass's closure: :meth:`update` plus
        :meth:`update_history` on packed fold registers.

        ``update_fused(pc, taken)`` trains on one resolved conditional
        (``taken`` a bool) and returns whether it mispredicted, exactly
        as ``update(pc, taken)`` then ``update_history(taken)`` would;
        ``update_fused(None, True)`` pushes a call's history bit only;
        ``update_fused.keys(pc)`` reads every table's (index, tag) off
        the packed lanes, as :meth:`_keys` does off the FoldedHistory
        registers.  The closure keeps no counters: the verdict pass
        reads only its return values (:attr:`predictions` and
        :attr:`mispredictions` count :meth:`update` calls only).

        The closure starts from :attr:`history` and from then on keeps
        the global history itself, as two ints: the raw bits, and every
        fold register packed into one int.  That int has one segment per
        distinct fold width — the index width, the tag width and the
        tag width minus one (the second tag fold, which with the shipped
        geometry *is* the index fold, so 12 registers stand for 18) —
        and one lane per tagged table in each segment, one bit wider
        than the widest fold.  A push rotates every lane with a shift
        and a mask plus a shift and a mask per width, then XORs in the
        new bit and every table's outgoing bit through one table of
        masks keyed by those bits of the raw history.  A lookup XORs the
        PC hash into every lane at once and reads each table's index and
        tag with a shift and a mask.  :attr:`history` and its
        FoldedHistory registers are left as they were, so every later
        conditional and call must go through the closure.
        """
        cfg = self.config
        lengths = cfg.history_lengths
        count = len(lengths)
        idx_bits = self._idx_bits
        entries_mask = self._entries_mask
        tag_mask = self._tag_mask
        tables = self._tables
        base = self._base
        base_entries = cfg.base_entries
        ctr_max = self._ctr_max
        ctr_min = self._ctr_min
        useful_max = self._useful_max
        random = self._rng.random

        # -- the packed fold registers ----------------------------------
        widths = [idx_bits]
        for width in (cfg.tag_bits, cfg.tag_bits - 1):
            if width not in widths:
                widths.append(width)
        lane = max(widths) + 1
        ones = sum(1 << (lane * table) for table in range(count))
        offset = {width: lane * count * j for j, width in enumerate(widths)}
        body = 0
        new_bit = 0
        for width in widths:
            body |= ((1 << width) - 1) * ones << offset[width]
            new_bit |= ones << offset[width]
        wraps = [(width - 1, ones << offset[width]) for width in widths]
        (wrap0, wrap_ones0), (wrap1, wrap_ones1) = wraps[:2]
        wrap2, wrap_ones2 = wraps[2] if len(wraps) > 2 else (0, 0)
        tag_offset = offset[cfg.tag_bits]
        tag2_offset = offset[cfg.tag_bits - 1]
        table_ids = sum((table & entries_mask) << (lane * table) for table in range(count))

        # Push masks, keyed by the new bit (bit 0) and the bits about to
        # fall out of each table's history (bit L of the history shifted
        # left once, i.e. bit L - 1 before the push).
        outgoing = [
            sum(1 << (offset[width] + lane * table + length % width) for width in widths)
            for table, length in enumerate(lengths)
        ]
        positions = sorted(set(lengths))
        push_sel = sum(1 << length for length in positions) | 1
        push_masks = {}
        for combo in range(1 << (len(positions) + 1)):
            key = combo & 1
            for j, length in enumerate(positions):
                key |= (combo >> (j + 1) & 1) << length
            mask = new_bit if key & 1 else 0
            for table, length in enumerate(lengths):
                if key >> length & 1:
                    mask ^= outgoing[table]
            push_masks[key] = mask
        hist_mask = (1 << max(lengths)) - 1

        hist = self.history.value & hist_mask
        folds = 0
        for width in widths:
            for table, length in enumerate(lengths):
                folds |= fold_history(hist, length, width) << (offset[width] + lane * table)

        # Tables from the longest history down (the provider search
        # order), and the allocation candidates above each provider.
        longest_first = tuple(
            (lane * table, tables[table]) for table in range(count - 1, -1, -1)
        )
        allocate_above = {None: longest_first[::-1]}
        for table in range(count):
            allocate_above[lane * table] = longest_first[::-1][table + 1:]

        def update_fused(pc, taken):
            nonlocal hist, folds
            if pc is None:                   # a call: push only
                mispredicted = False
            else:
                # Every table's (index, tag), one lane each.
                p2 = pc >> 2
                x = folds ^ table_ids ^ ((p2 ^ (p2 >> idx_bits)) & entries_mask) * ones
                y = (folds >> tag_offset) ^ ((folds >> tag2_offset) << 1) ^ (p2 & tag_mask) * ones
                # _lookup, inlined (alt_pred falls back to bimodal lazily).
                provider = None
                provider_entry = None
                prediction = False
                alt_pred = None
                for shift, rows in longest_first:
                    entry = rows[(x >> shift) & entries_mask]
                    if entry.tag == (y >> shift) & tag_mask:
                        if provider is None:
                            provider = shift
                            provider_entry = entry
                            prediction = entry.ctr >= 0
                        else:
                            alt_pred = entry.ctr >= 0
                            break
                base_idx = p2 % base_entries
                if alt_pred is None:
                    alt_pred = base[base_idx] >= 2
                if provider is None:
                    prediction = alt_pred
                mispredicted = prediction != taken

                if provider is None or alt_pred == prediction:
                    counter = base[base_idx]
                    if taken:
                        if counter < 3:
                            base[base_idx] = counter + 1
                    elif counter > 0:
                        base[base_idx] = counter - 1

                if provider is not None:
                    entry = provider_entry
                    ctr = entry.ctr
                    if taken:
                        if ctr < ctr_max:
                            entry.ctr = ctr + 1
                    elif ctr > ctr_min:
                        entry.ctr = ctr - 1
                    if prediction != alt_pred:
                        useful = entry.useful
                        if prediction == taken:
                            if useful < useful_max:
                                entry.useful = useful + 1
                        elif useful > 0:
                            entry.useful = useful - 1

                if mispredicted:
                    # _allocate, inlined: the same candidates in the same
                    # order, and the same draws.
                    chosen = None
                    for shift, rows in allocate_above[provider]:
                        entry = rows[(x >> shift) & entries_mask]
                        if not entry.useful:
                            if chosen is not None and random() < 0.5:
                                break
                            chosen = entry
                            chosen_shift = shift
                    if chosen is None:
                        for shift, rows in allocate_above[provider]:
                            rows[(x >> shift) & entries_mask].useful -= 1
                    else:
                        chosen.tag = (y >> chosen_shift) & tag_mask
                        chosen.ctr = 0 if taken else -1
                        chosen.useful = 0

            # update_history, on the packed registers.
            pushed = (hist << 1) | taken
            rotated = (
                ((folds << 1) & body)
                | ((folds >> wrap0) & wrap_ones0)
                | ((folds >> wrap1) & wrap_ones1)
            )
            if wrap_ones2:
                rotated |= (folds >> wrap2) & wrap_ones2
            folds = rotated ^ push_masks[pushed & push_sel]
            hist = pushed & hist_mask
            return mispredicted

        def keys(pc: int) -> list[tuple[int, int]]:
            """Every table's (index, tag) on the packed lanes, in table
            order: the lookup's arithmetic, the twin of :meth:`_keys`."""
            p2 = pc >> 2
            x = folds ^ table_ids ^ ((p2 ^ (p2 >> idx_bits)) & entries_mask) * ones
            y = (folds >> tag_offset) ^ ((folds >> tag2_offset) << 1) ^ (p2 & tag_mask) * ones
            return [
                ((x >> (lane * table)) & entries_mask, (y >> (lane * table)) & tag_mask)
                for table in range(count)
            ]

        update_fused.keys = keys
        return update_fused

    def update_history(self, taken: bool) -> None:
        self.history.push(1 if taken else 0)

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions

    def storage_bits(self) -> int:
        """Approximate storage budget, for Table 4 style accounting."""
        cfg = self.config
        base = cfg.base_entries * 2
        tagged = (
            len(cfg.history_lengths)
            * cfg.tagged_entries
            * (cfg.tag_bits + cfg.counter_bits + cfg.useful_bits)
        )
        return base + tagged

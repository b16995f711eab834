"""TAGE conditional branch predictor (Seznec, MICRO 2011 flavour).

A bimodal base table backed by several partially tagged components
indexed with geometrically increasing global-history lengths.  The
implementation follows the canonical structure: longest-match provides
the prediction, the alternate prediction arbitrates for "newly
allocated" entries, and useful counters steer allocation on
mispredictions.

Index/tag hashes fold the global history through incrementally updated
:class:`~repro.branch.history.FoldedHistory` registers (one index fold
plus two tag folds per tagged table) instead of refolding the full
history on every lookup, and the per-PC key set is memoized across the
lookup/update/allocate calls of a single resolved branch — together the
bulk of the simulator's former ``fold_history`` hot path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.branch.history import GlobalHistory


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
        self._entries_count = cfg.tagged_entries
        # tagged_entries is a power of two in every shipped config; the
        # modulo in the key hash then reduces to a mask.
        self._entries_mask = (
            cfg.tagged_entries - 1
            if cfg.tagged_entries & (cfg.tagged_entries - 1) == 0
            else None
        )
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (cfg.counter_bits - 1))
        self._useful_max = (1 << cfg.useful_bits) - 1
        # Memoized (index, tag) per table for the last (pc, history) pair.
        self._key_pc = -1
        self._key_version = -1
        self._key_cache: list[tuple[int, int]] = []
        # Optional precomputed key batch (columnar runs; see
        # repro.pipeline.batch.TageKeyBatch) and its chunk cursor.
        self._kb = None
        self._kb_keys: list = []
        self._kb_pos = 0
        self._kb_start = 0
        self._kb_end = 0
        self.predictions = 0
        self.mispredictions = 0

    # -- batched keys -------------------------------------------------

    def bind_key_batch(self, batch) -> None:
        """Attach (or with None, detach) a precomputed key batch.

        While bound, :meth:`update` takes its per-table (index, tag)
        sets from the batch — one entry per conditional branch in trace
        order — and :meth:`update_history` stops maintaining the folded
        registers (they go stale; only the raw history bits advance).
        Callers must resolve every conditional of the batched trace in
        order and must not call :meth:`predict` while bound.
        """
        self._kb = batch
        self._kb_keys = []
        self._kb_pos = 0
        self._kb_start = 0
        self._kb_end = 0

    def _kb_refill(self, pos: int) -> None:
        # Chunks holding only call events yield no keys; keep pulling.
        while pos >= self._kb_end:
            start, keys = self._kb.next_chunk()
            self._kb_keys = keys
            self._kb_start = start
            self._kb_end = start + len(keys)

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
        if entries_mask is not None:
            keys = [
                (
                    (pc_idx ^ f_idx.value ^ table) & entries_mask,
                    (pc_tag ^ f_tag.value ^ (f_tag2.value << 1)) & tag_mask,
                )
                for table, (f_idx, f_tag, f_tag2) in enumerate(self._key_folds)
            ]
        else:
            entries = self._entries_count
            keys = [
                (
                    (pc_idx ^ f_idx.value ^ table) % entries,
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
        if self._kb is not None:
            pos = self._kb_pos
            self._kb_pos = pos + 1
            if pos >= self._kb_end:
                self._kb_refill(pos)
            # Preload the key memo; _lookup/_allocate then hit the cache.
            self._key_pc = pc
            self._key_version = self.history.version
            self._key_cache = self._kb_keys[pos - self._kb_start]
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

    def make_update_fused(self, unit_stats=None):
        """Build a closure fusing :meth:`update` + :meth:`update_history`.

        For the branch-verdict pass: one call per conditional branch
        replaces the update/_lookup/update_history/push chain, with the
        tables, counters and history captured as closure cells.  Handles
        both batched-key and live-fold modes, and trains identically to
        the layered methods (pinned by the golden suite).  When
        ``unit_stats`` (a BranchUnitStats) is given, the closure also
        maintains its conditional counters, fusing the BranchUnit layer.
        """
        s = self
        hist = self.history
        hist_mask = hist._mask
        tables = self._tables
        base = self._base
        base_entries = self.config.base_entries
        ctr_max = self._ctr_max
        ctr_min = self._ctr_min
        useful_max = self._useful_max
        allocate = self._allocate
        keys_live = self._keys
        # Tables from the longest history down (the provider search order).
        longest_first = tuple(
            (table, tables[table]) for table in range(len(tables) - 1, -1, -1)
        )

        def update_fused(pc: int, taken: bool) -> bool:
            if unit_stats is not None:
                unit_stats.conditional += 1
            assert taken is not None
            batched = s._kb is not None
            if batched:
                pos = s._kb_pos
                s._kb_pos = pos + 1
                if pos >= s._kb_end:
                    s._kb_refill(pos)
                keys = s._kb_keys[pos - s._kb_start]
            else:
                keys = keys_live(pc)
            # _lookup, inlined (alt_pred falls back to bimodal lazily).
            provider = None
            provider_entry = None
            prediction = False
            alt_pred = None
            for table, rows in longest_first:
                index, tag = keys[table]
                entry = rows[index]
                if entry.tag == tag:
                    if provider is None:
                        provider = table
                        provider_entry = entry
                        prediction = entry.ctr >= 0
                    else:
                        alt_pred = entry.ctr >= 0
                        break
            base_idx = (pc >> 2) % base_entries
            if alt_pred is None:
                alt_pred = base[base_idx] >= 2
            if provider is None:
                prediction = alt_pred
            s.predictions += 1
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
                s.mispredictions += 1
                if unit_stats is not None:
                    unit_stats.conditional_mispredicted += 1
                # _allocate reads keys through the memo; preload it
                # (only needed here — the common path skips the stores).
                s._key_pc = pc
                s._key_version = hist.version
                s._key_cache = keys
                allocate(pc, taken, provider)

            # update_history, inlined (push_light when batched).
            if batched:
                hist._bits = ((hist._bits << 1) | (1 if taken else 0)) & hist_mask
                hist.version += 1
            else:
                hist.push(1 if taken else 0)
            return mispredicted

        return update_fused

    def update_history(self, taken: bool) -> None:
        if self._kb is not None:
            self.history.push_light(1 if taken else 0)
        else:
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

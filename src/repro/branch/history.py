"""Global history registers and history folding.

Both TAGE (branch outcomes) and PAP (load-path bits) maintain a global
shift register of single-bit events.  :func:`fold_history` compresses a
long history into a short index contribution by XOR-folding fixed-width
chunks, the standard TAGE construction.

Hot-path note: refolding the full history on every predictor lookup is
O(history/target) work per call and dominated the simulator profile.
:class:`FoldedHistory` keeps the folded image as a circularly updated
register, exactly as real TAGE/VTAGE hardware does (Seznec's CBP code;
Perais & Seznec, HPCA 2014): pushing one event bit rotates the folded
register and XORs the incoming and outgoing history bits in/out.  The
invariant — checked by the tests — is that a :class:`FoldedHistory`
always equals ``fold_history(history, history_bits, target_bits)`` of
the register it mirrors.

These objects are the reference: one per register, behind
:meth:`Tage.update <repro.branch.tage.Tage.update>` and
:meth:`PapPredictor.compute_key
<repro.predictors.pap.PapPredictor.compute_key>`.  The run path keeps
the same history in closure-local ints instead — TAGE's verdict pass
packs every fold register into one int
(:meth:`~repro.branch.tage.Tage.make_update_fused`), and DLVP's fetch
closure keeps the raw load-path bits and folds them at each lookup
(:meth:`~repro.core.dlvp.DlvpEngine.make_flat_fetch`) — and
``tests/test_predictor_keys.py`` pins each to its reference.
"""

from __future__ import annotations


def fold_history(history: int, history_bits: int, target_bits: int) -> int:
    """XOR-fold the low ``history_bits`` of ``history`` to ``target_bits``."""
    if target_bits <= 0:
        return 0
    mask = (1 << target_bits) - 1
    value = history & ((1 << history_bits) - 1) if history_bits < 64 * 64 else history
    folded = 0
    while value:
        folded ^= value & mask
        value >>= target_bits
    return folded


class FoldedHistory:
    """Incrementally maintained XOR-fold of a bounded shift register.

    Mirrors the low ``history_bits`` of a :class:`GlobalHistory`, folded
    to ``target_bits``.  ``push`` must be fed the same bit entering the
    history plus the bit falling off position ``history_bits - 1``.
    """

    __slots__ = ("history_bits", "target_bits", "value", "_mask", "_out_shift")

    def __init__(self, history_bits: int, target_bits: int) -> None:
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self.history_bits = history_bits
        self.target_bits = target_bits
        self.value = 0
        self._mask = (1 << target_bits) - 1 if target_bits > 0 else 0
        self._out_shift = history_bits % target_bits if target_bits > 0 else 0

    def push(self, new_bit: int, outgoing_bit: int) -> None:
        """Shift ``new_bit`` into the mirrored history; fold incrementally.

        Every bit of the mirrored history contributes to fold position
        ``i mod target_bits``; shifting the history left by one rotates
        each contribution by one position, the new bit lands at position
        0 and the outgoing bit is cancelled at its post-rotation slot
        ``history_bits mod target_bits``.
        """
        target = self.target_bits
        if target <= 0:
            return
        folded = self.value
        folded = ((folded << 1) | (folded >> (target - 1))) & self._mask
        folded ^= new_bit & 1
        folded ^= (outgoing_bit & 1) << self._out_shift
        self.value = folded

    def rebuild(self, history: int) -> None:
        """Recompute from scratch (snapshot-restore path, rare)."""
        self.value = fold_history(history, self.history_bits, self.target_bits)


class GlobalHistory:
    """Bounded global shift register of single-bit events.

    Supports snapshot/restore, which is how speculative history is
    managed: the front-end takes a snapshot alongside each speculative
    update and restores it on a squash (Section 2.2 highlights that this
    is cheap precisely because the history is global, unlike CAP's
    per-static-load history).

    Predictors register :class:`FoldedHistory` views via
    :meth:`folded_register`; each ``push`` updates every registered fold
    in O(1) and :attr:`version` lets callers memoize per-history-state
    derived values (e.g. TAGE index/tag sets).
    """

    __slots__ = (
        "length", "_mask", "_bits", "_folds", "_fold_params", "_fold_groups",
        "version",
    )

    def __init__(self, length: int) -> None:
        if length <= 0:
            raise ValueError("history length must be positive")
        self.length = length
        self._mask = (1 << length) - 1
        self._bits = 0
        self._folds: list[FoldedHistory] = []
        # Flattened (fold, out_bit_shift, rot_shift, mask, out_shift)
        # tuples so push() updates every fold without method dispatch.
        self._fold_params: list[tuple[FoldedHistory, int, int, int, int]] = []
        # The same folds grouped by mirrored-history length (out-bit
        # position): folds sharing a length see the same outgoing bit,
        # so push() extracts it once per group (TAGE registers three
        # folds per history length — index plus two tag hashes).
        self._fold_groups: list[tuple[int, tuple[tuple[FoldedHistory, int, int, int], ...]]] = []
        self.version = 0

    @property
    def value(self) -> int:
        return self._bits

    def folded_register(self, history_bits: int, target_bits: int) -> FoldedHistory:
        """Create (and keep updated) an incremental fold of this history."""
        if history_bits > self.length:
            raise ValueError(
                f"folded length {history_bits} exceeds history length {self.length}"
            )
        fold = FoldedHistory(history_bits, target_bits)
        fold.rebuild(self._bits)
        self._folds.append(fold)
        if target_bits > 0:
            self._fold_params.append(
                (fold, fold.history_bits - 1, target_bits - 1,
                 fold._mask, fold._out_shift)
            )
            groups: dict[int, list[tuple[FoldedHistory, int, int, int]]] = {}
            for f, out_bit_shift, rot, mask, out_shift in self._fold_params:
                groups.setdefault(out_bit_shift, []).append(
                    (f, rot, mask, 1 << out_shift)
                )
            self._fold_groups = [(obs, tuple(g)) for obs, g in groups.items()]
        return fold

    def push(self, bit: int) -> None:
        """Shift one event bit in (oldest bit falls off).

        Folds are updated per history-length group: the outgoing bit is
        extracted once per group, and the (incoming, outgoing) XOR terms
        are specialized by branching on the two bits — each inner loop
        then applies only the XOR masks that are actually non-zero.
        """
        bit &= 1
        bits = self._bits
        for out_bit_shift, group in self._fold_groups:
            if (bits >> out_bit_shift) & 1:
                if bit:
                    for fold, rot, mask, out_mask in group:
                        value = fold.value
                        fold.value = ((((value << 1) | (value >> rot)) & mask) ^ 1) ^ out_mask
                else:
                    for fold, rot, mask, out_mask in group:
                        value = fold.value
                        fold.value = (((value << 1) | (value >> rot)) & mask) ^ out_mask
            elif bit:
                for fold, rot, mask, _out_mask in group:
                    value = fold.value
                    fold.value = (((value << 1) | (value >> rot)) & mask) ^ 1
            else:
                for fold, rot, mask, _out_mask in group:
                    value = fold.value
                    fold.value = ((value << 1) | (value >> rot)) & mask
        self._bits = ((bits << 1) | bit) & self._mask
        self.version += 1

    def folded(self, target_bits: int) -> int:
        return fold_history(self._bits, self.length, target_bits)

    def snapshot(self) -> int:
        return self._bits

    def restore(self, snapshot: int) -> None:
        self._bits = snapshot & self._mask
        for fold in self._folds:
            fold.rebuild(self._bits)
        self.version += 1

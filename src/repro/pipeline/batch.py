"""numpy-batched predictor key precomputation for the columnar loop.

The ``simulate()`` loop executes loads strictly in trace order, so any per-load quantity that is a pure function of the *trace*
(rather than of mutable predictor state) can be computed for a whole
chunk of loads at once.  DLVP's APT keys are exactly that: the
load-path history register receives one bit — ``(pc >> 2) & 1`` — per
dynamic load, unconditionally (LSCD-blocked and beyond-slot-limit loads
push too, and pipeline flushes never roll the register back), so the
folded history seen by load *j* depends only on the PCs of loads
``0..j-1``.  :class:`PapKeyBatch` vectorizes the whole chain — history
window, XOR-folds, index/tag hash, both fetch-group slots — with numpy
and hands the engine plain Python lists to index on the hot path.

The table *reads* (APT entries, confidence banks) stay sequential:
they depend on training performed by earlier loads, and reordering
them would change outcomes the golden suite pins bit for bit.

numpy is an optional dependency (the ``fast`` extra).  When it is
missing — or ``REPRO_NO_NUMPY=1`` disables it, which is how the
fallback is exercised on machines that do have numpy — every consumer
falls back to the incremental per-load fold updates, which the golden
suite pins to the same bits.
"""

from __future__ import annotations

import os

np = None
if os.environ.get("REPRO_NO_NUMPY") != "1":
    try:
        import numpy as _np

        np = _np
    except ImportError:  # pragma: no cover - exercised via monkeypatch
        np = None


# Loads (PAP) and control-flow events (TAGE) per batched chunk.  Each
# chunk becomes plain Python lists of keys, so its size sets the batch's
# memory high-water mark, while the numpy work per chunk is amortized
# from a few hundred entries up.  A TAGE chunk holds one (index, tag)
# tuple per tagged table per branch, ~1.4 KB a branch, hence the smaller
# count; 65,536-entry chunks built ~100 MB of key tuples on a
# 500k-instruction trace.
PAP_CHUNK_LOADS = 2048
TAGE_CHUNK_EVENTS = 1024


def numpy_available() -> bool:
    """True when the batched key path can run."""
    return np is not None


def _fold_columns(h, source_bits: int, target_bits: int):
    """Vectorized :func:`repro.branch.history.fold_history`.

    XOR-folds the low ``source_bits`` of every element of ``h`` (a
    uint64 array of packed history windows) down to ``target_bits``.
    """
    if target_bits <= 0:
        return np.zeros_like(h)
    mask = np.uint64((1 << target_bits) - 1)
    folded = np.zeros_like(h)
    v = h.copy()
    for _ in range((source_bits + target_bits - 1) // target_bits):
        folded ^= v & mask
        v >>= np.uint64(target_bits)
    return folded


def _next_rows(trace, row: int, want: int, ops: tuple[int, ...]):
    """The next (up to) ``want`` rows from ``row`` on whose op is one of
    ``ops``, and the row after the last of them (or after the trace).

    The ``op`` column is scanned in blocks of four times ``want`` rows,
    so every temporary is bounded however sparse the rows are, and a
    batch keeps only its cursor between chunks.
    """
    column = np.frombuffer(trace.op, dtype=np.uint8)
    size = 4 * want
    parts = []
    while want and row < len(column):
        block = column[row:row + size]
        match = block == ops[0]
        for op in ops[1:]:
            match |= block == op
        hits = np.flatnonzero(match)[:want]
        parts.append(hits + row)
        row += int(hits[-1]) + 1 if len(hits) == want else len(block)
        want -= len(hits)
    return (np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)), row


class PapKeyBatch:
    """Chunked APT (index, tag) keys for every dynamic load of a trace.

    One instance serves one simulation run.  ``next_chunk()`` yields
    ``(start, idx0, tag0, idx1, tag1)``: the keys of loads
    ``start .. start+len-1`` (in dynamic trace order) for fetch-group
    slot 0 and slot 1.  Both slots are precomputed because the slot a
    load lands in depends on run-time fetch grouping, which the batch
    deliberately knows nothing about.

    The load-path history window carried across chunk boundaries keeps
    the computation exact: load *j*'s window is the last
    ``history_bits`` path bits pushed before it, bit 0 the most recent
    — precisely the state of the live shift register at its fetch.

    Each chunk's loads are found from a row cursor, scanning the trace's
    ``op`` column a bounded block of rows at a time, so nothing the
    batch keeps between chunks grows with the trace.
    """

    __slots__ = (
        "_trace", "_load_op", "_row", "_next", "_carry", "_chunk",
        "_history_bits", "_index_bits", "_index_mask", "_tag_bits",
        "_tag_mask", "_tag_shift", "_fga_mask",
    )

    def __init__(
        self,
        trace,
        *,
        load_op: int,
        history_bits: int,
        index_bits: int,
        tag_bits: int,
        tag_shift: int,
        fetch_group_bytes: int,
        chunk_loads: int = PAP_CHUNK_LOADS,
    ) -> None:
        if np is None:
            raise RuntimeError("PapKeyBatch requires numpy")
        if not 0 < history_bits <= 64:
            raise ValueError("PapKeyBatch supports 1..64 history bits")
        self._trace = trace
        self._load_op = load_op
        self._row = 0
        self._next = 0
        self._carry = np.zeros(history_bits, dtype=np.uint64)
        self._chunk = chunk_loads
        self._history_bits = history_bits
        self._index_bits = index_bits
        self._index_mask = (1 << index_bits) - 1
        self._tag_bits = tag_bits
        self._tag_mask = (1 << tag_bits) - 1
        self._tag_shift = tag_shift
        # ~(FETCH_GROUP_BYTES - 1) in 64-bit two's complement.
        self._fga_mask = (1 << 64) - fetch_group_bytes

    def _next_load_pcs(self):
        """The PCs of the next (up to) ``chunk_loads`` loads, advancing
        the row cursor past the last of them."""
        rows, self._row = _next_rows(
            self._trace, self._row, self._chunk, (self._load_op,)
        )
        return np.frombuffer(self._trace.pc, dtype=np.uint64)[rows]

    def next_chunk(self):
        """Keys for the next chunk of loads, as plain Python lists."""
        start = self._next
        pcs = self._next_load_pcs()
        n = int(pcs.shape[0])
        if n == 0:
            raise RuntimeError("PapKeyBatch exhausted: more loads consumed "
                               "than the trace contains")
        self._next = start + n

        # Path bits, then each load's packed history window: bit k-1 of
        # window j is the path bit of the k-th most recent prior load.
        bits = (pcs >> np.uint64(2)) & np.uint64(1)
        hb = self._history_bits
        ext = np.concatenate((self._carry, bits))
        self._carry = ext[-hb:].copy()
        h = np.zeros(n, dtype=np.uint64)
        for k in range(1, hb + 1):
            h |= ext[hb - k:hb - k + n] << np.uint64(k - 1)

        idx_fold = _fold_columns(h, hb, self._index_bits)
        tag_fold = _fold_columns(h, hb, self._tag_bits)

        fga = pcs & np.uint64(self._fga_mask)
        ib = np.uint64(self._index_bits)
        ib2 = np.uint64(2 * self._index_bits)
        index_mask = np.uint64(self._index_mask)
        tag_mask = np.uint64(self._tag_mask)
        tag_shift = np.uint64(self._tag_shift)
        out = []
        for slot_bits in (0, 4):
            # PapPredictor.compute_key of FGA | (slot << 2), vectorized.
            key_pc = fga | np.uint64(slot_bits)
            word = key_pc >> np.uint64(2)
            index = (word ^ (word >> ib) ^ (word >> ib2) ^ idx_fold) & index_mask
            tag = (word ^ (key_pc >> tag_shift) ^ tag_fold) & tag_mask
            out.append(index.tolist())
            out.append(tag.tolist())
        return start, out[0], out[1], out[2], out[3]


class TageKeyBatch:
    """Chunked TAGE (index, tag) key sets for every conditional branch.

    The TAGE global history is as trace-determined as the load-path
    history: every resolved conditional pushes its *actual* outcome
    (the trace's taken bit), every call pushes 1, and nothing else
    touches the register — the model trains on resolved branches in
    program order and never rewinds it.  The per-table index/tag hashes
    a branch sees therefore depend only on the PCs/outcomes of earlier
    control instructions, so the whole folded-history pipeline can be
    computed chunk-at-a-time with numpy.  While a batch is bound the
    live :class:`~repro.branch.history.FoldedHistory` registers are not
    maintained at all (``push_light``), which is where the savings come
    from: 18 incremental fold updates per control-flow event become a
    handful of vector ops per chunk.

    ``next_chunk()`` returns ``(start, keys)`` where ``keys[j]`` is the
    ready-to-use ``Tage._key_cache`` value (one (index, tag) pair per
    tagged table) for conditional branch ``start + j`` in dynamic trace
    order.  History windows longer than 64 bits (the shipped config
    folds up to 128) are carried in a lo/hi pair of uint64 columns; the
    hi half's fold is rotated by ``64 mod target`` before XOR, which is
    exactly where its bits land in :func:`fold_history`'s chunking.

    Each chunk's control-flow events are found from a row cursor, as
    :class:`PapKeyBatch` finds its loads: the ``op`` column is scanned a
    bounded block of rows at a time, so nothing the batch keeps between
    chunks grows with the trace.
    """

    __slots__ = (
        "_trace", "_branch_op", "_call_op", "_taken_flag", "_row",
        "_branches_done", "_carry", "_chunk", "_hist", "_lengths",
        "_index_bits", "_entries_mask", "_tag_bits", "_tag_mask",
    )

    def __init__(
        self,
        trace,
        *,
        branch_op: int,
        call_op: int,
        taken_flag: int,
        history_lengths: tuple[int, ...],
        max_history: int,
        index_bits: int,
        entries_mask: int,
        tag_bits: int,
        chunk_events: int = TAGE_CHUNK_EVENTS,
    ) -> None:
        if np is None:
            raise RuntimeError("TageKeyBatch requires numpy")
        if not 0 < max_history <= 128:
            raise ValueError("TageKeyBatch supports 1..128 history bits")
        self._trace = trace
        self._branch_op = branch_op
        self._call_op = call_op
        self._taken_flag = taken_flag
        self._row = 0
        self._branches_done = 0
        self._carry = np.zeros(max_history, dtype=np.uint64)
        self._chunk = chunk_events
        self._hist = max_history
        self._lengths = tuple(history_lengths)
        self._index_bits = index_bits
        self._entries_mask = entries_mask
        self._tag_bits = tag_bits
        self._tag_mask = (1 << tag_bits) - 1

    def _next_events(self):
        """The next (up to) ``chunk_events`` control-flow events, advancing
        the row cursor past the last of them.

        Returns ``(bits, lookup, pcs)``: each event's pushed history
        bit (a branch's outcome, 1 for a call), whether it is a
        conditional branch, and the conditional branches' PCs.
        """
        trace = self._trace
        rows, self._row = _next_rows(
            trace, self._row, self._chunk, (self._branch_op, self._call_op)
        )
        lookup = np.frombuffer(trace.op, dtype=np.uint8)[rows] == self._branch_op
        branches = rows[lookup]
        bits = np.ones(len(rows), dtype=np.uint64)
        flags = np.frombuffer(trace.flags, dtype=np.uint8)[branches]
        bits[lookup] = (flags & self._taken_flag) != 0
        return bits, lookup, np.frombuffer(trace.pc, dtype=np.uint64)[branches]

    def _fold(self, lo, hi, source_bits: int, target_bits: int):
        """Fold a (lo, hi) pair of 64-bit window columns to target_bits."""
        if target_bits <= 0:
            return np.zeros_like(lo)
        if source_bits <= 64:
            h = lo if source_bits == 64 else lo & np.uint64((1 << source_bits) - 1)
            return _fold_columns(h, source_bits, target_bits)
        rem = source_bits - 64
        h_hi = hi if rem == 64 else hi & np.uint64((1 << rem) - 1)
        folded = _fold_columns(lo, 64, target_bits)
        folded_hi = _fold_columns(h_hi, rem, target_bits)
        shift = 64 % target_bits
        if shift:
            # Bit i of the hi word sits at history position 64 + i, so
            # its fold contribution lands rotated by 64 mod target.
            tmask = np.uint64((1 << target_bits) - 1)
            folded_hi = (
                (folded_hi << np.uint64(shift))
                | (folded_hi >> np.uint64(target_bits - shift))
            ) & tmask
        return folded ^ folded_hi

    def next_chunk(self):
        """Key sets for the next chunk of conditional branches.

        Returns ``(start, keys)``; ``keys`` may be empty when the chunk
        of control-flow events contained only calls.
        """
        bits, lookup, bpcs = self._next_events()
        n = int(bits.shape[0])
        if n == 0:
            raise RuntimeError("TageKeyBatch exhausted: more branches "
                               "resolved than the trace contains")

        hist = self._hist
        ext = np.concatenate((self._carry, bits))
        self._carry = ext[-hist:].copy()
        # Window before event j: bit k-1 is the k-th most recent pushed
        # outcome.  Events past bit 63 go into a second (hi) column.
        # win[i] packs ext[i], ext[i-1], ... at bits 0, 1, ...: each
        # doubling step ORs in the window `width` events older, so
        # log2(64) shifts build every 64-bit window.
        win = ext.copy()
        width = 1
        while width < min(hist, 64):
            win[width:] |= win[:-width] << np.uint64(width)
            width *= 2
        lo = win[hist - 1:hist - 1 + n]
        if hist < width:
            lo = lo & np.uint64((1 << hist) - 1)
        if hist > 64:
            hi = win[hist - 65:hist - 65 + n]
            if hist < 128:
                hi = hi & np.uint64((1 << (hist - 64)) - 1)
            hi = hi[lookup]
        else:
            hi = None
        lo = lo[lookup]

        m = int(lo.shape[0])
        start = self._branches_done
        self._branches_done = start + m
        if m == 0:
            return start, []
        pc_tag = bpcs >> np.uint64(2)
        pc_idx = pc_tag ^ (bpcs >> np.uint64(2 + self._index_bits))
        entries_mask = np.uint64(self._entries_mask)
        tag_mask = np.uint64(self._tag_mask)
        cols = []
        for table, length in enumerate(self._lengths):
            # Tage._keys, vectorized: one index fold plus two tag folds.
            f_idx = self._fold(lo, hi, length, self._index_bits)
            f_tag = self._fold(lo, hi, length, self._tag_bits)
            f_tag2 = self._fold(lo, hi, length, self._tag_bits - 1)
            index = (pc_idx ^ f_idx ^ np.uint64(table)) & entries_mask
            tag = (pc_tag ^ f_tag ^ (f_tag2 << np.uint64(1))) & tag_mask
            cols.append(list(zip(index.tolist(), tag.tolist())))
        return start, list(zip(*cols))


def tage_key_batch(trace, tage):
    """Build a :class:`TageKeyBatch` for ``tage``, or None if unsupported.

    Requires numpy, a power-of-two tagged-table geometry (the key hash
    reduces to a mask), histories foldable from two 64-bit words, and a
    fresh predictor (the batch assumes the history register starts
    empty, which a just-constructed BranchUnit guarantees).
    """
    if np is None:
        return None
    cfg = tage.config
    if (
        tage._entries_mask is None
        or cfg.max_history > 128
        or tage.history.value != 0
        or tage.predictions
    ):
        return None
    from repro.isa import OpClass
    from repro.trace.columnar import F_TAKEN

    return TageKeyBatch(
        trace,
        branch_op=int(OpClass.BRANCH),
        call_op=int(OpClass.CALL),
        taken_flag=F_TAKEN,
        history_lengths=cfg.history_lengths,
        max_history=cfg.max_history,
        index_bits=tage._idx_bits,
        entries_mask=tage._entries_mask,
        tag_bits=cfg.tag_bits,
    )

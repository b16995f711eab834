"""The DLVP engine: address-predict at fetch, probe, value-predict,
train at execute (Section 3.2.2, Figure 3).

The engine is deliberately decoupled from the timing model: the
pipeline decides *when* things happen (fetch cycle, probe cycle,
execute cycle) and the engine decides *what* happens (predictions,
probes, training, LSCD filtering).  There is one load path: the
per-run closures :meth:`DlvpEngine.make_flat_fetch` (PAP or CAP
lookup, PAQ, L1 probe, value extraction) and
:meth:`DlvpEngine.make_flat_execute` (validation, training, LSCD
insertion), which ``DlvpScheme`` installs as its ``flat_fetch`` /
``flat_execute``.  The fetch closure keeps PAP's load-path history
itself, as the raw path bits in one int, and folds them into the APT
key at each lookup.

Probe semantics: the probe reads the *committed* memory image — the
simulator applies stores to the image only when they commit, so an
in-flight store is invisible to the probe exactly as it is invisible to
the real L1 data array.  A correctly predicted address can therefore
still yield a wrong value; that outcome trains the LSCD.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.branch.history import fold_history
from repro.isa import OpClass
from repro.isa.fetch import FETCH_GROUP_BYTES
from repro.memory import MemoryHierarchy, MemoryImage
from repro.predictors.cap import CapPredictor
from repro.predictors.pap import PapPredictor
from repro.core.config import DlvpConfig
from repro.core.lscd import LoadStoreConflictDetector
from repro.core.paq import PredictedAddressQueue

_PROBE_BYTES = 32      # captures LDM footprints up to 4 x 8B / VLD 2 x 16B
# fetch_group_address() of a PC, shifted to the PC word (pc >> 2).
_FGA_WORD_MASK = ~(FETCH_GROUP_BYTES - 1) >> 2
_LOAD_INT = int(OpClass.LOAD)

# Handle of an LSCD-blocked load.  Identity-checked in the execute
# closure, so one shared tuple serves every blocked load.  The -1
# fields keep it distinct from every real handle: CPython merges equal
# constant tuples across a module, so a (0, 0, None) literal elsewhere
# would BE this object and turn ordinary unpredicted loads into blocked
# ones.
_FLAT_BLOCKED = (-1, -1, None)


def _words(raw: int, width: int, mask: int, count: int) -> tuple[int, ...]:
    """The ``count`` consecutive ``width``-bit words of ``raw``, lowest
    first, each masked with ``mask`` — a multi-destination probe's
    values.  A function of its own so the fetch closure's locals are not
    captured by a generator (which would make them cells, allocated on
    every call)."""
    return tuple((raw >> (width * k)) & mask for k in range(count))


@dataclass
class DlvpStats:
    """Everything the evaluation reads off a DLVP run."""

    loads_seen: int = 0
    lscd_blocked: int = 0
    address_predictions: int = 0
    address_correct: int = 0
    value_predictions: int = 0
    value_correct: int = 0
    probes: int = 0
    probe_hits: int = 0
    probe_misses: int = 0
    probes_way_predicted: int = 0    # probes that read a single predicted way
    way_mispredictions: int = 0
    prefetches: int = 0
    inflight_conflicts: int = 0      # addr right, value wrong -> LSCD insert
    paq_flushed: int = 0             # PAQ entries cleared by flushes (always 0)

    @property
    def coverage(self) -> float:
        """Value-prediction coverage (Figure 6b's definition)."""
        return self.value_predictions / self.loads_seen if self.loads_seen else 0.0

    @property
    def address_accuracy(self) -> float:
        if not self.address_predictions:
            return 1.0
        return self.address_correct / self.address_predictions

    @property
    def value_accuracy(self) -> float:
        if not self.value_predictions:
            return 1.0
        return self.value_correct / self.value_predictions

    @property
    def prefetch_fraction(self) -> float:
        """Fraction of loads for which DLVP generated a prefetch (Fig 5)."""
        return self.prefetches / self.loads_seen if self.loads_seen else 0.0


class DlvpEngine:
    """DLVP with a pluggable address predictor (PAP, or CAP for the
    paper's "CAP" value-prediction comparison point)."""

    def __init__(
        self,
        config: DlvpConfig | None = None,
        hierarchy: MemoryHierarchy | None = None,
        image: MemoryImage | None = None,
        address_predictor: PapPredictor | CapPredictor | None = None,
    ) -> None:
        self.config = config if config is not None else DlvpConfig()
        self.hierarchy = hierarchy if hierarchy is not None else MemoryHierarchy()
        # NB: ``image or MemoryImage()`` would be wrong — an empty image
        # is falsy (it has __len__) and must still be shared by reference.
        self.image = image if image is not None else MemoryImage()
        self.predictor = (
            address_predictor
            if address_predictor is not None
            else PapPredictor(self.config.pap)
        )
        self.paq = PredictedAddressQueue(
            entries=self.config.paq_entries, drop_cycles=self.config.paq_drop_cycles
        )
        # lscd_entries == 0 disables the filter entirely (ablation).
        self._lscd_enabled = self.config.lscd_entries > 0
        self.lscd = LoadStoreConflictDetector(max(1, self.config.lscd_entries))
        self.stats = DlvpStats()
        # Resolved once: the isinstance check sat on the per-load path.
        self._is_pap = isinstance(self.predictor, PapPredictor)
        # Hot-path aliases captured by make_flat_fetch().
        self._way_pred_enabled = self.config.way_prediction
        self._prefetch_on_miss = self.config.prefetch_on_miss
        self._lscd_pcs = self.lscd._pcs

    # -- the load path ----------------------------------------------------

    def make_flat_fetch(self):
        """Build the per-load fetch closure (``DlvpScheme.flat_fetch``).

        Address prediction (PAP keyed by fetch group and slot, or CAP by
        PC), the PAQ, the speculative L1 probe (``hierarchy.probe_l1``,
        inlined) and value extraction, as one call with every hot
        attribute captured as a closure cell — per-load attribute
        chasing was the dominant scheme-side cost.

        PAP's load-path history lives in the closure: an int of the
        last ``history_bits`` path bits, starting from the predictor's
        :attr:`~repro.predictors.pap.PapPredictor.history` and pushed by
        every load, blocked and beyond-slot loads included.  The
        predictor's own register is left as it was, so the closure is
        built per run (``flat_prepare``).  Each lookup folds the raw
        bits into the key: :meth:`PapPredictor.compute_key` XORs the
        fold with three chunks of the PC word for the index and two for
        the tag, so XORing the raw bits into the word first folds a
        history of up to three index widths and two tag widths in the
        same operations (two chunks each at the default 16 bits); a
        longer history folds its remaining chunks with
        :func:`~repro.branch.history.fold_history`.
        """
        lscd_enabled = self._lscd_enabled
        lscd_pcs = self._lscd_pcs
        lscd = self.lscd
        stats = self.stats
        is_pap = self._is_pap
        if is_pap:
            p = self.predictor
            history_bits = p.config.history_bits
            index_bits = p._index_bits
            index_bits2 = 2 * index_bits
            tag_bits = p.config.tag_bits
            path_mask = (1 << history_bits) - 1
            path = p.history.value & path_mask
            # Chunks the word's hash does not cover (history longer than
            # three index widths or two tag widths).
            index_rest = 3 * index_bits
            tag_rest = 2 * tag_bits
            long_path = history_bits > index_rest or history_bits > tag_rest
            fga_word_mask = _FGA_WORD_MASK
            index_mask = p._index_mask
            tag_mask = p._tag_mask
            apt_entries = p._entries
            conf_max = p._conf_max
            use_way = p._use_way
            predict_pc = None
        else:
            predict_pc = self.predictor.predict_pc
        paq = self.paq
        drop_cycles = paq.drop_cycles
        way_pred_enabled = self._way_pred_enabled
        prefetch_on_miss = self._prefetch_on_miss
        hierarchy = self.hierarchy
        tlb_shift = hierarchy._tlb_shift
        tlb_mask = hierarchy._tlb_mask
        tlb_where = hierarchy._tlb_where
        tlb_lru = hierarchy._tlb_lru
        tlb_stats = hierarchy._tlb_stats
        tlb_fill = hierarchy._tlb_array.fill
        l1_shift = hierarchy._l1_shift
        l1_mask = hierarchy._l1_mask
        l1_where = hierarchy._l1_where
        l1_stats = hierarchy._l1_stats
        prefetch_fill = hierarchy.prefetch_fill
        image_read = self.image.read

        def flat_fetch(
            pc, op, mem_addr, mem_size, flags, ndests, values,
            fetch_cycle, load_slot, probe_cycle,
        ):
            nonlocal path
            if op != _LOAD_INT:
                return None
            if load_slot is None:
                # Beyond the per-group prediction limit (Section 3.1.1):
                # fewer than 2% of fetch groups carry more than two
                # loads; the extras still walk the load path (history
                # update) and count toward coverage denominators, but
                # are neither predicted nor trained.
                stats.loads_seen += 1
                if is_pap:
                    path = ((path << 1) | ((pc >> 2) & 1)) & path_mask
                return None
            if lscd_enabled and pc in lscd_pcs:       # lscd.blocks(), inlined
                lscd.filtered += 1
                if is_pap:
                    path = ((path << 1) | ((pc >> 2) & 1)) & path_mask
                return (None, False, _FLAT_BLOCKED, ndests)

            if is_pap:
                # PapPredictor.compute_key, inlined.  The key is "fetch
                # group PC and fetch group PC plus one" (Section 3.1.1),
                # the slot placed at bit 2 (bit 0 of the PC word).
                word = pc >> 2
                keyed = ((word & fga_word_mask) | load_slot) ^ path
                index = (keyed ^ (keyed >> index_bits) ^ (keyed >> index_bits2)) & index_mask
                tag = (keyed ^ (keyed >> tag_bits)) & tag_mask
                if long_path:
                    index ^= fold_history(path >> index_rest, history_bits, index_bits)
                    tag ^= fold_history(path >> tag_rest, history_bits, tag_bits)
                path = ((path << 1) | (word & 1)) & path_mask
                entry = apt_entries[index]
                if entry is None or entry.tag != tag or entry.confidence < conf_max:
                    return (None, False, (index, tag, None), ndests)
                pred_addr = entry.addr
                pred_way = entry.way if use_way else None
            else:
                index = tag = 0
                prediction = predict_pc(pc)
                if prediction is None:
                    return (None, False, (0, 0, None), ndests)
                pred_addr = prediction.addr
                pred_way = prediction.way

            # PAQ push + drain.  The probe is serviced in this same
            # fetch call, so the queue is empty at every push: the entry
            # bypasses it (Section 3.2.2) unless it is already too old
            # at its probe cycle.
            paq.enqueued += 1
            if probe_cycle - fetch_cycle > drop_cycles:
                paq.dropped += 1
                return (None, False, (index, tag, None), ndests)
            paq.serviced += 1
            paq.bypassed += 1

            handle = (index, tag, pred_addr)
            stats.probes += 1
            way_predicted = way_pred_enabled and pred_way is not None
            if way_predicted:
                stats.probes_way_predicted += 1
            # hierarchy.probe_l1, inlined: TLB translate, L1 residency.
            block = pred_addr >> tlb_shift
            set_idx = block & tlb_mask
            way = tlb_where[set_idx].get(block)
            if way is not None:
                lru = tlb_lru[set_idx]
                if lru[0] != way:
                    lru.remove(way)
                    lru.insert(0, way)
                tlb_stats.hits += 1
            else:
                tlb_stats.misses += 1
                tlb_fill(pred_addr)
            block = pred_addr >> l1_shift
            actual_way = l1_where[block & l1_mask].get(block)
            if actual_way is not None:
                l1_stats.probe_hits += 1
                hit = True
                if way_predicted and pred_way != actual_way:
                    stats.way_mispredictions += 1
                    hit = False
            else:
                l1_stats.probe_misses += 1
                hit = False
            if hit:
                stats.probe_hits += 1
                mask = (1 << (8 * mem_size)) - 1
                if ndests == 1:
                    if mem_size > _PROBE_BYTES:
                        return (None, False, handle, ndests)
                    # Word-granular footprints read exactly what the load
                    # covers: read() is pure, so reading mem_size bytes
                    # is bit-identical to masking a _PROBE_BYTES read.
                    if mem_size and not mem_size & 3:
                        v = image_read(pred_addr, mem_size)
                    else:
                        v = image_read(pred_addr, _PROBE_BYTES) & mask
                    # Correct when it matches the loaded values masked
                    # to the access width.
                    if len(values) == 1:
                        correct = v == (values[0] & mask)
                    else:
                        correct = (v,) == tuple(map(mask.__and__, values))
                    return ((v,), correct, handle, ndests)
                if mem_size * (ndests or 1) > _PROBE_BYTES:
                    return (None, False, handle, ndests)
                pred = _words(image_read(pred_addr, _PROBE_BYTES), 8 * mem_size, mask, ndests)
                correct = pred == tuple(map(mask.__and__, values))
                return (pred, correct, handle, ndests)
            stats.probe_misses += 1
            if prefetch_on_miss:
                prefetch_fill(pred_addr)
                stats.prefetches += 1
            return (None, False, handle, ndests)

        return flat_fetch

    def make_flat_execute(self):
        """Build the per-load execute closure (``DlvpScheme.flat_execute``).

        Validates the prediction and trains the address predictor
        (Section 3.1.2); a correctly address-predicted load whose value
        was wrong raced an in-flight store and enters the LSCD.
        """
        stats = self.stats
        is_pap = self._is_pap
        train = self.predictor.train
        lscd_enabled = self._lscd_enabled
        lscd_insert = self.lscd.insert

        def flat_execute(
            pc, op, mem_addr, mem_size, flags, ndests, values,
            handle, predicted, way, value_predicted,
        ):
            stats.loads_seen += 1
            if handle is _FLAT_BLOCKED:
                stats.lscd_blocked += 1
                return False, False

            pred_addr = handle[2]
            if pred_addr is not None:
                addr_correct = pred_addr == mem_addr
                stats.address_predictions += 1
                if addr_correct:
                    stats.address_correct += 1
            else:
                addr_correct = False

            if is_pap:
                train(handle[0], handle[1], mem_addr, mem_size, way)
            else:
                train(pc, mem_addr)

            value_correct = False
            if value_predicted:
                mask = (1 << (8 * mem_size)) - 1
                if len(values) == 1:
                    value_correct = predicted == (values[0] & mask,)
                else:
                    value_correct = predicted == tuple(v & mask for v in values)
                stats.value_predictions += 1
                if value_correct:
                    stats.value_correct += 1
                elif addr_correct:
                    stats.inflight_conflicts += 1
                    if lscd_enabled:
                        lscd_insert(pc)

            return value_predicted, value_correct

        return flat_execute

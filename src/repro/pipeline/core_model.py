"""The trace-driven out-of-order core model.

One pass over the trace assigns each dynamic instruction a fetch,
issue, completion and commit cycle under the baseline's resource
constraints (Table 4).  Wrong-path work is not simulated; control and
value mispredictions cost their redirect/refill latency, the standard
trace-driven approximation.

What the model captures (because the paper's results hinge on it):

* load-use dependence chains — consumers wait on ``reg_ready`` unless a
  value prediction made the destination available at rename;
* flush costs — branch, memory-order and value mispredictions push the
  fetch stream past the resolving cycle plus the front-end depth;
* early branch resolution — a branch fed by a value-predicted load
  issues earlier, shrinking its own misprediction penalty (the paper's
  perlbmk effect);
* in-flight-store visibility — stores update the committed memory image
  only at commit, so DLVP probes can return stale values for racing
  loads (the LSCD's reason to exist);
* lane/width/window contention — 2 LS + 6 generic lanes, 4-wide fetch,
  8-wide commit, ROB/LDQ/STQ occupancy.

There is one per-instruction loop, and it reads a
:class:`~repro.trace.ColumnarTrace` (an object :class:`~repro.trace.Trace`
is converted first).  Traced runs use the same loop: a
:class:`repro.observe.RunRecord` passed as ``record`` receives counters
at snapshot-window ends and a log of flushes, so what is observed is
what production runs execute.

Performance: the per-instruction loop is the whole simulator's hot
path, so it trades a little readability for throughput — method and
attribute lookups are hoisted into locals, the per-word store tracking
dicts are pruned as stores retire (they are otherwise O(trace) — a
memory leak and a dict-miss slowdown on long traces), and issue-port
busy maps are pruned below the monotonically advancing fetch cycle.
Commit cycles are kept only for the ROB window (and the LDQ/STQ
windows), so a run holds its trace plus a constant, whatever its
length.  All of it is outcome-preserving; the golden equivalence test
pins every suite kernel's ``SimResult`` to the seed model bit for bit.
"""

from __future__ import annotations

from collections import deque

from repro.branch import GlobalHistory, TageConfig
from repro.branch import verdicts as _verdicts
from repro.isa import (
    EXECUTION_LATENCY,
    OpClass,
    is_branch_op,
)
from repro.isa.fetch import FETCH_GROUP_BYTES
from repro.mdp import StoreSetsPredictor
from repro.memory import HierarchyConfig, MemoryHierarchy, MemoryImage
from repro.memory.prefetcher import _StrideEntry as _PfStrideEntry
from repro.pipeline.config import CoreConfig
from repro.pipeline.recovery import RecoveryMode
from repro.pipeline.schemes import Scheme
from repro.pipeline.stats import EnergyEvents, FlushStats, SimResult
from repro.trace import ColumnarTrace, Trace
from repro.trace.columnar import F_TAKEN, OPCLASS_BY_VALUE

_LS_OPS = frozenset({OpClass.LOAD, OpClass.STORE, OpClass.ATOMIC})

# Prune the issue-port busy maps once they exceed this many distinct
# cycles; keeps each dict O(1)-ish amortized instead of O(cycles).
_PORT_PRUNE_THRESHOLD = 4096

# Instructions per plain-list column snapshot in the columnar loop.  A
# snapshot costs ~250 bytes per instruction while it is alive, and the
# per-window fixed cost is a dozen C-level slice/tolist calls, so a
# small window bounds memory at no measurable speed cost.
_SNAPSHOT_WINDOW = 2048

# The plain columns the loop reads from each window (the target is not
# read: the branch verdicts stand for it).
_ROW_COLUMNS = ("pc", "op", "flags", "mem_addr", "mem_size")

# Later than any cycle a run reaches: the oldest unretired store's commit
# cycle while no store awaits retirement.
_NEVER = 1 << 62


class _IssuePorts:
    """Out-of-order issue bandwidth for one lane group.

    Tracks how many operations issued in each cycle; an operation ready
    at cycle ``r`` issues in the earliest cycle >= r with a free slot.
    Unlike a per-lane "next free" reservation, this lets ready younger
    ops backfill around older stalled ones — i.e., actual out-of-order
    scheduling under a lane-count constraint.
    """

    __slots__ = ("width", "_busy")

    def __init__(self, width: int) -> None:
        self.width = width
        self._busy: dict[int, int] = {}

    def issue_at(self, ready: int) -> int:
        busy = self._busy
        width = self.width
        cycle = ready
        count = busy.get(cycle, 0)
        while count >= width:
            cycle += 1
            count = busy.get(cycle, 0)
        busy[cycle] = count + 1
        return cycle

    def prune_below(self, cycle: int) -> None:
        """Drop busy slots for cycles that can no longer be probed.

        Safe whenever ``cycle`` is a lower bound on every future
        ``ready`` argument — the simulator passes the monotonically
        non-decreasing fetch cycle, and ready >= fetch + fetch_to_execute.
        """
        busy = self._busy
        if len(busy) > _PORT_PRUNE_THRESHOLD:
            for stale in [c for c in busy if c < cycle]:
                del busy[stale]


def simulate(
    trace: Trace | ColumnarTrace,
    scheme: Scheme | None = None,
    core_config: CoreConfig | None = None,
    hierarchy_config: HierarchyConfig | None = None,
    recovery: RecoveryMode = RecoveryMode.FLUSH,
    record: "object | None" = None,
) -> SimResult:
    """Run one trace through the core model.

    Args:
        trace: The workload trace.  An object :class:`Trace` is
            converted with :meth:`ColumnarTrace.from_trace` first: there
            is one loop, and it reads columns.
        scheme: Value-prediction scheme, or None for the baseline.
        core_config: Core parameters (Table 4 defaults).
        hierarchy_config: Memory-hierarchy parameters.
        recovery: Value-misprediction recovery model (Figure 10).
        record: A :class:`repro.observe.RunRecord` (or anything with
            its ``start``/``snapshot``/``finish`` methods and
            ``flushes`` list), or None (the default).  With a record the
            loop also ends its snapshot windows where the record asks,
            hands it the counters it keeps anyway at every window end
            and logs each flush; nothing per instruction changes, so the
            outcome is the untraced one.

    Returns:
        A :class:`SimResult`; compare runs of the same trace with
        :meth:`SimResult.speedup_over`.
    """
    if not isinstance(trace, ColumnarTrace):
        trace = ColumnarTrace.from_trace(trace)
    return _simulate_columnar(
        trace, scheme, core_config, hierarchy_config, recovery, record
    )


def _assemble_result(
    trace_name: str,
    n: int,
    cycles: int,
    scheme: Scheme | None,
    hierarchy: MemoryHierarchy,
    branch_mispredictions: int,
    flushes: FlushStats,
    loads: int,
) -> SimResult:
    """End-of-run accounting: counters into a :class:`SimResult`."""
    energy = EnergyEvents(
        cycles=cycles,
        instructions=n,
        l1d_accesses=hierarchy.l1d.stats.accesses,
        l1d_probes=hierarchy.l1d.stats.probe_hits + hierarchy.l1d.stats.probe_misses,
        l2_accesses=hierarchy.l2.stats.accesses,
        l3_accesses=hierarchy.l3.stats.accesses,
    )
    value_predictions = 0
    value_mispredictions = 0
    scheme_name = "baseline"
    scheme_stats = None
    if scheme is not None:
        scheme_name = scheme.name
        scheme_stats = scheme.result_stats()
        value_predictions = scheme.vpe.stats.value_predictions
        value_mispredictions = scheme.vpe.stats.value_mispredictions
        reads, writes = scheme.access_counts()
        energy.l1d_probes_way_predicted = scheme.way_predicted_probes()
        energy.predictor_reads = reads
        energy.predictor_writes = writes
        energy.predictor_bits = scheme.predictor_storage_bits()
        energy.pvt_reads = scheme.vpe.pvt.reads
        energy.pvt_writes = scheme.vpe.pvt.writes

    tlb_stats = hierarchy.tlb.stats
    tlb_miss_rate = (
        tlb_stats.misses / tlb_stats.accesses if tlb_stats.accesses else 0.0
    )
    return SimResult(
        trace_name=trace_name,
        scheme_name=scheme_name,
        instructions=n,
        cycles=cycles,
        flushes=flushes,
        branch_mispredictions=branch_mispredictions,
        value_predictions=value_predictions,
        value_mispredictions=value_mispredictions,
        loads=loads,
        l1d_hit_rate=hierarchy.l1d.stats.hit_rate,
        tlb_miss_rate=tlb_miss_rate,
        energy=energy,
        scheme_stats=scheme_stats,
    )


def _simulate_columnar(
    trace: ColumnarTrace,
    scheme: Scheme | None,
    core_config: CoreConfig | None,
    hierarchy_config: HierarchyConfig | None,
    recovery: RecoveryMode,
    record: "object | None" = None,
) -> SimResult:
    """The simulate loop, reading struct-of-arrays columns.

    Every per-instruction field read is a list index and every opcode
    test compares plain integers.  Branch prediction does not run here:
    the loop reads each control row's verdict (``trace.verdicts``,
    resolved by :func:`repro.branch.resolve_verdicts` once per trace —
    here, on the first run of a trace that arrives without them) and
    builds no branch predictor.  For a scheme that reads it
    (``Scheme.reads_history``) it still pushes every conditional's
    outcome and every call into a fold-free global-history register, the
    one piece of front-end state the schemes read.  Schemes are driven
    with raw column scalars through ``flat_fetch``/``flat_execute``;
    ``flat_prepare`` runs once before the loop so schemes can build
    their per-run closures.

    With a ``record`` (see :func:`simulate`), snapshot windows also end
    at the positions ``record.start`` returns, ``record.snapshot`` gets
    ``(end, last_commit_cycle, loads, scheme)`` at every window end, each
    flush appends ``(index, cycle, kind, pc)`` to ``record.flushes``, and
    ``record.finish`` gets the result.

    Commit cycles live in a ring: instruction ``i``'s in slot
    ``i % size``.  Every read lies inside the ROB window — the ROB stall
    reads instruction ``i - rob_entries``, and the other reads name
    stores that have not retired, which are younger than that — so
    ``size = rob_entries`` suffices.  A recorded run gets ``size =
    max(n, rob_entries)``, where slot ``i`` is ``i``: the record holds
    the whole list, positive and non-decreasing over the committed
    prefix, 0 after it.
    The LDQ and STQ stalls read the oldest of the last ``ldq_entries``
    load and ``stq_entries`` store commit cycles, kept in bounded
    queues.
    """
    cfg = core_config or CoreConfig()
    hierarchy = MemoryHierarchy(hierarchy_config)
    image = MemoryImage()
    verdicts = trace.verdicts
    if verdicts is None:
        verdicts = trace.verdicts = _verdicts.resolve_verdicts(trace)
    mdp = StoreSetsPredictor()
    # The raw global branch history, as the default front end's TAGE
    # register holds it: what VTAGE and D-VTAGE read at fetch.
    history = None
    if scheme is not None:
        if scheme.reads_history:
            history = GlobalHistory(TageConfig().max_history)
            history_push = history.push
        scheme.bind(hierarchy, image, history)

    n = len(trace)
    rob_entries = cfg.rob_entries
    size = rob_entries if record is None else max(n, rob_entries)
    commit_cycles = [0] * size
    ls_ports = _IssuePorts(cfg.ls_lanes)
    gen_ports = _IssuePorts(cfg.generic_lanes)
    word_store: dict[int, tuple[int, int, int]] = {}
    store_done: dict[int, int] = {}

    fetch_cycle = 0
    pending_redirect = 0
    force_new_group = True
    slots_used = 0
    current_group = -1
    prev_pc = -5                       # sentinel: never matches prev_pc + 4
    loads_in_group = 0

    last_commit_cycle = 0
    commits_in_cycle = 0
    # The last ldq_entries load and stq_entries store commit cycles,
    # oldest first; the leading zeros stand for empty entries, which
    # stall nothing.
    load_commits: deque = deque([0] * cfg.ldq_entries, maxlen=cfg.ldq_entries)
    store_commits: deque = deque([0] * cfg.stq_entries, maxlen=cfg.stq_entries)

    flushes = FlushStats()
    loads = 0

    # ---- hot-loop local aliases (columns + config + substrate) --------
    # Columns are read through plain-list snapshots of one window of
    # instructions at a time (ColumnarTrace.windows), and commit cycles
    # through the ROB-window ring, so nothing here grows with the trace.
    LOAD = int(OpClass.LOAD)
    STORE = int(OpClass.STORE)
    BRANCH = int(OpClass.BRANCH)
    CALL = int(OpClass.CALL)
    # Opcode predicates as value-indexed lists: a list index beats a
    # frozenset probe, and op is already a small contiguous int.
    is_ls_op = [op in _LS_OPS for op in OPCLASS_BY_VALUE]
    is_br_op = [is_branch_op(op) for op in OPCLASS_BY_VALUE]
    exec_latency = [EXECUTION_LATENCY[op] for op in OPCLASS_BY_VALUE]
    # Register scoreboard as a flat list: register ids are small dense
    # ints, so list indexing replaces per-operand dict hashing.
    nregs = 1 + max(
        max(trace.srcs, default=-1),
        max(trace.dests, default=-1),
    )
    reg_ready = [0] * nregs
    fga_mask = ~(FETCH_GROUP_BYTES - 1)
    fetch_width = cfg.fetch_width
    fetch_to_execute = cfg.fetch_to_execute
    rename_depth = cfg.rename_depth
    commit_width = cfg.commit_width
    branch_latency = cfg.branch_resolution_latency
    validation_penalty = cfg.value_validation_penalty
    forward_latency = cfg.store_forward_latency
    ls_busy = ls_ports._busy
    ls_busy_get = ls_busy.get
    ls_width = ls_ports.width
    gen_busy = gen_ports._busy
    gen_busy_get = gen_busy.get
    gen_width = gen_ports.width
    demand_accesses = hierarchy.demand_accesses
    l1_latency = hierarchy._l1_latency
    tlb_penalty = hierarchy._tlb_penalty
    tlb_shift = hierarchy._tlb_shift
    tlb_mask = hierarchy._tlb_mask
    tlb_where = hierarchy._tlb_where
    tlb_lru = hierarchy._tlb_lru
    tlb_stats = hierarchy._tlb_stats
    tlb_fill = hierarchy._tlb_array.fill
    l1_shift = hierarchy._l1_shift
    l1_mask = hierarchy._l1_mask
    l1_where = hierarchy._l1_where
    l1_lru = hierarchy._l1_lru
    l1_stats = hierarchy._l1_stats
    l1_fill = hierarchy.l1d.fill
    fill_from_below = hierarchy._fill_from_below
    prefetcher = hierarchy.prefetcher
    prefetch_fill = hierarchy.prefetch_fill
    # Stride-prefetcher observe(), inlined at the load site below:
    # table and thresholds aliased, entry construction via the class.
    pf_table = prefetcher._table if prefetcher is not None else None
    if prefetcher is not None:
        pf_entries = prefetcher.entries
        pf_threshold = prefetcher.threshold
        pf_degree = prefetcher.degree
        pf_entry_cls = _PfStrideEntry
    # Store-sets load_dependence(), inlined at the load site below (the
    # event counter and clears are shared with the store_* methods).
    mdp_ssit = mdp._ssit
    mdp_lfst = mdp._lfst
    mdp_ssit_entries = mdp.config.ssit_entries
    mdp_lfst_entries = mdp.config.lfst_entries
    mdp_clear_interval = mdp.config.clear_interval
    image_write = image.write
    mdp_store_fetched = mdp.store_fetched
    mdp_store_executed = mdp.store_executed
    mdp_report_violation = mdp.report_violation
    word_store_get = word_store.get
    oracle_replay = recovery == RecoveryMode.ORACLE_REPLAY
    fetch_all_ops = scheme is not None and not scheme.fetch_loads_only
    if scheme is not None:
        scheme.flat_prepare(trace)
        scheme_flat_fetch = scheme.flat_fetch
        scheme_flat_execute = scheme.flat_execute
        vpe_stats = scheme.vpe.stats
        pvt_try_allocate = scheme.vpe.pvt.try_allocate
        pvt_note_read = scheme.vpe.pvt.note_consumer_read

    store_fifo: deque = deque()   # executed stores: (seq, addr, size, value)
    store_fifo_append = store_fifo.append
    store_fifo_pop = store_fifo.popleft
    # Commit cycle of the oldest unretired store, or _NEVER while none
    # has committed.  Set when that store commits and read back from the
    # ring when the FIFO advances: an unretired store's slot lies in the
    # ROB window.
    store_commit = _NEVER
    # Window ends: every _SNAPSHOT_WINDOW rows, plus where a record
    # wants a snapshot.
    ends = list(range(_SNAPSHOT_WINDOW, n, _SNAPSHOT_WINDOW))
    flush_log = None
    if record is not None:
        ends = sorted(set(ends).union(record.start(
            trace.name, scheme.name if scheme is not None else "baseline",
            n, commit_cycles,
        )))
        flush_log = record.flushes
    if n:
        ends.append(n)
    base = 0
    for end, window in zip(ends, trace.windows(ends, _ROW_COLUMNS)):
        (
            pcs,
            ops,
            flags_col,
            mem_addr_col,
            mem_size_col,
            srcs_prefix,
            srcs_flat,
            dests_prefix,
            dests_flat,
            values_prefix,
            values_lo,
            values_hi,
        ) = window
        # One tuple per row: the trace position, the row's plain fields,
        # (start, stop) of its sources, destinations and values in the
        # window's flat lists, and its branch verdict.
        for (
            i, pc, op, flags, addr, mem_size, s0, s1, d0, d1, v0, v1, mispredicted,
        ) in zip(
            range(base, end), pcs, ops, flags_col, mem_addr_col, mem_size_col,
            srcs_prefix, srcs_prefix[1:], dests_prefix, dests_prefix[1:],
            values_prefix, values_prefix[1:], verdicts[base:end].tolist(),
        ):
            cc_slot = i % size

            # ---- fetch grouping --------------------------------------------
            if (
                force_new_group
                or slots_used >= fetch_width
                or pc != prev_pc + 4
                or (pc & fga_mask) != current_group
            ):
                fetch_cycle = max(fetch_cycle + 1, pending_redirect)
                slots_used = 0
                loads_in_group = 0
                current_group = pc & fga_mask
                force_new_group = False
            slots_used += 1
            prev_pc = pc

            # ---- structural stalls (ROB / LDQ / STQ) ------------------------
            # Slot of instruction i - rob_entries: a negative index wraps
            # by size, which is at least rob_entries, onto a slot that no
            # instruction has committed into yet while i < rob_entries.
            stall = commit_cycles[cc_slot - rob_entries]
            if stall > fetch_cycle:
                fetch_cycle = stall
            if op == LOAD:
                stall = load_commits[0]
                if stall > fetch_cycle:
                    fetch_cycle = stall
                # The first two loads of a fetch group take the scheme's
                # prediction slots 0 and 1.
                loads += 1
                load_slot = loads_in_group if loads_in_group < 2 else None
                loads_in_group += 1
            else:
                load_slot = None
                if op == STORE:
                    stall = store_commits[0]
                    if stall > fetch_cycle:
                        fetch_cycle = stall

            # ---- retire committed stores into the memory image --------------
            # Commit cycles are non-decreasing, so the committed stores are
            # the oldest ones in the FIFO they entered at execution; the
            # ROB stall above has already made every store older than
            # i - rob_entries committed.
            while store_commit <= fetch_cycle:
                seq, caddr, csize, cval = store_fifo_pop()
                image_write(caddr, csize, cval)
                del store_done[seq]
                # Every word the store entered (a zero-size store enters
                # one): a retired store's ring slot is reused.
                first = caddr >> 2
                last = (caddr + (csize or 1) - 1) >> 2
                for word in range(first, last + 1):
                    entry = word_store_get(word)
                    if entry is not None and entry[0] == seq:
                        del word_store[word]
                store_commit = (
                    commit_cycles[store_fifo[0][0] % size] if store_fifo else _NEVER
                )

            # ---- scheme fetch side ------------------------------------------
            fp = None
            if scheme is not None and (op == LOAD or fetch_all_ops):
                if v1 - v0 == 1:
                    hv = values_hi[v0]
                    vals = ((hv << 64) | values_lo[v0] if hv else values_lo[v0],)
                elif v1 == v0:
                    vals = ()
                else:
                    vals = tuple(
                        (values_hi[k] << 64) | values_lo[k]
                        if values_hi[k] else values_lo[k]
                        for k in range(v0, v1)
                    )
                # Probe on the first load-store bubble after the
                # predicted address reaches the back-end (1 cycle predict
                # + 1 cycle transport).  Lane *reservations* are for
                # future issue cycles, so a bubble is essentially always
                # available now; the paper measures <0.1% of PAQ entries
                # aging out.
                fp = scheme_flat_fetch(
                    pc, op, addr, mem_size, flags, d1 - d0, vals,
                    fetch_cycle, load_slot, fetch_cycle + 2,
                )

            # ---- issue timing -----------------------------------------------
            ready = fetch_cycle + fetch_to_execute
            if s1 - s0 == 1:
                src_ready = reg_ready[srcs_flat[s0]]
                if src_ready > ready:
                    ready = src_ready
            elif s1 != s0:
                for k in range(s0, s1):
                    src_ready = reg_ready[srcs_flat[k]]
                    if src_ready > ready:
                        ready = src_ready

            acc_way = None
            if op == LOAD:
                # mdp.load_dependence(pc), inlined (tick, SSIT, then LFST).
                ev = mdp._events + 1
                mdp._events = ev
                if ev % mdp_clear_interval == 0:
                    mdp_ssit.clear()
                    mdp_lfst.clear()
                dep_seq = None
                store_set = mdp_ssit.get((pc >> 2) % mdp_ssit_entries)
                if store_set is not None:
                    dep_entry = mdp_lfst.get(store_set % mdp_lfst_entries)
                    if dep_entry is not None:
                        mdp.dependencies_predicted += 1
                        dep_seq = dep_entry[1]
                if dep_seq is not None and dep_seq in store_done:
                    if commit_cycles[dep_seq % size] > ready:
                        dep_done = store_done[dep_seq]
                        if dep_done > ready:
                            ready = dep_done
                issue = ready
                count = ls_busy_get(issue, 0)
                while count >= ls_width:
                    issue += 1
                    count = ls_busy_get(issue, 0)
                ls_busy[issue] = count + 1
                # hierarchy.access(), inlined: TLB, then L1, then prefetcher.
                demand_accesses += 1
                block = addr >> tlb_shift
                set_idx = block & tlb_mask
                way = tlb_where[set_idx].get(block)
                if way is not None:
                    lru = tlb_lru[set_idx]
                    if lru[0] != way:
                        lru.remove(way)
                        lru.insert(0, way)
                    tlb_stats.hits += 1
                    acc_latency = l1_latency
                else:
                    tlb_stats.misses += 1
                    tlb_fill(addr)
                    acc_latency = l1_latency + tlb_penalty
                block = addr >> l1_shift
                set_idx = block & l1_mask
                acc_way = l1_where[set_idx].get(block)
                if acc_way is not None:
                    lru = l1_lru[set_idx]
                    if lru[0] != acc_way:
                        lru.remove(acc_way)
                        lru.insert(0, acc_way)
                    l1_stats.hits += 1
                else:
                    l1_stats.misses += 1
                    acc_way = l1_fill(addr)
                    acc_latency += fill_from_below(addr)
                # prefetcher.observe(pc, addr), inlined: train the stride
                # entry; issue `degree` prefetches once confident.
                if pf_table is not None:
                    slot = pc % pf_entries
                    pf = pf_table.get(slot)
                    if pf is None:
                        pf_table[slot] = pf_entry_cls(addr)
                    else:
                        stride = addr - pf.last_addr
                        if stride == pf.stride and stride != 0:
                            if pf.confidence < pf_threshold:
                                pf.confidence += 1
                        else:
                            pf.stride = stride
                            pf.confidence = 0
                        pf.last_addr = addr
                        if stride != 0 and pf.confidence >= pf_threshold:
                            prefetcher.trained += 1
                            for k in range(1, pf_degree + 1):
                                prefetch_fill(addr + stride * k)
                            prefetcher.issued += pf_degree
                nbytes = mem_size * ((d1 - d0) or 1)
                first = addr >> 2
                last = (addr + (nbytes if nbytes > 0 else 1) - 1) >> 2
                if first == last:
                    newest = word_store_get(first)
                else:
                    newest = None
                    for word in range(first, last + 1):
                        entry = word_store_get(word)
                        if entry is not None and (newest is None or entry[0] > newest[0]):
                            newest = entry
                if newest is not None and commit_cycles[newest[0] % size] > issue:
                    if newest[1] > issue and (dep_seq is None or dep_seq < newest[0]):
                        mdp_report_violation(pc, newest[2])
                    done = max(issue, newest[1]) + forward_latency
                else:
                    done = issue + 1 + acc_latency
            elif op == STORE:
                mdp_store_fetched(pc, i)
                # hierarchy.access(is_store=True), inlined.
                demand_accesses += 1
                block = addr >> tlb_shift
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
                    tlb_fill(addr)
                block = addr >> l1_shift
                set_idx = block & l1_mask
                acc_way = l1_where[set_idx].get(block)
                if acc_way is not None:
                    lru = l1_lru[set_idx]
                    if lru[0] != acc_way:
                        lru.remove(acc_way)
                        lru.insert(0, acc_way)
                    l1_stats.hits += 1
                else:
                    l1_stats.misses += 1
                    acc_way = l1_fill(addr)
                    fill_from_below(addr)
                issue = ready
                count = ls_busy_get(issue, 0)
                while count >= ls_width:
                    issue += 1
                    count = ls_busy_get(issue, 0)
                ls_busy[issue] = count + 1
                done = issue + 1
                entry = (i, done, pc)
                first = addr >> 2
                last = (addr + (mem_size if mem_size > 0 else 1) - 1) >> 2
                if first == last:
                    word_store[first] = entry
                else:
                    for word in range(first, last + 1):
                        word_store[word] = entry
                store_done[i] = done
                mdp_store_executed(pc)
                vhi = values_hi[v0]
                store_fifo_append(
                    (i, addr, mem_size, (vhi << 64) | values_lo[v0] if vhi else values_lo[v0])
                )
            elif is_ls_op[op]:
                issue = ready
                count = ls_busy_get(issue, 0)
                while count >= ls_width:
                    issue += 1
                    count = ls_busy_get(issue, 0)
                ls_busy[issue] = count + 1
                done = issue + exec_latency[op]
            else:
                issue = ready
                count = gen_busy_get(issue, 0)
                while count >= gen_width:
                    issue += 1
                    count = gen_busy_get(issue, 0)
                gen_busy[issue] = count + 1
                done = issue + exec_latency[op]

            # ---- branches ----------------------------------------------------
            if is_br_op[op]:
                done = issue + branch_latency
                if history is not None:
                    if op == BRANCH:
                        history_push(1 if flags & F_TAKEN else 0)
                    elif op == CALL:
                        history_push(1)
                if mispredicted:
                    flushes.branch += 1
                    pending_redirect = done + 1
                    force_new_group = True
                    if flush_log is not None:
                        flush_log.append((i, done, "branch", pc))

            # ---- value prediction resolution ---------------------------------
            ready_at = done           # when the destinations can be read
            if fp is not None:
                fp_values = fp[0]
                value_predicted = False
                if fp_values is not None:
                    if oracle_replay and not fp[1]:
                        pass        # oracle replay: treat as never predicted
                    elif pvt_try_allocate(fp[3], fetch_cycle, done):
                        value_predicted = True
                    else:
                        vpe_stats.pvt_rejections += 1
                value_correct = scheme_flat_execute(
                    pc, op, addr, mem_size, flags, d1 - d0, vals,
                    fp[2], fp_values, acc_way, value_predicted,
                )[1]
                if value_predicted:
                    vpe_stats.value_predictions += 1
                    if value_correct:
                        vpe_stats.value_correct += 1
                    pvt_note_read(fp[3])
                    if value_correct:
                        ready_at = fetch_cycle + rename_depth
                    else:
                        flushes.value += 1
                        pending_redirect = done + 1 + validation_penalty
                        force_new_group = True
                        scheme.on_value_flush()
                        if flush_log is not None:
                            flush_log.append((i, done, "value", pc))
            if d1 - d0 == 1:
                reg_ready[dests_flat[d0]] = ready_at
            elif d1 != d0:
                for k in range(d0, d1):
                    reg_ready[dests_flat[k]] = ready_at

            # ---- in-order commit ---------------------------------------------
            # At done + 1 if that is past the last commit cycle, else in
            # the last commit cycle while it has a free slot, else in the
            # cycle after it.
            if done >= last_commit_cycle:
                cc = last_commit_cycle = done + 1
                commits_in_cycle = 1
            elif commits_in_cycle >= commit_width:
                cc = last_commit_cycle = last_commit_cycle + 1
                commits_in_cycle = 1
            else:
                cc = last_commit_cycle
                commits_in_cycle += 1
            commit_cycles[cc_slot] = cc
            if op == LOAD:
                load_commits.append(cc)
            elif op == STORE:
                store_commits.append(cc)
                if cc < store_commit:       # the FIFO held no other store
                    store_commit = cc

        base = end
        # No later instruction is ready before this fetch cycle.
        ls_ports.prune_below(fetch_cycle)
        gen_ports.prune_below(fetch_cycle)
        if record is not None:
            record.snapshot(end, last_commit_cycle, loads, scheme)

    cycles = last_commit_cycle
    hierarchy.demand_accesses = demand_accesses
    # Every mispredicted control row flushed once, so the flush count is
    # the verdicts' mispredict count.
    result = _assemble_result(
        trace.name, n, cycles, scheme, hierarchy, flushes.branch, flushes, loads
    )
    if record is not None:
        record.finish(result)
    return result


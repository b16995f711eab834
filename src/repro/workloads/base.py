"""Workload-builder infrastructure.

A :class:`WorkloadBuilder` is a tiny "assembler + machine state" that
kernel generators drive: it tracks a memory image and register file so
that every emitted load's values are the true contents of memory at
that point in program order.  The simulator later reconstructs the same
image by replaying stores at *commit* time — which is exactly how DLVP's
speculative probes can observe stale data for in-flight conflicts.
"""

from __future__ import annotations

import queue
import random
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.isa import (
    INSTRUCTION_BYTES,
    Instruction,
    OpClass,
    RegisterFile,
)
from repro.memory import MemoryImage
from repro.trace import ColumnarTrace, Trace

_MASK64 = (1 << 64) - 1

DEFAULT_STREAM_CHUNK = 8192


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload in the suite registry.

    ``cold_fraction`` interleaves blocks of rarely-executed code (init,
    error handling, glue) whose loads have fresh static PCs.  Real
    binaries carry thousands of such static loads; they dilute coverage
    denominators and — crucially — put capacity pressure on prediction
    tables.  PAP's Policy-2 allocation lets confident entries survive
    cold-load eviction attempts, while CAP's load buffer replaces on
    miss and retrains from scratch: this asymmetry is a large part of
    the paper's Figure 4 coverage gap.
    """

    name: str
    group: str                      # benchmark suite it stands in for
    kernel: Callable[..., None]     # generator: kernel(builder, n, **params)
    params: dict = field(default_factory=dict)
    seed: int = 0
    cold_fraction: float = 0.08

    def build(self, n_instructions: int) -> Trace:
        builder = WorkloadBuilder(self.name, seed=self.seed)
        hot_budget = int(n_instructions * (1.0 - self.cold_fraction))
        self.kernel(builder, hot_budget, **self.params)
        if self.cold_fraction > 0.0:
            _sprinkle_cold_code(builder, n_instructions)
        return builder.build()

    def build_stream(
        self, n_instructions: int, chunk_size: int = DEFAULT_STREAM_CHUNK
    ) -> Iterator[ColumnarTrace]:
        """Yield the exact :meth:`build` trace as fixed-size columnar chunks.

        Memory stays O(chunk): the kernel runs with a flushing sink
        instead of accumulating its instruction list, and the cold-code
        bursts are interleaved on the fly (see
        :class:`_ColdInterleaver` for why that is bit-identical to the
        post-hoc sprinkle).  Generation runs on a producer thread with a
        bounded hand-off queue so this is a true pull-based generator —
        the kernel only runs ahead by a couple of chunks.

        Equivalence with :meth:`build` is pinned by
        ``tests/test_columnar.py`` across every kernel.
        """
        q: queue.Queue = queue.Queue(maxsize=2)
        abandoned = threading.Event()

        def emit(chunk: ColumnarTrace) -> None:
            while True:
                if abandoned.is_set():
                    raise _StreamAbandoned()
                try:
                    q.put(chunk, timeout=0.1)
                    return
                except queue.Full:
                    continue

        def produce() -> None:
            try:
                self._generate_streaming(n_instructions, chunk_size, emit)
            except _StreamAbandoned:
                return
            except BaseException as exc:  # surfaced on the consumer side
                q.put(exc)
                return
            q.put(None)

        thread = threading.Thread(
            target=produce, name=f"workload-stream-{self.name}", daemon=True
        )
        thread.start()
        try:
            while True:
                item = q.get()
                if item is None:
                    break
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            abandoned.set()
            while thread.is_alive():
                try:
                    q.get_nowait()
                except queue.Empty:
                    pass
                thread.join(timeout=0.05)

    def build_columnar(
        self, n_instructions: int, chunk_size: int = DEFAULT_STREAM_CHUNK
    ) -> ColumnarTrace:
        """The exact :meth:`build` trace as one :class:`ColumnarTrace`.

        One kernel pass, on the calling thread: the builder flushes every
        ``chunk_size`` instructions straight into a hot-stream
        ``ColumnarTrace``, so only one batch of :class:`Instruction`
        objects is ever alive.  Once the hot length is known the cold
        bursts are generated on :func:`_blocks_per_burst`'s schedule
        (see :class:`_ColdInterleaver` for why generating them detached
        is bit-identical) and hot and cold rows are spliced by column
        slices, consuming the sources column by column.
        """
        hot = ColumnarTrace(self.name)
        builder = WorkloadBuilder(
            self.name, seed=self.seed, sink=hot.append_all,
            flush_threshold=chunk_size,
        )
        self.kernel(builder, int(n_instructions * (1.0 - self.cold_fraction)),
                    **self.params)
        builder.flush()
        hot_len = len(hot)
        cold_budget = max(0, n_instructions - hot_len)
        if self.cold_fraction <= 0.0 or not cold_budget:
            return hot
        blocks_per_burst = _blocks_per_burst(hot_len, cold_budget)
        block = builder.rng.randrange(_COLD_POOL)
        cold_builder = WorkloadBuilder(self.name, seed=0)
        cold = ColumnarTrace(self.name)
        parts = []
        start = 0
        for at in range(_BURST_SPACING, hot_len, _BURST_SPACING):
            parts.append((hot, start, at + 1))
            start = at + 1
            burst = len(cold)
            for _ in range(blocks_per_burst):
                cold.append_all(_cold_block_instructions(cold_builder, block))
                block = (block + 1) % _COLD_POOL
            parts.append((cold, burst, len(cold)))
        parts.append((hot, start, hot_len))
        out = ColumnarTrace(self.name)
        out.extend_rows(parts, consume=True)
        return out

    def _generate_streaming(
        self,
        n_instructions: int,
        chunk_size: int,
        emit: Callable[[ColumnarTrace], None],
    ) -> None:
        hot_budget = int(n_instructions * (1.0 - self.cold_fraction))
        # Pass 1: run the kernel against a discarding sink to learn the
        # hot-stream length (the cold-burst schedule depends on it) and
        # to advance the builder RNG to the exact state `build()` draws
        # the first cold-block id from.
        counter = WorkloadBuilder(
            self.name, seed=self.seed, sink=_discard, flush_threshold=chunk_size
        )
        self.kernel(counter, hot_budget, **self.params)
        counter.flush()
        hot_len = len(counter)

        assembler = _ChunkAssembler(self.name, chunk_size, emit)
        sink: Callable[[list[Instruction]], None] = assembler.push
        if self.cold_fraction > 0.0:
            cold_budget = max(0, n_instructions - hot_len)
            if cold_budget:
                first_block = counter.rng.randrange(_COLD_POOL)
                sink = _ColdInterleaver(
                    self.name, hot_len, cold_budget, first_block, assembler
                ).push
        # Pass 2: the real emission, flushed through the interleaver into
        # columnar chunks.  Same seed, same kernel, same state evolution
        # as pass 1 (and as build()).
        builder = WorkloadBuilder(
            self.name, seed=self.seed, sink=sink, flush_threshold=chunk_size
        )
        self.kernel(builder, hot_budget, **self.params)
        builder.flush()
        assembler.close()


class _StreamAbandoned(Exception):
    """Raised inside the producer thread when the consumer went away."""


def _discard(batch: list[Instruction]) -> None:
    """Pass-1 sink: count-only, the builder tracks the running total."""


class _ChunkAssembler:
    """Repack variable-size instruction batches into fixed-size chunks."""

    def __init__(
        self, name: str, chunk_size: int, emit: Callable[[ColumnarTrace], None]
    ) -> None:
        self.name = name
        self.chunk_size = chunk_size
        self.emit = emit
        self.chunk = ColumnarTrace(name)

    def push(self, batch: list[Instruction]) -> None:
        chunk = self.chunk
        size = self.chunk_size
        for inst in batch:
            chunk.append(inst)
            if len(chunk) >= size:
                self.emit(chunk)
                chunk = self.chunk = ColumnarTrace(self.name)

    def close(self) -> None:
        if len(self.chunk):
            self.emit(self.chunk)
            self.chunk = ColumnarTrace(self.name)


class _ColdInterleaver:
    """Inject cold-code bursts into a streamed hot instruction flow.

    Replays exactly the schedule :func:`_sprinkle_cold_code` computes
    after the fact: a burst of ``blocks_per_burst`` cold blocks after
    hot instruction ``i`` whenever ``i`` crosses a multiple of the
    burst spacing.  Generating the blocks *during* the kernel run (from
    a detached builder) instead of after it is value-identical because
    cold blocks read only their private data region above
    ``_COLD_DATA_BASE``, which no kernel writes, and their ALU results
    depend only on registers the block itself loads.
    """

    def __init__(
        self,
        name: str,
        hot_len: int,
        cold_budget: int,
        first_block: int,
        assembler: _ChunkAssembler,
    ) -> None:
        self.blocks_per_burst = _blocks_per_burst(hot_len, cold_budget)
        self.next_burst = _BURST_SPACING
        self.block = first_block
        self.index = 0
        self.assembler = assembler
        # Detached builder for cold-block generation only; its RNG is
        # never drawn from and its image only reads the cold region.
        self.cold_builder = WorkloadBuilder(name, seed=0)

    def push(self, batch: list[Instruction]) -> None:
        out = self.assembler
        i = self.index
        for inst in batch:
            out.push((inst,))
            if i >= self.next_burst:
                self.next_burst += _BURST_SPACING
                for _ in range(self.blocks_per_burst):
                    out.push(_cold_block_instructions(self.cold_builder, self.block))
                    self.block = (self.block + 1) % _COLD_POOL
            i += 1
        self.index = i


_COLD_CODE_BASE = 0x2000000
_COLD_DATA_BASE = 0x8000000
_COLD_POOL = 512
# A cold burst follows every hot instruction whose index is a positive
# multiple of this.
_BURST_SPACING = 2500


def _blocks_per_burst(hot_len: int, cold_budget: int) -> int:
    """Cold blocks in each burst: the budget spread over the bursts."""
    n_bursts = max(1, hot_len // _BURST_SPACING)
    return max(1, cold_budget // (4 * n_bursts))


def _cold_block_instructions(builder: "WorkloadBuilder", block: int) -> list[Instruction]:
    """Emit one cold block through the builder and detach it.

    Cold blocks have *diverse code* (fresh static PCs — the predictor
    pressure) but *shared data* (a small common region): glue code reads
    stacks and common globals, not fresh gigabytes, so its loads stay
    cache-resident and the bursts do not turn into memory-stall storms.
    """
    mark = builder.checkpoint()
    pc = _COLD_CODE_BASE + block * 0x40
    data = _COLD_DATA_BASE + (block % 24) * 0x100
    builder.load(pc, dests=(20,), addr=data, size=8)
    builder.alu(pc + 4, 21, srcs=(20,))
    builder.load(pc + 8, dests=(22,), addr=data + 16, size=8)
    # Glue-code branches are overwhelmingly not-taken error checks —
    # and a freshly-initialized bimodal counter predicts exactly that.
    builder.branch(pc + 12, taken=False, target=pc + 0x20)
    return builder.take_from(mark)


def _sprinkle_cold_code(builder: "WorkloadBuilder", n_instructions: int) -> None:
    """Interleave *bursts* of cold blocks through the generated stream.

    Cold code in real programs is bursty (allocation slow paths, GC,
    syscall glue), not uniformly diffused; bursts also keep the global
    load-path history clean between episodes, so the hot code's
    prediction contexts recover within one 16-load window.  Cold blocks
    only read their own private data region, so reordering them
    relative to hot code cannot change any load's value.
    """
    hot = builder.take_from(0)
    cold_budget = max(0, n_instructions - len(hot))
    if not cold_budget:
        builder.extend(hot)
        return
    blocks_per_burst = _blocks_per_burst(len(hot), cold_budget)
    merged: list[Instruction] = []
    block = builder.rng.randrange(_COLD_POOL)
    next_burst = _BURST_SPACING
    for i, inst in enumerate(hot):
        merged.append(inst)
        if i >= next_burst:
            next_burst += _BURST_SPACING
            for _ in range(blocks_per_burst):
                merged.extend(_cold_block_instructions(builder, block))
                block = (block + 1) % _COLD_POOL
    builder.extend(merged)


class WorkloadBuilder:
    """Emit a self-consistent dynamic instruction stream.

    With the default ``sink=None`` the builder accumulates every
    instruction (finish with :meth:`build`).  With a ``sink`` callable
    the builder *streams*: whenever the pending list reaches
    ``flush_threshold`` it is handed to the sink and cleared, so memory
    stays O(threshold) regardless of trace length.  Streaming builders
    cannot use :meth:`build`/:meth:`checkpoint`/:meth:`take_from` —
    those assume the full list is resident.
    """

    def __init__(
        self,
        name: str,
        seed: int = 0,
        sink: Callable[[list[Instruction]], None] | None = None,
        flush_threshold: int = DEFAULT_STREAM_CHUNK,
    ) -> None:
        self.name = name
        self.rng = random.Random(seed ^ 0x5EED)
        self.image = MemoryImage()
        self.regs = RegisterFile()
        self._insts: list[Instruction] = []
        self._sink = sink
        self._flush_threshold = flush_threshold
        self._flushed = 0

    # -- construction ----------------------------------------------------

    def __len__(self) -> int:
        return self._flushed + len(self._insts)

    def _emit(self, inst: Instruction) -> None:
        self._insts.append(inst)
        if self._sink is not None and len(self._insts) >= self._flush_threshold:
            self.flush()

    def flush(self) -> None:
        """Hand pending instructions to the sink (streaming mode only)."""
        if self._sink is not None and self._insts:
            batch = self._insts
            self._flushed += len(batch)
            self._insts = []
            self._sink(batch)

    def build(self) -> Trace:
        if self._sink is not None:
            raise RuntimeError("streaming builders cannot build() a full Trace")
        return Trace(self.name, self._insts)

    def full(self, n_instructions: int) -> bool:
        """Budget check kernels poll in their outer loops."""
        return self._flushed + len(self._insts) >= n_instructions

    def checkpoint(self) -> int:
        """Current emission position (pairs with :meth:`take_from`)."""
        if self._sink is not None:
            raise RuntimeError("checkpoint() is unavailable on streaming builders")
        return len(self._insts)

    def take_from(self, mark: int) -> list[Instruction]:
        """Detach and return everything emitted since ``mark``."""
        if self._sink is not None:
            raise RuntimeError("take_from() is unavailable on streaming builders")
        taken = self._insts[mark:]
        del self._insts[mark:]
        return taken

    def extend(self, instructions: list[Instruction]) -> None:
        """Re-attach a previously detached (and possibly merged) stream."""
        self._insts.extend(instructions)

    # -- emission helpers --------------------------------------------------

    def alu(
        self,
        pc: int,
        dest: int,
        srcs: tuple[int, ...] = (),
        value: int | None = None,
        op: OpClass = OpClass.ALU,
    ) -> int:
        """Emit a computational instruction; returns the produced value.

        ``value=None`` computes a deterministic mix of the source
        registers, so dependent chains carry real data.
        """
        if value is None:
            acc = 0x9E3779B9
            for src in srcs:
                acc = (acc * 31 + self.regs.read(src)) & _MASK64
            value = acc
        self.regs.write(dest, value)
        self._emit(
            Instruction(pc=pc, op=op, srcs=srcs, dests=(dest,), values=(value & _MASK64,))
        )
        return value & _MASK64

    def load(
        self,
        pc: int,
        dests: tuple[int, ...],
        addr: int,
        size: int = 8,
        srcs: tuple[int, ...] = (),
        is_vector: bool = False,
    ) -> tuple[int, ...]:
        """Emit a load; values are read from the memory image.

        Multi-destination loads (LDP/LDM) read consecutive ``size``-byte
        chunks from ``addr``; vector loads read 16 bytes per register.
        """
        values = tuple(
            self.image.read(addr + k * size, size) for k in range(len(dests))
        )
        for dest, value in zip(dests, values):
            self.regs.write(dest, value)
        self._emit(
            Instruction(
                pc=pc,
                op=OpClass.LOAD,
                srcs=srcs,
                dests=dests,
                mem_addr=addr,
                mem_size=size,
                values=values,
                is_vector=is_vector,
            )
        )
        return values

    def store(
        self,
        pc: int,
        addr: int,
        value: int,
        size: int = 8,
        srcs: tuple[int, ...] = (),
    ) -> None:
        """Emit a store; the memory image is updated immediately (the
        simulator re-applies it at commit time)."""
        value &= (1 << (8 * size)) - 1
        self.image.write(addr, size, value)
        self._emit(
            Instruction(
                pc=pc,
                op=OpClass.STORE,
                srcs=srcs,
                mem_addr=addr,
                mem_size=size,
                values=(value,),
            )
        )

    def branch(self, pc: int, taken: bool, target: int, srcs: tuple[int, ...] = ()) -> None:
        """Conditional direct branch."""
        self._emit(
            Instruction(
                pc=pc,
                op=OpClass.BRANCH,
                srcs=srcs,
                taken=taken,
                target=target if taken else pc + INSTRUCTION_BYTES,
            )
        )

    def jump(self, pc: int, target: int) -> None:
        self._emit(
            Instruction(pc=pc, op=OpClass.JUMP, taken=True, target=target)
        )

    def call(self, pc: int, target: int) -> None:
        self._emit(
            Instruction(pc=pc, op=OpClass.CALL, taken=True, target=target)
        )

    def ret(self, pc: int, return_to: int) -> None:
        self._emit(
            Instruction(pc=pc, op=OpClass.RETURN, taken=True, target=return_to)
        )

    def indirect(self, pc: int, target: int, srcs: tuple[int, ...] = ()) -> None:
        """Indirect branch (interpreter dispatch, virtual call)."""
        self._emit(
            Instruction(pc=pc, op=OpClass.INDIRECT, srcs=srcs, taken=True, target=target)
        )

    def nop(self, pc: int) -> None:
        self._emit(Instruction(pc=pc, op=OpClass.NOP))

    # -- composite idioms ---------------------------------------------------

    def literal_load(self, pc: int, dest: int, literal_addr: int) -> int:
        """A literal-pool / global-constant load.

        Compiled ARM code is full of these (PC-relative literal loads,
        GOT entries, global table bases): the address is a constant per
        static PC and the value never changes — bread and butter for
        both address and value predictors, and a large share of why
        Figure 2's repeat fractions are as high as they are.
        """
        return self.load(pc, dests=(dest,), addr=literal_addr, size=8)[0]

    def global_rmw(self, pc: int, dest: int, global_addr: int, new_value: int) -> int:
        """Read-modify-write of a mutable global (counter, statistic).

        The load's address is rock-stable but its value changes with
        every update — after the updating store commits, a value
        predictor is stale (Figure 1's motivation) while DLVP reads the
        current value from the cache.
        """
        old = self.load(pc, dests=(dest,), addr=global_addr, size=8)[0]
        self.store(pc + 4, addr=global_addr, value=new_value, size=8, srcs=(dest,))
        return old

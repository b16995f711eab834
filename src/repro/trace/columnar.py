"""Struct-of-arrays trace representation.

A :class:`ColumnarTrace` stores the same information as a
:class:`~repro.trace.trace.Trace`, but as parallel ``array.array``
columns instead of one :class:`~repro.isa.Instruction` object per
dynamic instruction.  Two things fall out of that layout:

* the ``simulate()`` hot loop can read plain machine integers straight
  from the columns (no per-instruction attribute lookups, no object
  allocation) and only materialize an :class:`Instruction` *view* for
  the few instructions a prediction scheme actually inspects;
* fixed-size chunks of a columnar trace are cheap to concatenate and
  serialize, which is what lets the workload builder pack its rows
  chunk by chunk and the v2 trace format stream million-instruction
  traces in bounded memory.

Ragged per-instruction fields (``srcs``, ``dests``, ``values``) use the
classic prefix-index encoding: ``srcs_index`` has ``n + 1`` entries and
instruction ``i``'s sources live in ``srcs[srcs_index[i]:
srcs_index[i + 1]]``.  Values may be up to 128 bits wide (vector
loads), so the flat value column is split into ``values_lo``/
``values_hi`` 64-bit halves sharing one index.

Scalar optional fields are flag-encoded (``flags`` bit layout below)
with ``0`` stored in the column when absent, so every column stays a
fixed-width numeric array.  Conversion is lossless both ways — the
hypothesis round-trip suite in ``tests/test_columnar.py`` pins that.

Columns do not have to be ``array.array``: any buffer exposing the
array read surface works, and :meth:`from_columns` accepts typed
``memoryview``\\ s — which is how :mod:`repro.trace.share` attaches a
trace zero-copy out of a shared-memory segment.  A view-backed trace is
read-only (``append``/``extend`` raise), but the whole simulate() read
surface — indexing, slicing, ``tolist()``, iteration — is identical,
and the golden suite's "shared" leg pins the outcomes bit-identical.

Besides its columns a trace may carry *branch verdicts*
(:attr:`ColumnarTrace.verdicts`): one byte per row, 1 where the
baseline front end mispredicts that control instruction.  They are a
pure function of the trace (see :mod:`repro.branch.verdicts`), so they
are resolved once per trace and travel with it; they are not a column,
take no part in equality, and any row edit drops them.

The module depends only on the stdlib ``array``; :func:`numpy_columns`
exposes zero-copy numpy views when numpy is importable.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator
from itertools import accumulate, chain, islice

from repro.isa import Instruction, OpClass
from repro.trace.trace import Trace, TraceSummary

_MASK64 = (1 << 64) - 1

# flags bit layout (one byte per instruction)
F_MEM = 1          # mem_addr is present (column holds the address)
F_TARGET = 2       # target is present
F_VECTOR = 4       # is_vector
F_TAKEN_KNOWN = 8  # taken is not None
F_TAKEN = 16       # taken is True (only meaningful with F_TAKEN_KNOWN)

# OpClass reconstruction table: OpClass(v) walks the enum's value map on
# every call; indexing a tuple is one C-level operation.
OPCLASS_BY_VALUE: tuple[OpClass, ...] = tuple(
    OpClass(v) for v in sorted(op.value for op in OpClass)
)

# (attribute, typecode) in serialization order; itemsizes are validated
# by the v2 reader so a platform with exotic array widths fails loudly
# instead of mis-decoding.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("pc", "Q"),
    ("op", "B"),
    ("flags", "B"),
    ("mem_addr", "Q"),
    ("mem_size", "I"),
    ("target", "Q"),
    ("srcs_index", "Q"),
    ("srcs", "I"),
    ("dests_index", "Q"),
    ("dests", "I"),
    ("values_index", "Q"),
    ("values_lo", "Q"),
    ("values_hi", "Q"),
)

# Columns with one entry per instruction (the rest are RAGGED below).
PLAIN = ("pc", "op", "flags", "mem_addr", "mem_size", "target")
# Each ragged prefix index and the flat column(s) it addresses.
RAGGED: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("srcs_index", ("srcs",)),
    ("dests_index", ("dests",)),
    ("values_index", ("values_lo", "values_hi")),
)

# Prefix-index entries _copy_shifted adds a shift to per step.
_SHIFT_BLOCK = 512

# Instructions append_all packs per append_columns call: enough to
# amortize the per-call packing, few enough that a streaming reader
# (v1 re-chunking) never holds many Instruction objects at once.
_PACK_ROWS = 128


def column_typecode(col) -> str:
    """The element typecode of a column: ``array.array`` or memoryview."""
    code = getattr(col, "typecode", None)
    if code is None:
        code = col.format       # typed memoryview (shared-memory attach)
    return code


class ColumnarTrace:
    """An ordered instruction sequence stored column-wise.

    Supports the read surface the simulator and profilers need
    (``name``, ``len``, iteration, ``instruction(i)``, ``summary()``)
    plus append/extend, which the workload builder and the v2
    serializer build on.  ``verdicts`` is None or the trace's branch
    verdicts (see the module docstring); every row edit resets it.
    """

    __slots__ = tuple(name for name, _ in COLUMNS) + ("name", "verdicts")

    def __init__(self, name: str, instructions: Iterable[Instruction] = ()) -> None:
        self.name = name
        self.verdicts = None
        self.pc = array("Q")
        self.op = array("B")
        self.flags = array("B")
        self.mem_addr = array("Q")
        self.mem_size = array("I")
        self.target = array("Q")
        self.srcs_index = array("Q", (0,))
        self.srcs = array("I")
        self.dests_index = array("Q", (0,))
        self.dests = array("I")
        self.values_index = array("Q", (0,))
        self.values_lo = array("Q")
        self.values_hi = array("Q")
        self.append_all(instructions)

    # -- construction ----------------------------------------------------

    def append(self, inst: Instruction) -> None:
        self.append_all((inst,))

    def append_all(self, instructions: Iterable[Instruction]) -> None:
        """Append every instruction in order (the bulk form of :meth:`append`)."""
        self._check_writable()
        self.verdicts = None
        it = iter(instructions)
        while batch := list(islice(it, _PACK_ROWS)):
            self.append_columns(
                [inst.pc for inst in batch],
                [inst.op for inst in batch],
                [_flags_of(inst) for inst in batch],
                [0 if inst.mem_addr is None else inst.mem_addr for inst in batch],
                [inst.mem_size for inst in batch],
                [0 if inst.target is None else inst.target for inst in batch],
                [inst.srcs for inst in batch],
                [inst.dests for inst in batch],
                [inst.values for inst in batch],
            )

    def append_columns(
        self, pc, op, flags, mem_addr, mem_size, target, srcs, dests, values
    ) -> None:
        """Append rows given field by field, packing each column at C speed.

        The first six arguments are equal-length sequences of the plain
        columns' scalars (``0`` for an absent address or target, whose
        presence ``flags`` records); ``srcs``, ``dests`` and ``values``
        hold one tuple per row.  The workload builder keeps its pending
        rows in exactly these lists, so a trace is generated without
        one :class:`Instruction` per row.
        """
        self._check_writable()
        self.verdicts = None
        for attr, col in zip(PLAIN, (pc, op, flags, mem_addr, mem_size, target)):
            dst = getattr(self, attr)
            dst.extend(array(dst.typecode, col))
        for index, flat, groups in (
            (self.srcs_index, self.srcs, srcs),
            (self.dests_index, self.dests, dests),
        ):
            flat.extend(array(flat.typecode, list(chain.from_iterable(groups))))
            _extend_index(index, groups)
        flat_values = list(chain.from_iterable(values))
        try:
            lo = array("Q", flat_values)
        except OverflowError:       # a 128-bit vector value (or a negative one)
            self.values_lo.extend([v & _MASK64 for v in flat_values])
            self.values_hi.extend([(v >> 64) & _MASK64 for v in flat_values])
        else:
            self.values_lo.extend(lo)
            self.values_hi.frombytes(bytes(lo.itemsize * len(lo)))
        _extend_index(self.values_index, values)

    def extend(
        self, other: "ColumnarTrace", start: int = 0, stop: int | None = None
    ) -> None:
        """Append rows ``start:stop`` of ``other`` (chunk reassembly, slicing)."""
        self.extend_rows([(other, start, len(other.pc) if stop is None else stop)])

    def extend_rows(self, parts, consume: bool = False) -> None:
        """Append the row ranges ``(trace, start, stop)`` of ``parts`` in order.

        Works column by column: each column grows once to its final
        length and the sources' rows are filled in by buffer slices,
        each prefix index shifted onto this trace's flat lengths at C
        speed (:func:`_copy_shifted`) — no :class:`Instruction` is
        materialized and no Python loop visits an entry.  A trace without rows
        allocates each column once, at exactly its final length; one
        with rows grows its columns in place.  Sources may be
        view-backed (attached traces); only ``self`` must be writable.
        With ``consume`` every source column is deleted right after it
        has been copied, so splicing private traces into a new one
        peaks at one copy of the data plus one column; the sources are
        unusable afterwards.
        """
        self._check_writable()
        self.verdicts = None
        parts = [(src, a, b) for src, a, b in parts if a < b]
        sources = list({id(src): src for src, _, _ in parts}.values())
        fresh = not len(self)

        def splice(attr: str, spans, rebase: bool = False) -> None:
            col = getattr(self, attr)
            pos = len(col)
            grow = sum(b - a for _, a, b in spans)
            end = col[-1] if rebase else 0
            if fresh:
                # empty, or an index's leading 0: the zero fill holds it
                col = array(col.typecode, (0,)) * (pos + grow)
                setattr(self, attr, col)
            else:
                col.frombytes(bytes(grow * col.itemsize))
            with memoryview(col) as view:
                for src, a, b in spans:
                    src_col = getattr(src, attr)
                    stop = pos + b - a
                    if not rebase:
                        view[pos:stop] = memoryview(src_col)[a:b]
                    else:
                        # prefix entries a+1..b, shifted from src's
                        # offset src_col[a] to our flat end
                        _copy_shifted(
                            view, pos, memoryview(src_col)[a + 1:b + 1],
                            end - src_col[a],
                        )
                        end = view[stop - 1]
                    pos = stop
            if consume:
                for src in sources:
                    delattr(src, attr)

        for col in PLAIN:
            splice(col, parts)
        for index, flats in RAGGED:
            bounds = [
                (src, getattr(src, index)[a], getattr(src, index)[b])
                for src, a, b in parts
            ]
            for flat in flats:
                splice(flat, bounds)
            splice(index, parts, rebase=True)

    def slice(self, start: int, stop: int) -> "ColumnarTrace":
        """A new writable trace holding rows ``start:stop`` (indexes rebased)."""
        out = ColumnarTrace(self.name)
        out.extend(self, start, stop)
        return out

    def _check_writable(self) -> None:
        """Reject mutation of view-backed (attached) traces.

        A trace attached out of a shared-memory segment holds read-only
        memoryviews — ``append`` on one would die deep inside with an
        ``AttributeError``; failing here names the actual contract.
        """
        if not isinstance(self.pc, array):
            raise TypeError(
                f"ColumnarTrace {self.name!r} is read-only "
                f"(attached from a shared segment)"
            )

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        return cls(trace.name, trace.instructions)

    @classmethod
    def from_columns(cls, name: str, columns: dict) -> "ColumnarTrace":
        """Adopt pre-built columns: the v2 deserializer's entry point.

        Columns are normally ``array.array``\\ s; typed memoryviews
        (e.g. cast over a shared-memory segment) are accepted too and
        produce a read-only trace.
        """
        out = cls(name)
        n = len(columns["pc"])
        for attr, typecode in COLUMNS:
            col = columns[attr]
            if column_typecode(col) != typecode:
                raise ValueError(
                    f"column {attr!r}: expected typecode {typecode!r}, "
                    f"got {column_typecode(col)!r}"
                )
            setattr(out, attr, col)
        if len(columns["values_hi"]) != len(columns["values_lo"]):
            raise ValueError(
                f"values_hi length {len(columns['values_hi'])} != "
                f"values_lo length {len(columns['values_lo'])}"
            )
        flat_for_index = {
            "srcs_index": "srcs",
            "dests_index": "dests",
            "values_index": "values_lo",
        }
        for attr in ("srcs_index", "dests_index", "values_index"):
            idx = columns[attr]
            if len(idx) != n + 1 or idx[0] != 0:
                raise ValueError(f"column {attr!r}: malformed prefix index")
            flat = columns[flat_for_index[attr]]
            if idx[-1] != len(flat):
                raise ValueError(
                    f"column {attr!r}: final index {idx[-1]} != flat "
                    f"column length {len(flat)}"
                )
            prev = 0
            for x in idx:
                if x < prev:
                    raise ValueError(
                        f"column {attr!r}: prefix index not monotonic"
                    )
                prev = x
        return out

    # -- read surface ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[Instruction]:
        for i in range(len(self.pc)):
            yield self.instruction(i)

    def __getitem__(self, index: int) -> Instruction:
        return self.instruction(index)

    def instruction(self, i: int) -> Instruction:
        """Materialize instruction ``i`` as an :class:`Instruction` view.

        Hot path for the columnar simulate() loop (one view per
        predicted load), so it bypasses ``Instruction.__init__`` — the
        columns were populated from already-validated instructions, and
        ``__post_init__`` would re-check invariants the encoding cannot
        violate.
        """
        flags = self.flags[i]
        vs = self.values_index[i]
        ve = self.values_index[i + 1]
        lo = self.values_lo
        hi = self.values_hi
        inst = Instruction.__new__(Instruction)
        inst.pc = self.pc[i]
        inst.op = OPCLASS_BY_VALUE[self.op[i]]
        inst.srcs = tuple(self.srcs[self.srcs_index[i]:self.srcs_index[i + 1]])
        inst.dests = tuple(self.dests[self.dests_index[i]:self.dests_index[i + 1]])
        inst.mem_addr = self.mem_addr[i] if flags & F_MEM else None
        inst.mem_size = self.mem_size[i]
        inst.values = tuple(
            (hi[k] << 64) | lo[k] if hi[k] else lo[k] for k in range(vs, ve)
        )
        inst.taken = bool(flags & F_TAKEN) if flags & F_TAKEN_KNOWN else None
        inst.target = self.target[i] if flags & F_TARGET else None
        inst.is_vector = bool(flags & F_VECTOR)
        return inst

    def to_trace(self) -> Trace:
        return Trace(self.name, iter(self))

    def summary(self) -> TraceSummary:
        """Columnar twin of :meth:`Trace.summary` (same counts)."""
        return self.to_trace().summary()

    def numpy_columns(self) -> "dict[str, object]":
        """Zero-copy numpy views of every column (requires numpy)."""
        import numpy as np

        return {
            attr: np.frombuffer(getattr(self, attr), dtype=typecode)
            for attr, typecode in COLUMNS
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return self.name == other.name and all(
            getattr(self, attr) == getattr(other, attr) for attr, _ in COLUMNS
        )

    def __repr__(self) -> str:
        return f"ColumnarTrace({self.name!r}, {len(self)} instructions)"


def _flags_of(inst: Instruction) -> int:
    """The ``flags`` byte of one :class:`Instruction`."""
    flags = 0
    if inst.mem_addr is not None:
        flags |= F_MEM
    if inst.target is not None:
        flags |= F_TARGET
    if inst.is_vector:
        flags |= F_VECTOR
    if inst.taken is not None:
        flags |= F_TAKEN_KNOWN
        if inst.taken:
            flags |= F_TAKEN
    return flags


def _copy_shifted(dst: memoryview, pos: int, entries: memoryview, shift: int) -> None:
    """Copy prefix-index ``entries`` into ``dst`` from ``pos`` on, each
    plus ``shift``, at C speed.

    A block of entries is read as one integer whose lanes, one per
    entry, are the entries; adding ``shift`` times the integer that has
    a 1 in every lane adds ``shift`` to each entry.  No lane carries or
    borrows into the next, since every shifted entry is a flat-column
    offset, non-negative and far below the lane's width.  Blocks of
    ``_SHIFT_BLOCK`` entries keep every temporary a few KiB.
    """
    if not shift:
        dst[pos:pos + len(entries)] = entries
        return
    order = sys.byteorder
    lane = (1).to_bytes(entries.itemsize, order)
    ones = int.from_bytes(lane * _SHIFT_BLOCK, order)
    for k in range(0, len(entries), _SHIFT_BLOCK):
        block = entries[k:k + _SHIFT_BLOCK]
        if len(block) < _SHIFT_BLOCK:
            ones = int.from_bytes(lane * len(block), order)
        total = int.from_bytes(block, order) + shift * ones
        dst[pos + k:pos + k + len(block)] = memoryview(
            total.to_bytes(block.nbytes, order)
        ).cast(block.format)


def _extend_index(index: array, groups) -> None:
    """Extend a prefix index by the lengths of ``groups``, at C speed."""
    ends = accumulate(map(len, groups), initial=index[-1])
    next(ends)
    index.extend(array(index.typecode, list(ends)))

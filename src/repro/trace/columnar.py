"""Struct-of-arrays trace representation.

A :class:`ColumnarTrace` stores the same information as a
:class:`~repro.trace.trace.Trace`, but as parallel ``array.array``
columns instead of one :class:`~repro.isa.Instruction` object per
dynamic instruction.  Two things fall out of that layout:

* the ``simulate()`` hot loop reads plain machine integers from
  window-sized list snapshots of the columns
  (:meth:`ColumnarTrace.windows`) — no per-instruction attribute
  lookups, no object allocation;
* row ranges of a columnar trace are cheap to concatenate, splice and
  serialize, which is what lets the workload builder pack its rows
  chunk by chunk and splice its cold bursts in place, and the v3 trace
  format stream million-instruction traces in bounded memory.

Ragged per-instruction fields (``srcs``, ``dests``, ``values``) are
stored as a one-byte count per row plus one flat column of entries:
instruction ``i``'s sources are the ``srcs_count[i]`` entries of
``srcs`` that follow the entries of rows ``0 .. i-1``.  A count column
is a per-row column like any other, so row ranges copy without
rebasing anything; readers that walk the rows carry running offsets
into the flat columns.  Values may be up to 128 bits wide (vector
loads), so the flat value column is split into ``values_lo``/
``values_hi`` 64-bit halves sharing one count.  A row holds at most 255
entries of each ragged field and a ``mem_size`` of at most 255 bytes
(the suite's largest are 4 entries and 16 bytes);
:meth:`ColumnarTrace.append_columns` refuses more.

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

The module depends only on the stdlib ``array``.
"""

from __future__ import annotations

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
# by the v3 reader so a platform with exotic array widths fails loudly
# instead of mis-decoding.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("pc", "Q"),
    ("op", "B"),
    ("flags", "B"),
    ("mem_addr", "Q"),
    ("mem_size", "B"),
    ("target", "Q"),
    ("srcs_count", "B"),
    ("srcs", "I"),
    ("dests_count", "B"),
    ("dests", "I"),
    ("values_count", "B"),
    ("values_lo", "Q"),
    ("values_hi", "Q"),
)

_TYPECODES = dict(COLUMNS)
# The plain fields, in append_columns order.
_FIELDS = ("pc", "op", "flags", "mem_addr", "mem_size", "target")
# Each ragged field's count column and the flat column(s) it counts.
_RAGGED: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("srcs_count", ("srcs",)),
    ("dests_count", ("dests",)),
    ("values_count", ("values_lo", "values_hi")),
)
# Columns with one entry per row: the plain fields and the counts.
_PER_ROW = _FIELDS + tuple(count for count, _ in _RAGGED)

# Instructions append_all packs per append_columns call: enough to
# amortize the per-call packing, few enough that a caller streaming
# Instruction objects in never holds many of them at once.
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
    (``name``, ``len``, iteration, ``instruction(i)``, ``summary()``,
    :meth:`windows`) plus append/extend/splice, which the workload
    builder and the v3 serializer build on.  ``verdicts`` is None or the
    trace's branch verdicts (see the module docstring); every row edit
    resets it.
    """

    __slots__ = tuple(name for name, _ in COLUMNS) + ("name", "verdicts")

    def __init__(self, name: str, instructions: Iterable[Instruction] = ()) -> None:
        self.name = name
        self.verdicts = None
        for attr, typecode in COLUMNS:
            setattr(self, attr, array(typecode))
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

        A value its column cannot hold — more than 255 entries of a
        ragged field in one row, a ``mem_size`` over 255 — raises a
        ``ValueError`` naming the column, before any column changes.
        """
        self._check_writable()
        self.verdicts = None
        packed = [
            (attr, _pack(attr, col))
            for attr, col in zip(_FIELDS, (pc, op, flags, mem_addr, mem_size, target))
        ]
        for field, groups in (("srcs", srcs), ("dests", dests)):
            packed.append((f"{field}_count", _pack(f"{field}_count", map(len, groups))))
            packed.append((field, _pack(field, list(chain.from_iterable(groups)))))
        packed.append(("values_count", _pack("values_count", map(len, values))))
        flat_values = list(chain.from_iterable(values))
        try:
            lo = array("Q", flat_values)
        except OverflowError:       # a 128-bit vector value (or a negative one)
            lo = array("Q", [v & _MASK64 for v in flat_values])
            hi = array("Q", [(v >> 64) & _MASK64 for v in flat_values])
        else:
            hi = array("Q", bytes(lo.itemsize * len(lo)))
        packed += (("values_lo", lo), ("values_hi", hi))
        for attr, col in packed:
            getattr(self, attr).extend(col)

    def extend(
        self, other: "ColumnarTrace", start: int = 0, stop: int | None = None
    ) -> None:
        """Append rows ``start:stop`` of ``other`` (chunk reassembly, slicing)."""
        self.extend_rows([(other, start, len(other.pc) if stop is None else stop)])

    def extend_rows(self, parts) -> None:
        """Append the row ranges ``(trace, start, stop)`` of ``parts`` in order.

        Works column by column: each column grows once to its final
        length and the sources' rows are filled in by buffer slices — no
        :class:`Instruction` is materialized and no Python loop visits
        an entry.  Counts copy like any other per-row column; each
        part's span of a flat column comes from running sums of its
        source's counts (:func:`_flat_spans`).  A trace without rows
        allocates each column once, at exactly its final length; one
        with rows grows its columns in place.  Sources may be
        view-backed (attached traces); only ``self`` must be writable.
        """
        self._extend_rows(parts, {})

    def _extend_rows(self, parts, cursors: dict) -> None:
        """:meth:`extend_rows`, its flat-offset cursors kept in ``cursors``."""
        self._check_writable()
        self.verdicts = None
        parts = [(src, a, b) for src, a, b in parts if a < b]
        spans = [(flats, _flat_spans(parts, count, cursors)) for count, flats in _RAGGED]
        for attr in _PER_ROW:
            self._append_spans(attr, parts)
        for flats, flat_parts in spans:
            for flat in flats:
                self._append_spans(flat, flat_parts)

    def _append_spans(self, attr: str, spans) -> None:
        """Append ``(source, start, stop)`` entry spans to column ``attr``."""
        col = getattr(self, attr)
        pos = len(col)
        grow = sum(b - a for _, a, b in spans)
        if pos:
            col.frombytes(bytes(grow * col.itemsize))
        else:               # allocated once, at exactly its final length
            col = array(col.typecode, (0,)) * grow
            setattr(self, attr, col)
        with memoryview(col) as view:
            for src, a, b in spans:
                view[pos:pos + b - a] = memoryview(getattr(src, attr))[a:b]
                pos += b - a

    def splice_in(self, other: "ColumnarTrace", cuts) -> None:
        """Insert all of ``other``'s rows in place, in order, consuming it.

        ``cuts`` holds ascending ``(at, stop)`` pairs: ``other``'s rows
        from the previous pair's ``stop`` (0 for the first) up to
        ``stop`` go before this trace's row ``at``, and the last
        ``stop`` is ``len(other)``.  This is the workload builder's
        cold-burst splice.

        Each column grows once, by ``other``'s column, and is then
        rearranged back to front: every run of this trace's rows moves
        up by the inserted entries below it, and each run of ``other``'s
        fills the gap it leaves.  Memoryview slice assignment is a
        ``memmove``, so a run may overlap its own destination.  Each of
        ``other``'s columns is released as soon as it has been copied, so
        the splice holds at most this trace, ``other`` and one column's
        growth at once; ``other`` is unusable afterwards.
        """
        self._check_writable()
        self.verdicts = None
        if (cuts[-1][1] if cuts else 0) != len(other):
            raise ValueError("splice_in: the cuts must place every row of other")
        bounds = [0] + [at for at, _ in cuts] + [len(self)]
        stops = [0] + [stop for _, stop in cuts]
        mine = [(self, a, b) for a, b in zip(bounds, bounds[1:])]
        theirs = [(other, a, b) for a, b in zip(stops, stops[1:])]
        columns = [(attr, mine, theirs) for attr in _PER_ROW]
        for count, flats in _RAGGED:
            spans = _flat_spans(mine, count, {}), _flat_spans(theirs, count, {})
            columns += [(flat, *spans) for flat in flats]
        for attr, my_spans, their_spans in columns:
            col = getattr(self, attr)
            src = getattr(other, attr)
            with memoryview(src) as cold:
                col.frombytes(cold.cast("B"))
                with memoryview(col) as view:
                    for (_, a, b), (_, c, d) in reversed(
                        list(zip(my_spans[1:], their_spans))
                    ):
                        view[a + d:b + d] = view[a:b]
                        view[a + c:a + d] = cold[c:d]
            del src
            delattr(other, attr)

    def slice(self, start: int, stop: int) -> "ColumnarTrace":
        """A new writable trace holding rows ``start:stop``."""
        out = ColumnarTrace(self.name)
        out.extend(self, start, stop)
        return out

    def chunks(self, size: int) -> Iterator["ColumnarTrace"]:
        """Consecutive slices of ``size`` rows (the last may be shorter).

        Each chunk equals the :meth:`slice` of its rows, but the flat
        offsets carry from one chunk to the next, so cutting the whole
        trace sums each count once.
        """
        cursors: dict = {}
        n = len(self)
        for start in range(0, n, size):
            out = ColumnarTrace(self.name)
            out._extend_rows([(self, start, min(n, start + size))], cursors)
            yield out

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
        """Adopt pre-built columns: the v3 deserializer's entry point.

        Columns are normally ``array.array``\\ s; typed memoryviews
        (e.g. cast over a shared-memory segment) are accepted too and
        produce a read-only trace.  Every per-row column must hold one
        entry per row and every count column must sum to the length of
        the flat column(s) it counts.
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
        for attr in _PER_ROW:
            if len(columns[attr]) != n:
                raise ValueError(
                    f"column {attr!r}: {len(columns[attr])} entries for {n} rows"
                )
        for count, flats in _RAGGED:
            total = sum(columns[count])
            for flat in flats:
                if len(columns[flat]) != total:
                    raise ValueError(
                        f"column {count!r}: counts sum to {total}, but {flat!r} "
                        f"holds {len(columns[flat])} entries"
                    )
        return out

    # -- read surface ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.pc)

    def __iter__(self) -> Iterator[Instruction]:
        s = d = v = 0
        for i, ns, nd, nv in zip(
            range(len(self.pc)), self.srcs_count, self.dests_count, self.values_count
        ):
            yield self._view(i, s, d, v)
            s += ns
            d += nd
            v += nv

    def __getitem__(self, index: int) -> Instruction:
        return self.instruction(index)

    def instruction(self, i: int) -> Instruction:
        """Materialize instruction ``i`` as an :class:`Instruction` view.

        Finds the row's entries by summing the counts of the rows
        before it, so a lookup costs O(i); iterating the trace carries
        running offsets instead, and the simulate loop reads
        :meth:`windows`.
        """
        return self._view(
            i, sum(self.srcs_count[:i]), sum(self.dests_count[:i]),
            sum(self.values_count[:i]),
        )

    def _view(self, i: int, s: int, d: int, v: int) -> Instruction:
        """Row ``i`` as an :class:`Instruction`, its entries at flat
        offsets ``s``, ``d`` and ``v``.

        Bypasses ``Instruction.__init__``: the columns were populated
        from already-validated instructions, and ``__post_init__`` would
        re-check invariants the encoding cannot violate.
        """
        flags = self.flags[i]
        lo = self.values_lo
        hi = self.values_hi
        inst = Instruction.__new__(Instruction)
        inst.pc = self.pc[i]
        inst.op = OPCLASS_BY_VALUE[self.op[i]]
        inst.srcs = tuple(self.srcs[s:s + self.srcs_count[i]])
        inst.dests = tuple(self.dests[d:d + self.dests_count[i]])
        inst.mem_addr = self.mem_addr[i] if flags & F_MEM else None
        inst.mem_size = self.mem_size[i]
        inst.values = tuple(
            (hi[k] << 64) | lo[k] if hi[k] else lo[k]
            for k in range(v, v + self.values_count[i])
        )
        inst.taken = bool(flags & F_TAKEN) if flags & F_TAKEN_KNOWN else None
        inst.target = self.target[i] if flags & F_TARGET else None
        inst.is_vector = bool(flags & F_VECTOR)
        return inst

    def windows(self, ends, plain) -> Iterator[list]:
        """Plain-list snapshots of consecutive row windows, one per end.

        For each of the ascending ``ends``, yields the rows from the
        previous end (0 at first) up to it: one list per column named
        in ``plain``, then per ragged field (``srcs``, ``dests``,
        ``values``) a prefix list — the window's row ``j`` has entries
        ``prefix[j]:prefix[j + 1]`` — followed by the window's flat
        entries (``values`` as a lo and a hi list).

        Indexing an ``array.array`` (or memoryview) boxes a fresh int on
        every read, while list indexing returns the already-boxed
        object, so the simulate loop reads lists; ``tolist()`` and
        ``accumulate`` build them at C speed.  Each window's flat slices
        start where the previous window's ended, so no count is summed
        twice and nothing kept between windows grows with the trace.
        """
        offsets = [0] * len(_RAGGED)
        start = 0
        for end in ends:
            cols = [getattr(self, attr)[start:end].tolist() for attr in plain]
            for k, (count, flats) in enumerate(_RAGGED):
                prefix = list(accumulate(getattr(self, count)[start:end], initial=0))
                lo = offsets[k]
                hi = offsets[k] = lo + prefix[-1]
                cols.append(prefix)
                for flat in flats:
                    cols.append(getattr(self, flat)[lo:hi].tolist())
            yield cols
            start = end

    def to_trace(self) -> Trace:
        return Trace(self.name, iter(self))

    def summary(self) -> TraceSummary:
        """Columnar twin of :meth:`Trace.summary` (same counts)."""
        return self.to_trace().summary()

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


def _pack(attr: str, values) -> array:
    """``values`` as column ``attr``'s array; a ``ValueError`` naming the
    column if one of them does not fit its width."""
    typecode = _TYPECODES[attr]
    try:
        # bytes() packs a one-byte column at C speed
        return array(typecode, bytes(values) if typecode == "B" else values)
    except (OverflowError, ValueError) as exc:
        raise ValueError(
            f"column {attr!r}: a row's value does not fit in {typecode!r} ({exc})"
        ) from None


def _flat_spans(parts, count: str, cursors: dict) -> list:
    """Each row part's ``(source, start, stop)`` in the flat column(s)
    that ``count`` counts.

    ``cursors`` maps ``(source id, count)`` to a row of the source and
    that row's flat offset; each part moves its source's cursor by the
    sum of the counts in between, so parts that walk a source forwards
    sum each of its counts once.
    """
    spans = []
    for src, a, b in parts:
        counts = getattr(src, count)
        key = (id(src), count)
        row, offset = cursors.get(key, (0, 0))
        if a >= row:
            offset += sum(counts[row:a])
        else:
            offset -= sum(counts[a:row])
        stop = offset + sum(counts[a:b])
        spans.append((src, offset, stop))
        cursors[key] = (b, stop)
    return spans

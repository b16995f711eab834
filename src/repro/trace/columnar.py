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
  chunk by chunk and splice its cold bursts in place, and the v4 trace
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

Column widths follow the values.  The one-byte per-row columns (``op``,
``flags``, ``mem_size`` and the three counts) are always ``'B'``.  Each
of the seven value columns (``pc``, ``mem_addr``, ``target``, ``srcs``,
``dests``, ``values_lo``, ``values_hi``) holds the narrowest of
``'B'``/``'H'``/``'I'``/``'Q'`` that takes every chunk it has received:
a packed chunk counts by its values, a copied row range by its source
column's typecode.  A chunk that needs more room widens the column, one
array copy per step, so a column widens at most three times.  The
suite's addresses stay below 2**28 and its register ids below 64, so
its traces hold ``'I'`` addresses and ``'B'`` registers, and scalar
traces a ``'B'`` column of zeros for ``values_hi``; a 49-bit address or
a 128-bit value widens its column to ``'Q'``.  Readers see no
difference: indexing, slicing and ``tolist()`` give the same ints at
any width, and array equality compares values across typecodes.

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

# Instruction.taken by flags byte.
_TAKEN_BY_FLAGS: tuple[bool | None, ...] = tuple(
    bool(flags & F_TAKEN) if flags & F_TAKEN_KNOWN else None for flags in range(256)
)

# OpClass reconstruction table: OpClass(v) walks the enum's value map on
# every call; indexing a tuple is one C-level operation.
OPCLASS_BY_VALUE: tuple[OpClass, ...] = tuple(
    OpClass(v) for v in sorted(op.value for op in OpClass)
)

# Typecodes of a value column, narrowest first.
WIDTHS = "BHIQ"
# (attribute, the typecodes it may hold) in serialization order; the
# v4 format records each chunk's typecodes, and its reader validates
# the itemsizes, so a platform with exotic array widths fails loudly
# instead of mis-decoding.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("pc", WIDTHS),
    ("op", "B"),
    ("flags", "B"),
    ("mem_addr", WIDTHS),
    ("mem_size", "B"),
    ("target", WIDTHS),
    ("srcs_count", "B"),
    ("srcs", WIDTHS),
    ("dests_count", "B"),
    ("dests", WIDTHS),
    ("values_count", "B"),
    ("values_lo", WIDTHS),
    ("values_hi", WIDTHS),
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
# Rows per list snapshot when iterating a trace as Instructions.
_ITER_ROWS = 1024


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
    builder and the v4 serializer build on.  ``verdicts`` is None or the
    trace's branch verdicts (see the module docstring); every row edit
    resets it.  Every column starts empty at ``'B'``.
    """

    __slots__ = tuple(name for name, _ in COLUMNS) + ("name", "verdicts")

    def __init__(self, name: str, instructions: Iterable[Instruction] = ()) -> None:
        self.name = name
        self.verdicts = None
        for attr, _ in COLUMNS:
            setattr(self, attr, array("B"))
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

        Each value column packs the chunk at the narrowest typecode,
        from its own up, that holds the chunk's values, and widens to it
        (see the module docstring).  A value its column cannot hold —
        more than 255 entries of a ragged field in one row, a
        ``mem_size`` over 255, an address over 64 bits — raises a
        ``ValueError`` naming the column, before any column changes or
        widens.
        """
        self._check_writable()
        self.verdicts = None
        packed = [
            (attr, self._pack(attr, col))
            for attr, col in zip(_FIELDS, (pc, op, flags, mem_addr, mem_size, target))
        ]
        for field, groups in (("srcs", srcs), ("dests", dests)):
            packed.append((f"{field}_count", self._pack(f"{field}_count", map(len, groups))))
            packed.append((field, self._pack(field, list(chain.from_iterable(groups)))))
        packed.append(("values_count", self._pack("values_count", map(len, values))))
        flat_values = list(chain.from_iterable(values))
        try:
            lo = self._pack("values_lo", flat_values)
        except ValueError:          # a 128-bit vector value (or a negative one)
            lo = self._pack("values_lo", [v & _MASK64 for v in flat_values])
            hi = self._pack("values_hi", [(v >> 64) & _MASK64 for v in flat_values])
        else:
            hi = array(self.values_hi.typecode, bytes(self.values_hi.itemsize * len(lo)))
        packed += (("values_lo", lo), ("values_hi", hi))
        for attr, col in packed:
            self._widen(attr, col.typecode).extend(col)

    def _pack(self, attr: str, values) -> array:
        """``values`` as an array for column ``attr``: at the narrowest of
        the column's typecodes, from its current one up, that holds them;
        a ``ValueError`` naming the column when none does.  ``values``
        must be iterable more than once unless the column is ``'B'``."""
        codes = _TYPECODES[attr]
        for code in codes[codes.index(getattr(self, attr).typecode):]:
            try:
                # bytes() packs a one-byte column at C speed
                return array(code, bytes(values) if code == "B" else values)
            except (OverflowError, ValueError) as exc:
                error = str(exc)    # not exc: its traceback would hold self
        raise ValueError(
            f"column {attr!r}: a row's value does not fit in {code!r} ({error})"
        ) from None

    def _widen(self, attr: str, typecode: str) -> array:
        """Column ``attr``, first widened to ``typecode`` if that is wider
        (one array copy)."""
        col = getattr(self, attr)
        if WIDTHS.index(typecode) > WIDTHS.index(col.typecode):
            col = array(typecode, col)
            setattr(self, attr, col)
        return col

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
        """Append ``(source, start, stop)`` entry spans to column ``attr``.

        The column takes the widest typecode among its own and its
        non-empty spans' sources; a narrower span is widened by a copy
        of the span alone (memoryview assignment needs equal formats).
        """
        spans = [(getattr(src, attr), a, b) for src, a, b in spans if a < b]
        code = _widest([getattr(self, attr).typecode]
                       + [column_typecode(src) for src, _, _ in spans])
        col = self._widen(attr, code)
        pos = len(col)
        grow = sum(b - a for _, a, b in spans)
        if pos:
            col.frombytes(bytes(grow * col.itemsize))
        else:               # allocated once, at exactly its final length
            col = array(code, (0,)) * grow
            setattr(self, attr, col)
        with memoryview(col) as view:
            for src, a, b in spans:
                span = memoryview(src)[a:b]
                if column_typecode(src) != code:
                    span = array(code, span)
                view[pos:pos + b - a] = span
                pos += b - a

    def splice_in(self, other: "ColumnarTrace", cuts) -> None:
        """Insert all of ``other``'s rows in place, in order, consuming it.

        ``cuts`` holds ascending ``(at, stop)`` pairs: ``other``'s rows
        from the previous pair's ``stop`` (0 for the first) up to
        ``stop`` go before this trace's row ``at``, and the last
        ``stop`` is ``len(other)``.  Cuts that break this raise
        ``ValueError`` before either trace changes.  This is the
        workload builder's cold-burst splice.

        Each column grows once, by ``other``'s column, and is then
        rearranged back to front: every run of this trace's rows moves
        up by the inserted entries below it, and each run of ``other``'s
        fills the gap it leaves.  Memoryview slice assignment is a
        ``memmove``, so a run may overlap its own destination.  Each of
        ``other``'s columns is released as soon as it has been copied, so
        the splice holds at most this trace, ``other`` and one column's
        growth at once; ``other`` is unusable afterwards.  Where the two
        columns' typecodes differ, the narrower one is widened first:
        this trace's by one copy of the column, ``other``'s by a copy
        that replaces it.
        """
        self._check_writable()
        bounds = [0] + [at for at, _ in cuts] + [len(self)]
        stops = [0] + [stop for _, stop in cuts]
        if stops[-1] != len(other):
            raise ValueError("splice_in: the cuts must place every row of other")
        for edges in (bounds, stops):
            if any(a > b for a, b in zip(edges, edges[1:])):
                raise ValueError(
                    "splice_in: cuts must ascend within both traces")
        self.verdicts = None
        mine = [(self, a, b) for a, b in zip(bounds, bounds[1:])]
        theirs = [(other, a, b) for a, b in zip(stops, stops[1:])]
        columns = [(attr, mine, theirs) for attr in _PER_ROW]
        for count, flats in _RAGGED:
            spans = _flat_spans(mine, count, {}), _flat_spans(theirs, count, {})
            columns += [(flat, *spans) for flat in flats]
        for attr, my_spans, their_spans in columns:
            src = getattr(other, attr)
            codes = [getattr(self, attr).typecode]
            if len(src):
                codes.append(column_typecode(src))
            col = self._widen(attr, _widest(codes))
            code = col.typecode
            if column_typecode(src) != code:
                src = array(code, src)
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
        """Adopt pre-built columns: the v4 deserializer's entry point.

        Columns are normally ``array.array``\\ s; typed memoryviews
        (e.g. cast over a shared-memory segment) are accepted too and
        produce a read-only trace.  Each column's typecode must be one
        its attribute may hold (``COLUMNS``), every per-row column must
        hold one entry per row and every count column must sum to the
        length of the flat column(s) it counts.
        """
        out = cls(name)
        n = len(columns["pc"])
        for attr, typecodes in COLUMNS:
            col = columns[attr]
            if column_typecode(col) not in typecodes:
                raise ValueError(
                    f"column {attr!r}: expected a typecode in {typecodes!r}, "
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
        """Every row as an :class:`Instruction`, read window by window
        from :meth:`windows`' list snapshots.

        Bypasses ``Instruction.__init__``: the columns were populated
        from already-validated instructions, and ``__post_init__`` would
        re-check invariants the encoding cannot violate.
        """
        n = len(self.pc)
        ends = [*range(_ITER_ROWS, n, _ITER_ROWS), n] if n else []
        new = Instruction.__new__
        opclass = OPCLASS_BY_VALUE
        for (pcs, ops, flags_col, mem_addrs, mem_sizes, targets,
             srcs_prefix, srcs, dests_prefix, dests,
             values_prefix, lo, hi) in self.windows(ends, _FIELDS):
            if any(hi):
                lo = [(h << 64) | v for v, h in zip(lo, hi)]
            # a tuple's slice is a tuple: one allocation per field and row
            srcs, dests, values = tuple(srcs), tuple(dests), tuple(lo)
            for pc, op, flags, mem_addr, mem_size, target, s0, s1, d0, d1, v0, v1 in zip(
                pcs, ops, flags_col, mem_addrs, mem_sizes, targets,
                srcs_prefix, islice(srcs_prefix, 1, None),
                dests_prefix, islice(dests_prefix, 1, None),
                values_prefix, islice(values_prefix, 1, None),
            ):
                inst = new(Instruction)
                inst.pc = pc
                inst.op = opclass[op]
                inst.srcs = srcs[s0:s1]
                inst.dests = dests[d0:d1]
                inst.mem_addr = mem_addr if flags & F_MEM else None
                inst.mem_size = mem_size
                inst.values = values[v0:v1]
                inst.taken = _TAKEN_BY_FLAGS[flags]
                inst.target = target if flags & F_TARGET else None
                inst.is_vector = flags & F_VECTOR != 0
                yield inst

    def __getitem__(self, index: int) -> Instruction:
        return self.instruction(index)

    def instruction(self, i: int) -> Instruction:
        """Materialize instruction ``i`` (negative counts from the end).

        Cuts the one row out with :meth:`slice`, which sums the counts
        of the rows before it, so a lookup costs O(i); iterating the
        trace and the simulate loop read :meth:`windows` instead.
        """
        n = len(self.pc)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {i} of a {n}-row trace")
        return next(iter(self.slice(i, i + 1)))

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


def _widest(typecodes) -> str:
    """The widest of ``typecodes`` (each one of :data:`WIDTHS`)."""
    return max(typecodes, key=WIDTHS.index)


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

"""Trace serialization: v1 line format and v3 binary columnar format.

Two on-disk formats, one sniffing loader:

* **v1** (``repro-trace-v1``) — the original plain-text format: a header
  line followed by one line per instruction.  Kept for interchange and
  for old cache entries.  Reads and writes now stream line-by-line;
  the original implementation buffered the whole trace as one string on
  save *and* ``read_text().splitlines()`` on load, double-materializing
  O(trace) memory.

* **v3** (``repro-trace-v3``) — binary columnar: the header is followed
  by framed chunks, each chunk the raw little-endian bytes of a
  :class:`~repro.trace.columnar.ColumnarTrace`'s columns (one-byte
  counts for the ragged fields).  Both the writer and the reader work
  chunk-at-a-time, so a million-instruction trace round-trips within a
  bounded RSS envelope, and the writer accepts a chunk *iterator* as
  well as a whole trace.  A trace's branch verdicts, when it carries
  them, follow the footer as an optional trailing section; a file
  without one (chunk iterators) still loads, and its first simulation
  resolves them.

A ``repro-trace-v2`` file holds the same frames in the older
prefix-index column layout, which this version no longer reads: the
loaders refuse it with :class:`StaleTraceFormat`.

v1 line grammar (space-separated fields; ``-`` means absent)::

    pc op srcs dests mem_addr mem_size values taken target vector

``srcs``/``dests``/``values`` are comma-joined integers (or ``-``).
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

from repro.isa import Instruction, OpClass
from repro.trace.columnar import COLUMNS, ColumnarTrace
from repro.trace.trace import Trace

_MAGIC = "repro-trace-v1"
_MAGIC_V3 = b"repro-trace-v3\n"
# The prefix-index layout v3 replaced; recognized only to be refused.
_MAGIC_V2 = b"repro-trace-v2\n"

# v3 framing: after the magic comes one header line
# ``<name> <itemsizes>\n`` (itemsizes as B:Q:I byte widths, validated on
# read), then chunks of ``<u32 count>`` + per-column ``<u64 nbytes> +
# raw bytes`` in COLUMNS order, a ``count == 0`` terminator, and a
# ``<u64 total>`` footer cross-checked against the chunk sum.  An
# optional verdict section may follow: ``_VERDICTS`` + ``<u64 total>``
# + one byte (0 or 1) per row.
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_CHUNK_END = 0
_VERDICTS = b"verdicts"

DEFAULT_CHUNK_SIZE = 8192


class StaleTraceFormat(ValueError):
    """A trace file in a layout this version no longer reads (v2)."""


def _join(items: tuple[int, ...]) -> str:
    return ",".join(str(i) for i in items) if items else "-"


def _split(field: str) -> tuple[int, ...]:
    return () if field == "-" else tuple(int(x) for x in field.split(","))


def _opt(field: str) -> int | None:
    return None if field == "-" else int(field)


def _format_line(inst: Instruction) -> str:
    taken = "-" if inst.taken is None else ("1" if inst.taken else "0")
    target = "-" if inst.target is None else str(inst.target)
    mem_addr = "-" if inst.mem_addr is None else str(inst.mem_addr)
    return (
        f"{inst.pc} {int(inst.op)} {_join(inst.srcs)} {_join(inst.dests)} "
        f"{mem_addr} {inst.mem_size} {_join(inst.values)} "
        f"{taken} {target} {1 if inst.is_vector else 0}\n"
    )


def _parse_line(line: str) -> Instruction:
    fields = line.split()
    if len(fields) != 10:
        raise ValueError(f"malformed trace line: {line!r}")
    taken_field = fields[7]
    return Instruction(
        pc=int(fields[0]),
        op=OpClass(int(fields[1])),
        srcs=_split(fields[2]),
        dests=_split(fields[3]),
        mem_addr=_opt(fields[4]),
        mem_size=int(fields[5]),
        values=_split(fields[6]),
        taken=None if taken_field == "-" else taken_field == "1",
        target=_opt(fields[8]),
        is_vector=fields[9] == "1",
    )


# -- v1 ------------------------------------------------------------------


def _save_trace_v1(trace: Trace | ColumnarTrace, path: str | Path) -> None:
    """Write the v1 line format, one line at a time (bounded memory)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC} {trace.name} {len(trace)}\n")
        for inst in trace:
            fh.write(_format_line(inst))


def _iter_v1(path: str | Path) -> Iterator[Instruction]:
    """Yield instructions from a v1 file, validating the declared count."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != _MAGIC:
            raise ValueError(f"not a {_MAGIC} file: {path}")
        count = int(header[2])
        seen = 0
        for line in fh:
            if line.strip():
                yield _parse_line(line)
                seen += 1
        if seen != count:
            raise ValueError(
                f"trace {path} declares {count} instructions but has {seen}"
            )


def _v1_name(path: str | Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise ValueError(f"not a {_MAGIC} file: {path}")
    return header[1]


# -- v3 ------------------------------------------------------------------


def _column_bytes(col) -> memoryview:
    """A column's little-endian bytes: on a little-endian host a byte
    view of the column's own buffer (no copy), else a swapped copy."""
    if sys.byteorder == "little":
        return memoryview(col).cast("B")
    swapped = col[:]
    swapped.byteswap()
    return memoryview(swapped).cast("B")


def _chunks_of(source: Trace | ColumnarTrace, chunk_size: int) -> Iterator[ColumnarTrace]:
    """Slice any trace container into ColumnarTrace chunks.

    A :class:`ColumnarTrace`'s columns *are* the wire format, so it is
    cut with column slices (:meth:`ColumnarTrace.chunks`) — or yielded
    as-is when it fits one chunk, the path ``v3_bytes`` (and with it
    every fabric publish) and the trace cache take.  Re-materializing an ``Instruction``
    view per row would cost several times the serialization itself.
    """
    if isinstance(source, ColumnarTrace):
        if len(source) > chunk_size:
            yield from source.chunks(chunk_size)
        elif len(source):
            yield source
        return
    chunk = ColumnarTrace(source.name)
    for inst in source:
        chunk.append(inst)
        if len(chunk) >= chunk_size:
            yield chunk
            chunk = ColumnarTrace(source.name)
    if len(chunk):
        yield chunk


def _save_trace_v3(
    source: Trace | ColumnarTrace | Iterable[ColumnarTrace],
    path: str | Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> None:
    """Write the v3 binary columnar format, chunk by chunk.

    ``source`` may be a full trace (sliced into chunks here) or an
    iterator of :class:`ColumnarTrace` chunks, in which case nothing
    larger than one chunk is ever resident.
    """
    with open(path, "wb") as fh:
        _write_v3(fh, source, chunk_size)


def _write_v3(fh, source, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
    """Stream the v3 byte layout into any binary file object."""
    name: str | None = None
    verdicts = None
    if isinstance(source, (Trace, ColumnarTrace)):
        # The name is known up front, so even a zero-instruction trace
        # serializes to a well-formed header + terminator + footer.
        name = source.name
        verdicts = getattr(source, "verdicts", None)
        chunks: Iterable[ColumnarTrace] = _chunks_of(source, chunk_size)
    else:
        chunks = iter(source)
    total = 0
    wrote_header = False
    if name is not None:
        fh.write(_MAGIC_V3)
        fh.write(f"{name} {_platform_itemsizes()}\n".encode())
        wrote_header = True
    for chunk in chunks:
        if not wrote_header:
            fh.write(_MAGIC_V3)
            fh.write(f"{chunk.name} {_platform_itemsizes()}\n".encode())
            wrote_header = True
        n = len(chunk)
        if not n:
            continue
        total += n
        fh.write(_U32.pack(n))
        for attr, _ in COLUMNS:
            with _column_bytes(getattr(chunk, attr)) as data:
                fh.write(_U64.pack(len(data)))
                fh.write(data)
    if not wrote_header:
        raise ValueError("cannot serialize an empty chunk stream (no name)")
    fh.write(_U32.pack(_CHUNK_END))
    fh.write(_U64.pack(total))
    if verdicts is not None:
        fh.write(_VERDICTS)
        fh.write(_U64.pack(len(verdicts)))
        fh.write(bytes(verdicts))


def _platform_itemsizes() -> str:
    return ":".join(
        str(array(tc).itemsize) for tc in sorted({tc for _, tc in COLUMNS})
    )


def v3_bytes(trace: Trace | ColumnarTrace) -> bytes:
    """The whole trace as one *single-chunk* v3 image, in memory.

    This is the payload :mod:`repro.trace.share` copies into a shared
    segment: exactly the on-disk v3 format, but with every column in
    one contiguous frame so :func:`map_v3_columns` can hand out
    zero-copy views.  Peak memory is one extra copy of the columns —
    fine for sweep-scale traces; stream to a file for anything bigger.
    """
    import io

    buf = io.BytesIO()
    _write_v3(buf, trace, chunk_size=max(1, len(trace)))
    return buf.getvalue()


def map_v3_columns(buf) -> tuple[str, int, dict[str, tuple[int, int]]]:
    """Column offsets of a single-chunk v3 image, without copying it.

    ``buf`` is any buffer holding bytes produced by :func:`v3_bytes`
    (a shared-memory segment, an mmap of a v3 file, plain bytes).
    Returns ``(name, count, {column: (offset, nbytes)})`` — the
    attacher casts ``memoryview(buf)[off:off + nbytes]`` per column
    (and per ``"verdicts"``, present when the image carries them),
    which only works losslessly on little-endian hosts (the byte order
    v3 is defined in), so big-endian platforms are rejected here the
    same way a mismatched itemsize is.

    Multi-chunk files are rejected: a shared segment is written as one
    frame precisely so its columns are contiguous.
    """
    if sys.byteorder != "little":
        raise ValueError(
            "zero-copy v3 column mapping requires a little-endian host"
        )
    view = memoryview(buf)
    magic_len = len(_MAGIC_V3)
    if bytes(view[:magic_len]) != _MAGIC_V3:
        raise ValueError("not a v3 trace image")
    # header line: "<name> <itemsizes>\n", bounded by the format
    head = bytes(view[magic_len:magic_len + 4096])
    nl = head.find(b"\n")
    if nl < 0:
        raise ValueError("malformed v3 image: unterminated header")
    parts = head[:nl].decode().split()
    if len(parts) != 2:
        raise ValueError(f"malformed v3 header: {head[:nl]!r}")
    name, itemsizes = parts
    if itemsizes != _platform_itemsizes():
        raise ValueError(
            f"v3 image written with array itemsizes {itemsizes}, "
            f"this platform has {_platform_itemsizes()}"
        )
    pos = magic_len + nl + 1
    count = _U32.unpack_from(view, pos)[0]
    pos += _U32.size
    offsets: dict[str, tuple[int, int]] = {}
    if count != _CHUNK_END:
        for attr, _ in COLUMNS:
            nbytes = _U64.unpack_from(view, pos)[0]
            pos += _U64.size
            offsets[attr] = (pos, nbytes)
            pos += nbytes
        terminator = _U32.unpack_from(view, pos)[0]
        if terminator != _CHUNK_END:
            raise ValueError(
                "v3 image has more than one chunk; shared segments are "
                "written single-chunk"
            )
        pos += _U32.size
    footer = _U64.unpack_from(view, pos)[0]
    if footer != count:
        raise ValueError(
            f"v3 image footer declares {footer} instructions, "
            f"chunk holds {count}"
        )
    pos += _U64.size
    # Anything else after the footer (a shared segment may be padded)
    # means the image carries no verdicts.
    if bytes(view[pos:pos + len(_VERDICTS)]) == _VERDICTS:
        pos += len(_VERDICTS)
        start = pos + _U64.size
        if start + count > len(view) or _U64.unpack_from(view, pos)[0] != count:
            raise ValueError("v3 image has a torn verdict section")
        offsets["verdicts"] = (start, count)
    return name, count, offsets


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated v3 trace: wanted {n} bytes, got {len(data)}")
    return data


def iter_trace_chunks(
    path: str | Path, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[ColumnarTrace]:
    """Yield the chunks of a v3 trace file one at a time (bounded memory).

    For v1 files, re-chunks the line stream into ``chunk_size``-
    instruction columnar chunks, so callers get a uniform streaming
    interface over both formats.  (v3 files yield their on-disk chunk
    boundaries; ``chunk_size`` only shapes the v1 re-chunking.)
    """
    if sniff_trace_format(path) == 1:
        name = _v1_name(path)
        instructions = _iter_v1(path)
        while True:
            chunk = ColumnarTrace(name)     # drops the previous chunk first
            chunk.append_all(islice(instructions, chunk_size))
            if not len(chunk):
                return
            yield chunk
    yield from _iter_v3(path)


def _iter_v3(path: str | Path, trailer: list | None = None) -> Iterator[ColumnarTrace]:
    """Yield a v3 file's chunks; append its verdicts (or None) to ``trailer``."""
    expected_sizes = {tc: array(tc).itemsize for _, tc in COLUMNS}
    with open(path, "rb") as fh:
        _read_exact(fh, len(_MAGIC_V3))
        header = fh.readline().decode()
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"malformed v3 header in {path}: {header!r}")
        name, itemsizes = parts
        declared = ":".join(
            str(expected_sizes[tc]) for tc in sorted(expected_sizes)
        )
        if itemsizes != declared:
            raise ValueError(
                f"v3 trace {path} written with array itemsizes {itemsizes}, "
                f"this platform has {declared}"
            )
        total = 0
        while True:
            n = _U32.unpack(_read_exact(fh, 4))[0]
            if n == _CHUNK_END:
                break
            columns: dict[str, array] = {}
            for attr, typecode in COLUMNS:
                nbytes = _U64.unpack(_read_exact(fh, 8))[0]
                col = array(typecode)
                col.frombytes(_read_exact(fh, nbytes))
                if sys.byteorder != "little":
                    col.byteswap()
                columns[attr] = col
            chunk = ColumnarTrace.from_columns(name, columns)
            if len(chunk) != n:
                raise ValueError(
                    f"v3 chunk in {path} declares {n} instructions, "
                    f"columns hold {len(chunk)}"
                )
            total += n
            yield chunk
        footer = _U64.unpack(_read_exact(fh, 8))[0]
        if footer != total:
            raise ValueError(
                f"v3 trace {path} footer declares {footer} instructions, "
                f"chunks held {total}"
            )
        if trailer is not None:
            trailer.append(_read_verdicts(fh, total, path))


def _read_verdicts(fh, total: int, path) -> array | None:
    """The optional verdict section after a v3 footer, or None."""
    if fh.read(len(_VERDICTS)) != _VERDICTS:
        return None
    nbytes = _U64.unpack(_read_exact(fh, 8))[0]
    if nbytes != total:
        raise ValueError(
            f"v3 trace {path} verdict section holds {nbytes} of {total} rows"
        )
    verdicts = array("B", _read_exact(fh, nbytes))
    if verdicts.tobytes().translate(None, b"\x00\x01"):
        raise ValueError(f"v3 trace {path} verdict section is not 0/1")
    return verdicts


def sniff_trace_format(path: str | Path) -> int:
    """Return the on-disk format version (1 or 3) of a trace file.

    Raises :class:`StaleTraceFormat` for a v2 (prefix-index layout)
    file and ``ValueError`` for anything else that is not a trace.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC_V3))
    if head == _MAGIC_V3:
        return 3
    if head == _MAGIC_V2:
        raise StaleTraceFormat(
            f"{path} is a v2 trace, written in the prefix-index column "
            f"layout this version no longer reads; rebuild it"
        )
    if head.startswith(_MAGIC.encode()):
        return 1
    raise ValueError(f"not a repro trace file: {path}")


# -- public API ----------------------------------------------------------


def save_trace(
    trace: Trace | ColumnarTrace | Iterable[ColumnarTrace],
    path: str | Path,
    format: str = "v1",
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> None:
    """Write ``trace`` to ``path``.

    ``format`` selects ``"v1"`` (line text) or ``"v3"`` (binary
    columnar).  Chunk iterators require v3.
    """
    if format == "v1":
        if not isinstance(trace, (Trace, ColumnarTrace)):
            raise ValueError("v1 serialization needs a full trace, not a chunk stream")
        _save_trace_v1(trace, path)
    elif format == "v3":
        _save_trace_v3(trace, path, chunk_size)
    else:
        raise ValueError(f"unknown trace format: {format!r}")


def _v3_name(path: str | Path) -> str:
    """Read just the trace name from a v3 header (no chunk decoding)."""
    with open(path, "rb") as fh:
        _read_exact(fh, len(_MAGIC_V3))
        header = fh.readline().decode()
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"malformed v3 header in {path}: {header!r}")
    return parts[0]


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace` (either format)."""
    if sniff_trace_format(path) == 1:
        return Trace(_v1_name(path), _iter_v1(path))
    # name comes from the header, not the chunks, so a valid
    # zero-instruction file keeps its identity
    name = _v3_name(path)
    instructions: list[Instruction] = []
    for chunk in iter_trace_chunks(path):
        instructions.extend(chunk)
    return Trace(name, instructions)


def load_trace_columnar(path: str | Path) -> ColumnarTrace:
    """Read a trace file (either format) into a :class:`ColumnarTrace`.

    A v3 file's verdict section, when present, comes back as the
    trace's :attr:`~ColumnarTrace.verdicts`.
    """
    trailer: list = []
    chunks = iter_trace_chunks(path) if sniff_trace_format(path) == 1 else (
        _iter_v3(path, trailer)
    )
    out: ColumnarTrace | None = None
    for chunk in chunks:
        if out is None:
            out = chunk
        else:
            out.extend(chunk)
    if out is None:
        # zero-instruction (but valid) trace: recover the name via the
        # full loader
        return ColumnarTrace.from_trace(load_trace(path))
    if trailer:
        out.verdicts = trailer[0]
    return out

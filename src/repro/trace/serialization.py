"""Trace serialization: the v4 binary columnar format.

A ``repro-trace-v4`` file is a header followed by framed chunks, each
chunk the raw little-endian bytes of a
:class:`~repro.trace.columnar.ColumnarTrace`'s columns (one-byte counts
for the ragged fields), each column framed with its typecode: a value
column is as wide as its values need (see :mod:`repro.trace.columnar`),
so two chunks of one file may hold a column at different widths, and
the reader widens as it joins them.  Both the writer and the reader
work chunk-at-a-time, so a million-instruction trace round-trips within
a bounded RSS envelope, and the writer accepts a chunk *iterator* as
well as a whole trace.  A trace's branch verdicts, when it carries
them, follow the footer as an optional trailing section; a file without
one (chunk iterators) still loads, and its first simulation resolves
them.

Files in the layouts v4 replaced are refused with
:class:`StaleTraceFormat`: ``repro-trace-v3`` (the same frames with
every column at a fixed width) and ``repro-trace-v2`` (prefix-index
columns).  Trace cache keys carry the code salt, so the cache never
asks for one.  Anything else is refused with a ``ValueError``.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

from repro.trace.columnar import COLUMNS, WIDTHS, ColumnarTrace, column_typecode
from repro.trace.trace import Trace

_MAGIC = b"repro-trace-v4\n"
# The layouts v4 replaced, recognized only to be refused: what each
# held that this version no longer reads.
_STALE = {
    b"repro-trace-v3\n": "v3 trace, written in the fixed-width column layout",
    b"repro-trace-v2\n": "v2 trace, written in the prefix-index column layout",
}

# v4 framing: after the magic comes one header line
# ``<name> <itemsizes>\n`` (itemsizes as B:H:I:Q byte widths, validated
# on read), then chunks of ``<u32 count>`` + per-column ``<typecode
# byte> <u64 nbytes> + raw bytes`` in COLUMNS order, a ``count == 0``
# terminator, and a ``<u64 total>`` footer cross-checked against the
# chunk sum.  An optional verdict section may follow: ``_VERDICTS`` +
# ``<u64 total>`` + one byte (0 or 1) per row.
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_COLUMN_HEAD = struct.Struct("<cQ")
_CHUNK_END = 0
_VERDICTS = b"verdicts"

DEFAULT_CHUNK_SIZE = 8192


class StaleTraceFormat(ValueError):
    """A trace file in a layout this version no longer reads (v2, v3)."""


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
    as-is when it fits one chunk, the path ``v4_bytes`` (and with it
    every fabric publish) and the trace cache take.  Re-materializing an
    ``Instruction`` view per row would cost several times the
    serialization itself.  An object :class:`Trace` is packed
    ``chunk_size`` instructions at a time.
    """
    if isinstance(source, ColumnarTrace):
        if len(source) > chunk_size:
            yield from source.chunks(chunk_size)
        elif len(source):
            yield source
        return
    instructions = iter(source)
    while True:
        chunk = ColumnarTrace(source.name, islice(instructions, chunk_size))
        if not len(chunk):
            return
        yield chunk


def _write_v4(fh, source, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
    """Stream the v4 byte layout into any binary file object."""
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
        fh.write(_MAGIC)
        fh.write(f"{name} {_platform_itemsizes()}\n".encode())
        wrote_header = True
    for chunk in chunks:
        if not wrote_header:
            fh.write(_MAGIC)
            fh.write(f"{chunk.name} {_platform_itemsizes()}\n".encode())
            wrote_header = True
        n = len(chunk)
        if not n:
            continue
        total += n
        fh.write(_U32.pack(n))
        for attr, _ in COLUMNS:
            col = getattr(chunk, attr)
            with _column_bytes(col) as data:
                fh.write(_COLUMN_HEAD.pack(column_typecode(col).encode(), len(data)))
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
    return ":".join(str(array(tc).itemsize) for tc in WIDTHS)


def v4_bytes(trace: Trace | ColumnarTrace) -> bytes:
    """The whole trace as one *single-chunk* v4 image, in memory.

    This is the payload :mod:`repro.trace.share` copies into a shared
    segment: exactly the on-disk v4 format, but with every column in
    one contiguous frame so :func:`map_v4_columns` can hand out
    zero-copy views.  Peak memory is one extra copy of the columns —
    fine for sweep-scale traces; stream to a file for anything bigger.
    """
    import io

    buf = io.BytesIO()
    _write_v4(buf, trace, chunk_size=max(1, len(trace)))
    return buf.getvalue()


def map_v4_columns(buf) -> tuple[str, int, dict[str, tuple[int, int, str]]]:
    """Column offsets and typecodes of a single-chunk v4 image, without
    copying it.

    ``buf`` is any buffer holding bytes produced by :func:`v4_bytes`
    (a shared-memory segment, an mmap of a v4 file, plain bytes).
    Returns ``(name, count, {column: (offset, nbytes, typecode)})`` —
    the attacher casts ``memoryview(buf)[off:off + nbytes]`` to each
    column's typecode (and to ``"B"`` for ``"verdicts"``, present when
    the image carries them), which only works losslessly on
    little-endian hosts (the byte order v4 is defined in), so big-endian
    platforms are rejected here the same way a mismatched itemsize is.

    Multi-chunk files are rejected: a shared segment is written as one
    frame precisely so its columns are contiguous.
    """
    if sys.byteorder != "little":
        raise ValueError(
            "zero-copy v4 column mapping requires a little-endian host"
        )
    view = memoryview(buf)
    magic_len = len(_MAGIC)
    if bytes(view[:magic_len]) != _MAGIC:
        raise ValueError("not a v4 trace image")
    # header line: "<name> <itemsizes>\n", bounded by the format
    head = bytes(view[magic_len:magic_len + 4096])
    nl = head.find(b"\n")
    if nl < 0:
        raise ValueError("malformed v4 image: unterminated header")
    parts = head[:nl].decode().split()
    if len(parts) != 2:
        raise ValueError(f"malformed v4 header: {head[:nl]!r}")
    name, itemsizes = parts
    if itemsizes != _platform_itemsizes():
        raise ValueError(
            f"v4 image written with array itemsizes {itemsizes}, "
            f"this platform has {_platform_itemsizes()}"
        )
    pos = magic_len + nl + 1
    count = _U32.unpack_from(view, pos)[0]
    pos += _U32.size
    offsets: dict[str, tuple[int, int, str]] = {}
    if count != _CHUNK_END:
        for attr, typecodes in COLUMNS:
            code, nbytes = _COLUMN_HEAD.unpack_from(view, pos)
            pos += _COLUMN_HEAD.size
            offsets[attr] = (pos, nbytes, _typecode(attr, typecodes, code, "image"))
            pos += nbytes
        terminator = _U32.unpack_from(view, pos)[0]
        if terminator != _CHUNK_END:
            raise ValueError(
                "v4 image has more than one chunk; shared segments are "
                "written single-chunk"
            )
        pos += _U32.size
    footer = _U64.unpack_from(view, pos)[0]
    if footer != count:
        raise ValueError(
            f"v4 image footer declares {footer} instructions, "
            f"chunk holds {count}"
        )
    pos += _U64.size
    # Anything else after the footer (a shared segment may be padded)
    # means the image carries no verdicts.
    if bytes(view[pos:pos + len(_VERDICTS)]) == _VERDICTS:
        pos += len(_VERDICTS)
        start = pos + _U64.size
        if start + count > len(view) or _U64.unpack_from(view, pos)[0] != count:
            raise ValueError("v4 image has a torn verdict section")
        offsets["verdicts"] = (start, count, "B")
    return name, count, offsets


def _typecode(attr: str, typecodes: str, code: bytes, where) -> str:
    """A column frame's typecode byte, checked against the typecodes
    its column may hold."""
    typecode = code.decode("latin-1")
    if typecode not in typecodes:
        raise ValueError(
            f"v4 {where}: column {attr!r} framed with typecode {typecode!r}, "
            f"expected one of {typecodes!r}"
        )
    return typecode


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated v4 trace: wanted {n} bytes, got {len(data)}")
    return data


def _read_header(fh, path) -> tuple[str, str]:
    """A v4 file's ``(name, itemsizes)`` header, read past its magic.

    Refuses a v2 or v3 file with :class:`StaleTraceFormat` and anything
    else that does not start with the v4 magic (an empty file included)
    with a ``ValueError``.
    """
    magic = fh.read(len(_MAGIC))
    if magic != _MAGIC:
        if magic in _STALE:
            raise StaleTraceFormat(
                f"{path} is a {_STALE[magic]} this version no longer reads; "
                f"rebuild it"
            )
        raise ValueError(f"not a repro-trace-v4 file: {path}")
    header = fh.readline().decode()
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"malformed v4 header in {path}: {header!r}")
    return parts[0], parts[1]


def iter_trace_chunks(path: str | Path) -> Iterator[ColumnarTrace]:
    """Yield the chunks of a v4 trace file one at a time (bounded memory).

    The chunks are the file's own: a trace saved with ``chunk_size``
    rows a chunk reads back in chunks of that size, each column at the
    typecode it was written with.
    """
    return _iter_v4(path)


def _iter_v4(path: str | Path, trailer: list | None = None) -> Iterator[ColumnarTrace]:
    """Yield a v4 file's chunks; append its verdicts (or None) to ``trailer``."""
    with open(path, "rb") as fh:
        name, itemsizes = _read_header(fh, path)
        if itemsizes != _platform_itemsizes():
            raise ValueError(
                f"v4 trace {path} written with array itemsizes {itemsizes}, "
                f"this platform has {_platform_itemsizes()}"
            )
        total = 0
        while True:
            n = _U32.unpack(_read_exact(fh, 4))[0]
            if n == _CHUNK_END:
                break
            columns: dict[str, array] = {}
            for attr, typecodes in COLUMNS:
                code, nbytes = _COLUMN_HEAD.unpack(_read_exact(fh, _COLUMN_HEAD.size))
                col = array(_typecode(attr, typecodes, code, f"trace {path}"))
                col.frombytes(_read_exact(fh, nbytes))
                if sys.byteorder != "little":
                    col.byteswap()
                columns[attr] = col
            chunk = ColumnarTrace.from_columns(name, columns)
            if len(chunk) != n:
                raise ValueError(
                    f"v4 chunk in {path} declares {n} instructions, "
                    f"columns hold {len(chunk)}"
                )
            total += n
            yield chunk
        footer = _U64.unpack(_read_exact(fh, 8))[0]
        if footer != total:
            raise ValueError(
                f"v4 trace {path} footer declares {footer} instructions, "
                f"chunks held {total}"
            )
        if trailer is not None:
            trailer.append(_read_verdicts(fh, total, path))


def _read_verdicts(fh, total: int, path) -> array | None:
    """The optional verdict section after a v4 footer, or None."""
    if fh.read(len(_VERDICTS)) != _VERDICTS:
        return None
    nbytes = _U64.unpack(_read_exact(fh, 8))[0]
    if nbytes != total:
        raise ValueError(
            f"v4 trace {path} verdict section holds {nbytes} of {total} rows"
        )
    verdicts = array("B", _read_exact(fh, nbytes))
    if verdicts.tobytes().translate(None, b"\x00\x01"):
        raise ValueError(f"v4 trace {path} verdict section is not 0/1")
    return verdicts


def save_trace(
    trace: Trace | ColumnarTrace | Iterable[ColumnarTrace],
    path: str | Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> None:
    """Write ``trace`` to ``path`` in the v4 format, chunk by chunk.

    ``trace`` may be a full trace (cut into ``chunk_size``-row chunks
    here) or an iterator of :class:`ColumnarTrace` chunks, in which case
    nothing larger than one chunk is ever resident.
    """
    with open(path, "wb") as fh:
        _write_v4(fh, trace, chunk_size)


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace` as an object :class:`Trace`."""
    return load_trace_columnar(path).to_trace()


def load_trace_columnar(path: str | Path) -> ColumnarTrace:
    """Read a trace written by :func:`save_trace` into a :class:`ColumnarTrace`.

    The first chunk's columns become the trace's and later chunks are
    appended to them, a column widening where a later chunk holds it
    wider.  The file's verdict section, when present, comes back as the
    trace's :attr:`~ColumnarTrace.verdicts`.
    """
    trailer: list = []
    out: ColumnarTrace | None = None
    for chunk in _iter_v4(path, trailer):
        if out is None:
            out = chunk
        else:
            out.extend(chunk)
    if out is None:
        # a valid zero-instruction file: the name is in the header only
        with open(path, "rb") as fh:
            out = ColumnarTrace(_read_header(fh, path)[0])
    out.verdicts = trailer[0]
    return out

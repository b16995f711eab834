"""The shared trace fabric: generate a trace once, simulate everywhere.

A sweep runs many schemes over the same deterministic trace; before
this module every grid cell paid to rebuild (or re-deserialize) it.
:class:`TraceStore` publishes a :class:`~repro.trace.ColumnarTrace`
into a ``multiprocessing.shared_memory`` segment exactly once, and any
process on the machine :func:`attach`\\ es it *zero-copy*: the attached
trace's columns are typed memoryviews straight over the segment, and
the golden suite's "shared" leg pins its simulated outcomes
bit-identical to a locally built trace.

Segment layout (one header + per-column buffers, as a single buffer)::

    b"repro-shmtrace1\\n"   fabric magic
    <u64 owner pid>         who may unlink; orphan GC checks liveness
    <v4 single-chunk image> repro.trace.serialization.v4_bytes(),
                            branch verdicts included when the trace
                            carries them

Reusing the v4 byte layout means one parser
(:func:`~repro.trace.serialization.map_v4_columns`) serves both
transports: a POSIX shared-memory segment when the platform has one,
or an ``mmap`` over a regular file under the store root when it does
not (``use_shm=False``, or :func:`shm_available` says no).  Refs are
self-describing strings — ``"shm:<segment>"`` / ``"file:<path>"`` —
so a pool worker can attach from nothing but the ref.

Lifecycle and failure matrix:

* **publish** is owner-side and idempotent per key; the segment name
  embeds the owner pid, so two concurrent stores never collide.
* **attach** is refcounted in-process (:meth:`TraceStore.attach`
  tracks open handles; module-level :func:`attach` is what workers
  use) and *must not* let the attaching process's resource tracker
  unlink the segment on exit — CPython < 3.13 registers attach-only
  handles too (bpo-39959), so they are explicitly unregistered here.
* **close()** releases every handle this store opened and unlinks
  every segment it owns.  Closing a handle twice is a no-op.
* **attacher crash** (SIGKILL'd worker) leaks nothing: the owner still
  unlinks at ``close()``.
* **owner crash** leaves the segment behind; :func:`gc_orphans` — run
  by every ``TraceStore()`` construction — scans for fabric segments
  whose embedded owner pid is dead and unlinks them.
* **attach after unlink** (or of a torn segment) raises; callers fall
  back to building the trace locally, trading the speedup for the
  result, never the result itself.

Everything here is stdlib-only, like the rest of the package.
"""

from __future__ import annotations

import errno
import hashlib
import mmap
import os
import struct
import tempfile
from pathlib import Path

from repro.trace.columnar import COLUMNS, ColumnarTrace
from repro.trace.serialization import map_v4_columns, v4_bytes

MAGIC = b"repro-shmtrace1\n"
# /dev/shm-visible namespace for fabric segments; orphan GC globs it.
SEGMENT_PREFIX = "repro-shmtr-"
_OWNER = struct.Struct("<Q")
_HEADER = len(MAGIC) + _OWNER.size

_shm_probe: bool | None = None


def shm_available() -> bool:
    """True when POSIX shared memory actually works here (probed once)."""
    global _shm_probe
    if _shm_probe is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=16)
            seg.close()
            seg.unlink()
            _shm_probe = True
        except (ImportError, OSError):
            _shm_probe = False
    return _shm_probe


def _attach_segment(name: str):
    """Open an existing segment *without* resource-tracker registration.

    On CPython < 3.13 ``SharedMemory(name=..., create=False)`` registers
    the segment with a resource tracker, which *unlinks it at process
    exit* — destroying the segment for every other attacher (bpo-39959).
    Unregistering afterwards is not enough: pool workers inherit the
    parent's tracker daemon, whose registration cache is one set per
    name, so an attacher's unregister would silently delete the owning
    store's entry and break the owner's own unlink bookkeeping.  The
    only uniformly safe move is to keep the tracker out of the attach
    entirely — 3.13's ``track=False`` where available, else a scoped
    suppression of ``register`` for the duration of the open.
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass      # no track= on this CPython: suppress register instead
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shm(rname, rtype):
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True      # exists, owned by someone else
    except OSError:
        return True      # be conservative: never GC on an odd errno
    return True


class TraceHandle:
    """One attachment: a read-only trace plus the views/mmap behind it.

    ``trace`` is a :class:`ColumnarTrace` whose columns are typed
    memoryviews over the segment.  :meth:`close` releases every view
    before closing the transport (a live exported view would make the
    close a ``BufferError``), after which the trace must not be read.
    """

    def __init__(self, trace: ColumnarTrace, ref: str, views, closer) -> None:
        self.trace = trace
        self.ref = ref
        self._views = list(views)
        self._closer = closer
        self._on_close = None       # set by TraceStore.attach (refcount)

    def close(self) -> None:
        """Release the attachment (idempotent)."""
        closer, self._closer = self._closer, None
        if closer is None:
            return
        for view in self._views:
            view.release()
        self._views = []
        closer()
        if self._on_close is not None:
            self._on_close(self)
            self._on_close = None

    @property
    def closed(self) -> bool:
        return self._closer is None

    def __enter__(self) -> "TraceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _trace_from_buffer(buf, ref: str):
    """(trace, views) mapped zero-copy out of one fabric payload.

    On a torn/foreign payload every view opened so far is released
    *before* raising — a view left exported (even one only reachable
    through the raised traceback) would turn the caller's transport
    ``close()`` into a ``BufferError`` and leak the mapping.
    """
    base = memoryview(buf)
    views = [base]
    try:
        if bytes(base[:len(MAGIC)]) != MAGIC:
            raise ValueError(f"{ref}: not a trace fabric segment")
        image = base[_HEADER:]
        views.append(image)
        name, count, offsets = map_v4_columns(image)
        if count == 0:
            # a valid empty trace has no column frames to view; a plain
            # (owned, zero-copy-irrelevant) empty trace is bit-identical
            return ColumnarTrace(name), views
        columns = {}
        for attr, _ in COLUMNS:
            # each column cast to the typecode the image records for it
            off, nbytes, typecode = offsets[attr]
            col = image[off:off + nbytes].cast(typecode)
            views.append(col)
            columns[attr] = col
        trace = ColumnarTrace.from_columns(name, columns)
        if "verdicts" in offsets:
            off, nbytes, _ = offsets["verdicts"]
            trace.verdicts = image[off:off + nbytes]
            views.append(trace.verdicts)
        return trace, views
    except Exception:
        for view in reversed(views):
            view.release()
        raise


def attach(ref: str) -> TraceHandle:
    """Attach a published trace by ref; zero-copy, read-only.

    ``ref`` is the string :meth:`TraceStore.publish` returned —
    ``"shm:<segment>"`` or ``"file:<path>"``.  Raises ``ValueError``
    for a malformed ref or torn segment and ``FileNotFoundError`` when
    the segment is already unlinked; callers are expected to fall back
    to building the trace locally.
    """
    kind, _, ident = ref.partition(":")
    if kind == "shm" and ident:
        try:
            shm = _attach_segment(ident)
        except FileNotFoundError:
            raise
        except OSError as exc:
            if exc.errno == errno.ENOENT:
                raise FileNotFoundError(ref) from exc
            raise
        try:
            trace, views = _trace_from_buffer(shm.buf, ref)
        except Exception:
            shm.close()
            raise
        return TraceHandle(trace, ref, views, shm.close)
    if kind == "file" and ident:
        fh = open(ident, "rb")
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            fh.close()
            raise
        try:
            trace, views = _trace_from_buffer(mapped, ref)
        except Exception:
            mapped.close()
            fh.close()
            raise

        def _close(mapped=mapped, fh=fh) -> None:
            mapped.close()
            fh.close()

        return TraceHandle(trace, ref, views, _close)
    raise ValueError(f"malformed trace fabric ref: {ref!r}")


def gc_orphans(root: str | Path | None = None) -> list[str]:
    """Unlink fabric segments whose owning process is dead.

    Scans ``/dev/shm`` (where Linux exposes POSIX shared memory as
    files; elsewhere the scan is a no-op) and, when given, the file-
    fallback ``root`` directory.  A segment whose embedded owner pid no
    longer exists was leaked by a crashed owner — nobody will ever
    unlink it, so this does.  Returns the names it removed.
    """
    removed: list[str] = []
    candidates: list[Path] = []
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        candidates.extend(shm_dir.glob(SEGMENT_PREFIX + "*"))
    if root is not None:
        root = Path(root)
        if root.is_dir():
            candidates.extend(root.glob(SEGMENT_PREFIX + "*"))
    for path in candidates:
        try:
            with open(path, "rb") as fh:
                head = fh.read(_HEADER)
            if len(head) < _HEADER or head[:len(MAGIC)] != MAGIC:
                continue      # not ours (prefix collision): leave it
            owner = _OWNER.unpack_from(head, len(MAGIC))[0]
            if not _pid_alive(owner):
                path.unlink()
                removed.append(path.name)
        except OSError:
            continue          # vanished or unreadable: nothing to do
    return removed


def _segment_name(key: str) -> str:
    """A collision-free segment name: fabric prefix + owner pid + key."""
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return f"{SEGMENT_PREFIX}{os.getpid():x}-{digest}"


class TraceStore:
    """Owner-side fabric endpoint: publish, attach, clean up.

    One store per run (the runtime makes one for a fabric-enabled
    grid).  ``root`` hosts the file-fallback segments — default a
    private temporary directory the store deletes on close — and is
    also swept for dead-owner orphans at construction, together with
    ``/dev/shm``.  Force ``use_shm=False`` to exercise the mmap
    fallback on a machine that does have shared memory.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        use_shm: bool | None = None,
    ) -> None:
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if root is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-fabric-")
            root = self._tmpdir.name
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.use_shm = shm_available() if use_shm is None else bool(use_shm)
        self.orphans_removed = gc_orphans(self.root)
        self._refs: dict[str, str] = {}          # key -> ref
        self._segments: dict[str, object] = {}   # ref -> SharedMemory|Path
        self._handles: list[TraceHandle] = []
        self._closed = False

    # -- publish ---------------------------------------------------------

    def publish(
        self,
        key: str,
        trace: ColumnarTrace,
        image: bytes | None = None,
    ) -> str:
        """Publish one trace under ``key``; returns its attach ref.

        Idempotent per key (the second publish returns the first ref
        without looking at ``trace``).  The segment is sized exactly:
        header + owner pid + single-chunk v4 image.  Pass ``image``
        (``v4_bytes(trace)``, precomputed) to reuse a serialization the
        caller already paid for — e.g. the runtime serializes each
        trace once and feeds the same image to the disk cache and here.
        """
        if self._closed:
            raise RuntimeError("TraceStore is closed")
        ref = self._refs.get(key)
        if ref is not None:
            return ref
        payload = MAGIC + _OWNER.pack(os.getpid()) + (
            v4_bytes(trace) if image is None else image
        )
        name = _segment_name(key)
        if self.use_shm:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(
                name=name, create=True, size=len(payload)
            )
            seg.buf[:len(payload)] = payload
            ref = f"shm:{seg.name}"
            self._segments[ref] = seg
        else:
            path = self.root / name
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(payload)
            tmp.replace(path)        # atomic: attachers never see a torn file
            ref = f"file:{path}"
            self._segments[ref] = path
        self._refs[key] = ref
        return ref

    def ref_for(self, key: str) -> str | None:
        return self._refs.get(key)

    # -- attach ----------------------------------------------------------

    def attach(self, ref: str) -> TraceHandle:
        """Attach with store-side refcounting (closed with the store)."""
        if self._closed:
            raise RuntimeError("TraceStore is closed")
        handle = attach(ref)
        handle._on_close = self._handles.remove
        self._handles.append(handle)
        return handle

    def attachments(self, ref: str | None = None) -> int:
        """Open handles this store tracks (for ``ref``, or in total)."""
        if ref is None:
            return len(self._handles)
        return sum(1 for h in self._handles if h.ref == ref)

    # -- lifecycle -------------------------------------------------------

    def unlink(self, key: str) -> None:
        """Retire one published segment early (attached handles keep
        the mapping alive until they close; new attaches fail)."""
        ref = self._refs.pop(key, None)
        if ref is None:
            return
        self._unlink_ref(ref)

    def _unlink_ref(self, ref: str) -> None:
        seg = self._segments.pop(ref, None)
        if seg is None:
            return
        if isinstance(seg, Path):
            try:
                seg.unlink()
            except OSError:
                pass
        else:
            try:
                seg.close()
                seg.unlink()
            except (OSError, FileNotFoundError):
                pass

    def close(self) -> None:
        """Release every handle, unlink every owned segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for handle in list(self._handles):
            handle.close()
        self._handles = []
        for ref in list(self._segments):
            self._unlink_ref(ref)
        self._refs = {}
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __enter__(self) -> "TraceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"TraceStore({len(self._refs)} published, "
            f"{len(self._handles)} attached, "
            f"{'shm' if self.use_shm else 'file'})"
        )

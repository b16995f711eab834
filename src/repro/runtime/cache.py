"""Content-addressed on-disk cache for simulation results and traces.

Layout under the cache root (``~/.cache/repro`` by default, overridden
by ``$REPRO_CACHE_DIR`` or ``--cache-dir``)::

    results/<k0k1>/<key>.json   # schema-versioned SimResult payloads
    traces/<key>.trace          # repro.trace.serialization v4 format
    corrupt/                    # quarantined unreadable/bad-checksum entries

Result entries are JSON (never pickles): the payload embeds the job's
identity fields next to :meth:`SimResult.to_dict`, so an entry is
self-describing and auditable with standard tools.  All writes are
atomic (temp file + ``os.replace``) so concurrent workers and runs can
share one cache directory.

Integrity: every result payload carries a sha256 checksum over its
canonical result JSON.  An entry that cannot be parsed or whose
checksum does not match is **quarantined** — moved under ``corrupt/``
and reported through the ``on_corrupt`` callback (the runtime turns
that into a ``cache_corrupt`` journal event) — rather than silently
overwritten, so disk-level corruption stays observable and diagnosable.
A payload whose ``cache_schema`` is simply from an older release is a
plain miss (stale, not corrupt).  :meth:`ResultCache.verify` audits the
whole store; :meth:`ResultCache.gc` prunes it by age and size.

Eviction is least-recently-*used*, not least-recently-written: every
:meth:`ResultCache.get` hit refreshes the entry's atime/mtime with
``os.utime`` (filesystems mounted ``noatime``/``relatime`` would
otherwise never record reads), so a long-lived shared store — e.g. one
behind a :mod:`repro.serve` gateway — keeps its hot entries and
:meth:`ResultCache.gc` reclaims the ones nobody has asked for.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from collections.abc import Callable
from pathlib import Path

from repro.pipeline.stats import RESULT_SCHEMA_VERSION, SimResult
from repro.trace.columnar import ColumnarTrace
from repro.trace.serialization import (
    StaleTraceFormat,
    load_trace,
    load_trace_columnar,
    save_trace,
)
from repro.trace.trace import Trace

CACHE_DIR_ENV = "REPRO_CACHE_DIR"
CACHE_SCHEMA_VERSION = 2      # v2: payloads carry a sha256 checksum

# (key, reason, quarantine-destination) -> None
CorruptFn = Callable[[str, str, Path], None]


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


def _atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def result_checksum(result_payload: dict) -> str:
    """sha256 over the canonical JSON of a result payload."""
    blob = json.dumps(result_payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Content-addressed store for :class:`SimResult` and trace files.

    Args:
        root: Cache root directory (None: :func:`default_cache_dir`).
        on_corrupt: Called once per quarantined entry with
            ``(key, reason, destination)``; None ignores them silently.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        on_corrupt: CorruptFn | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.on_corrupt = on_corrupt

    # -- results ---------------------------------------------------------

    def result_path(self, key: str) -> Path:
        return self.root / "results" / key[:2] / f"{key}.json"

    def quarantine_dir(self) -> Path:
        return self.root / "corrupt"

    def _quarantine(self, key: str, path: Path, reason: str) -> Path | None:
        """Move a bad entry under ``corrupt/``; returns the destination."""
        dest = self.quarantine_dir() / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            return None
        if self.on_corrupt is not None:
            self.on_corrupt(key, reason, dest)
        return dest

    def get(self, key: str) -> SimResult | None:
        """The cached result for ``key``, or None on miss.

        Unparseable or checksum-failed entries are quarantined under
        ``corrupt/`` (never silently overwritten in place) and read as
        a miss; entries from an older cache schema are a plain miss.
        """
        path = self.result_path(key)
        if not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            self._quarantine(key, path, "unparseable JSON")
            return None
        if not isinstance(payload, dict):
            self._quarantine(key, path, "non-object payload")
            return None
        if payload.get("cache_schema") != CACHE_SCHEMA_VERSION:
            return None           # stale schema: a miss, not corruption
        result_payload = payload.get("result")
        if not isinstance(result_payload, dict) or payload.get(
            "sha256"
        ) != result_checksum(result_payload):
            self._quarantine(key, path, "checksum mismatch")
            return None
        try:
            result = SimResult.from_dict(result_payload)
        except (KeyError, TypeError, ValueError):
            self._quarantine(key, path, "undecodable result")
            return None
        self._touch(path)
        return result

    @staticmethod
    def _touch(path: Path) -> None:
        """Record a use: refresh atime+mtime so gc's LRU order is real."""
        try:
            os.utime(path)
        except OSError:
            pass

    def put(self, key: str, result: SimResult, job_fields: dict | None = None) -> None:
        """Store ``result`` under ``key`` atomically, with checksum."""
        result_payload = result.to_dict()
        payload = {
            "cache_schema": CACHE_SCHEMA_VERSION,
            "result_schema": RESULT_SCHEMA_VERSION,
            "key": key,
            "job": job_fields or {},
            "sha256": result_checksum(result_payload),
            "result": result_payload,
        }
        _atomic_write_text(self.result_path(key), json.dumps(payload))

    def contains(self, key: str) -> bool:
        """Cheap existence + schema check — no result deserialisation.

        Answers "would :meth:`get` even try this entry?" without paying
        for :meth:`SimResult.from_dict` or checksum verification (those
        stay the job of :meth:`get` and :meth:`verify`).
        """
        path = self.result_path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        return (
            isinstance(payload, dict)
            and payload.get("cache_schema") == CACHE_SCHEMA_VERSION
            and isinstance(payload.get("result"), dict)
        )

    # -- maintenance -----------------------------------------------------

    def _result_files(self) -> list[Path]:
        results = self.root / "results"
        return sorted(results.rglob("*.json")) if results.is_dir() else []

    def _trace_files(self) -> list[Path]:
        traces = self.root / "traces"
        return sorted(traces.glob("*.trace")) if traces.is_dir() else []

    def verify(self) -> dict:
        """Audit every entry; quarantine bad ones; return counters.

        Returns ``{"results", "ok", "stale", "corrupt", "traces",
        "trace_stale", "trace_corrupt"}`` — ``corrupt`` entries (and
        unreadable traces) end up under ``corrupt/`` with
        ``on_corrupt`` fired.  Traces are read as
        :meth:`get_trace_columnar` reads them, verdict section included.
        A trace in a layout this version no longer reads (a v2 or v3 file,
        cached under an older code salt's key) is ``trace_stale``: like
        a schema-stale result it stays in place for :meth:`gc`.
        """
        report = {"results": 0, "ok": 0, "stale": 0, "corrupt": 0,
                  "traces": 0, "trace_stale": 0, "trace_corrupt": 0}
        for path in self._result_files():
            report["results"] += 1
            key = path.stem
            if self.get(key) is not None:
                report["ok"] += 1
            elif path.is_file():      # still there: schema-stale miss
                report["stale"] += 1
            else:                     # gone: get() quarantined it
                report["corrupt"] += 1
        for path in self._trace_files():
            report["traces"] += 1
            try:
                load_trace_columnar(path)
            except StaleTraceFormat:
                report["trace_stale"] += 1
            except (OSError, ValueError):
                report["trace_corrupt"] += 1
                self._quarantine(path.stem, path, "unreadable trace")
        return report

    def _quarantined_files(self) -> list[Path]:
        quarantine = self.quarantine_dir()
        return sorted(quarantine.glob("*")) if quarantine.is_dir() else []

    def stats(self) -> dict:
        """Entry counts and byte totals per store section.

        Returns ``{"results", "traces", "quarantined", "bytes"}`` —
        cheap enough to answer a serve ``status`` request on every poll.
        """
        report = {"results": 0, "traces": 0, "quarantined": 0, "bytes": 0}
        for section, files in (
            ("results", self._result_files()),
            ("traces", self._trace_files()),
            ("quarantined", self._quarantined_files()),
        ):
            for path in files:
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                report[section] += 1
                report["bytes"] += size
        return report

    def gc(
        self,
        max_age_days: float | None = None,
        max_size_mb: float | None = None,
    ) -> dict:
        """Prune the store by age and/or total size, least recently used
        first.

        Sweeps results, traces and quarantined files.  Entries unused
        for more than ``max_age_days`` are removed; then, if the
        remainder still exceeds ``max_size_mb``, the least recently
        used entries go until it fits.  "Used" means atime/mtime, which
        :meth:`get` refreshes on every hit — so a size-bounded shared
        store evicts cold cells, not merely old ones.

        Returns ``{"removed", "kept", "bytes_freed", "bytes_kept"}``
        plus per-section removal counts ``{"results_removed",
        "traces_removed", "quarantined_removed"}``.
        """
        entries = []          # (last_used, size, path, section)
        for section, files in (
            ("results", self._result_files()),
            ("traces", self._trace_files()),
            ("quarantined", self._quarantined_files()),
        ):
            for path in files:
                try:
                    stat = path.stat()
                except OSError:
                    continue
                last_used = max(stat.st_mtime, stat.st_atime)
                entries.append((last_used, stat.st_size, path, section))
        entries.sort(key=lambda e: e[:2])     # least recently used first
        now = time.time()
        doomed: list[tuple[float, int, Path, str]] = []
        if max_age_days is not None:
            cutoff = now - max_age_days * 86400.0
            doomed = [e for e in entries if e[0] < cutoff]
            entries = [e for e in entries if e[0] >= cutoff]
        if max_size_mb is not None:
            budget = max_size_mb * 1024 * 1024
            total = sum(size for _, size, _, _ in entries)
            while entries and total > budget:
                entry = entries.pop(0)          # coldest survivor
                doomed.append(entry)
                total -= entry[1]
        freed = 0
        removed_by_section = {"results": 0, "traces": 0, "quarantined": 0}
        for _, size, path, section in doomed:
            try:
                path.unlink()
                freed += size
                removed_by_section[section] += 1
            except OSError:
                pass
        return {
            "removed": sum(removed_by_section.values()),
            "kept": len(entries),
            "bytes_freed": freed,
            "bytes_kept": sum(size for _, size, _, _ in entries),
            "results_removed": removed_by_section["results"],
            "traces_removed": removed_by_section["traces"],
            "quarantined_removed": removed_by_section["quarantined"],
        }

    # -- traces ----------------------------------------------------------

    def trace_path(self, key: str) -> Path:
        return self.root / "traces" / f"{key}.trace"

    def get_trace(self, key: str) -> Trace | None:
        """The cached trace for ``key`` as an object :class:`Trace`, or
        None on miss/corruption."""
        path = self.trace_path(key)
        if not path.is_file():
            return None
        try:
            return load_trace(path)
        except (OSError, ValueError):
            return None

    def get_trace_columnar(self, key: str) -> ColumnarTrace | None:
        """The cached trace for ``key`` as a :class:`ColumnarTrace`, its
        verdicts included; None on miss/corruption."""
        path = self.trace_path(key)
        if not path.is_file():
            return None
        try:
            return load_trace_columnar(path)
        except (OSError, ValueError):
            return None

    def put_trace(self, key: str, trace: Trace | ColumnarTrace) -> None:
        """Store ``trace`` under ``key`` atomically.

        The entry is the v4 format as one chunk; a :class:`ColumnarTrace`
        is written straight from its columns (the layout
        :func:`~repro.trace.serialization.v4_bytes` produces), so
        :meth:`get_trace_columnar` adopts it without joining chunks.
        """
        path = self.trace_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        os.close(fd)
        try:
            save_trace(trace, tmp, chunk_size=max(1, len(trace)))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put_trace_image(self, key: str, image: bytes) -> None:
        """Store an already-serialized v4 image under ``key`` atomically.

        ``image`` is exactly what ``v4_bytes`` produced — a valid v4
        file — so a caller that just serialized a trace for the shared
        fabric can land the identical bytes in the disk cache without
        paying a second serialization.
        """
        path = self.trace_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(image)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

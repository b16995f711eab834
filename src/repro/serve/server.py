"""The asyncio gateway: TCP front door for the simulation farm.

:class:`SweepServer` binds a TCP socket, advertises itself in the cache
root's ``serve.addr``, and serves the newline-delimited JSON protocol
of :mod:`repro.serve.protocol`.  Each connection is single-shot — one
request line in, one response stream out — and every submitted grid
flows through the shared :class:`~repro.serve.scheduler.Scheduler`, so
concurrent tenants dedup against the same cache, the same in-flight
set, and the same bounded worker leases.

Graceful shutdown (the ``shutdown`` op, SIGINT or SIGTERM) stops
accepting work, drains or interrupts in-flight cells through the
scheduler's PR 2-style interruption path, notifies every connected
watcher with a terminal ``server_shutdown`` line, flushes the journal,
withdraws the address advertisement, and exits 0.

Embedding: :meth:`SweepServer.run` is the blocking CLI entry point;
:meth:`SweepServer.start_in_thread` runs the same server on a
background event loop for tests and in-process integration, returning
a handle with the bound address and a blocking ``stop()``.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
from collections.abc import Callable
from pathlib import Path

from repro.observe import EventStream, Subscription
from repro.runtime import ResultCache, RunJournal, default_cache_dir
from repro.serve.protocol import (
    MAX_REQUEST_BYTES,
    PROTOCOL_VERSION,
    GridRequest,
    ProtocolError,
    clear_addr_file,
    decode_message,
    encode_message,
    error_message,
    write_addr_file,
)
from repro.serve.scheduler import (
    Scheduler,
    ServerClosing,
    ServerOverloaded,
    TenantQueueFull,
    UnknownTicket,
)
from repro.serve.tickets import TICKETS_DIRNAME, TicketRecordError, TicketStore

DEFAULT_GRACE = 10.0


class ServerHandle:
    """A background server's address plus a blocking ``stop()``.

    Returned by :meth:`SweepServer.start_in_thread`; ``stop()`` runs
    the same graceful shutdown the signal handlers use and joins the
    server thread.
    """

    def __init__(self, server: "SweepServer", thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.server = server
        self.host = server.host
        self.port = server.port
        self._thread = thread
        self._loop = loop
        self._shutdown: asyncio.Task | None = None  # the loop holds it weakly

    def stop(self, reason: str = "stopped", timeout: float = 30.0) -> None:
        """Gracefully shut the background server down and join it.

        The shutdown coroutine is created on the loop thread, and only
        while no shutdown has begun, so a loop that a client
        ``shutdown`` op is already stopping leaves no coroutine behind
        un-awaited.  The server thread ends once the drain is complete.
        """
        def begin() -> None:
            if not self.server._shutting_down:
                self._shutdown = self._loop.create_task(
                    self.server.shutdown(reason))

        with contextlib.suppress(RuntimeError):     # loop already closed
            self._loop.call_soon_threadsafe(begin)
        self._thread.join(timeout=timeout)


class SweepServer:
    """Multi-tenant sweep gateway over the runtime's executors.

    Args:
        host/port: Bind address; port 0 picks a free port (the bound
            one is advertised in the addr file and ``self.port``).
        workers: Worker leases — concurrent simulations.
        cache_dir: Shared result-cache root (and addr-file home).
        use_cache: Disable to force every cell to execute.
        journal_path: Farm journal; default ``<cache-dir>/serve.jsonl``.
        timeout/retries/backoff/timeout_factor: Per-job failure policy,
            passed to the worker leases.
        fault_spec: Deterministic fault plan injected into workers
            (chaos-testing the farm; see :mod:`repro.faults`).
        max_cache_mb: Size bound for the shared store — LRU-evicted
            after each fresh result beyond it.
        max_pending_per_tenant: Bounded per-tenant queue depth.
        grace: Seconds running cells get to finish on shutdown before
            their leases are cancelled.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        journal_path: str | Path | None = None,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.0,
        timeout_factor: float | None = None,
        fault_spec: str | None = None,
        max_cache_mb: float | None = None,
        max_pending_per_tenant: int = 512,
        max_pending_total: int | None = None,
        max_pending_cost: int | None = None,
        lease_timeout: float | None = None,
        heartbeat: float | None = None,
        grace: float = DEFAULT_GRACE,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = workers
        self.cache_dir = (
            Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        self.use_cache = use_cache
        self.journal_path = (
            Path(journal_path) if journal_path is not None
            else self.cache_dir / "serve.jsonl"
        )
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.timeout_factor = timeout_factor
        self.fault_spec = fault_spec
        self.max_cache_mb = max_cache_mb
        self.max_pending_per_tenant = max_pending_per_tenant
        self.max_pending_total = max_pending_total
        self.max_pending_cost = max_pending_cost
        self.lease_timeout = lease_timeout
        self.heartbeat = heartbeat
        self.grace = grace
        self.started = 0.0
        self.journal: RunJournal | None = None
        self.scheduler: Scheduler | None = None
        self.stream: EventStream | None = None
        self._server: asyncio.AbstractServer | None = None
        self._closed: asyncio.Event | None = None
        self._shutting_down = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind, start the scheduler, advertise; returns (host, port)."""
        self.started = time.time()
        self._closed = asyncio.Event()
        self.stream = EventStream()
        self.journal = RunJournal(self.journal_path)
        cache = (
            ResultCache(self.cache_dir, on_corrupt=self._on_cache_corrupt)
            if self.use_cache else None
        )
        self.scheduler = Scheduler(
            workers=self.workers,
            cache=cache,
            journal=self.journal,
            stream=self.stream,
            timeout=self.timeout,
            retries=self.retries,
            backoff=self.backoff,
            timeout_factor=self.timeout_factor,
            fault_spec=self.fault_spec,
            max_pending_per_tenant=self.max_pending_per_tenant,
            max_pending_total=self.max_pending_total,
            max_pending_cost=self.max_pending_cost,
            max_cache_mb=self.max_cache_mb,
            tickets=TicketStore(self.cache_dir / TICKETS_DIRNAME),
            lease_timeout=self.lease_timeout,
            heartbeat=self.heartbeat,
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_REQUEST_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.scheduler.start()
        # Crash recovery happens *before* the advertisement goes up:
        # unfinished ticket records from a killed predecessor re-enter
        # the queues, so a grid survives its gateway.
        await self.scheduler.recover()
        write_addr_file(self.cache_dir, self.host, self.port)
        self.journal.event(
            "server_started", host=self.host, port=self.port,
            workers=self.workers, cached=cache is not None,
            fault_spec=self.fault_spec,
        )
        return self.host, self.port

    async def shutdown(self, reason: str = "requested") -> None:
        """Graceful drain: the one path signals, ops and tests share.

        The listener stays open during the drain — late submissions get
        a clean "shutting down" error line (the scheduler is already
        closing) and watchers can still attach for the terminal event —
        and closes only once every cell has settled.
        """
        if self._shutting_down:
            return
        self._shutting_down = True
        assert self.journal is not None and self.scheduler is not None
        assert self.stream is not None and self._closed is not None
        # stop advertising first — pid-guarded, so if a replacement
        # server already advertised itself we leave its record alone
        clear_addr_file(self.cache_dir, pid=os.getpid())
        self.journal.event("server_shutdown_started", reason=reason,
                           **self.scheduler.status())
        counts = await self.scheduler.shutdown(self.grace)
        self.journal.event("server_shutdown", reason=reason, **counts)
        # terminal line for every still-connected watcher, then hang up
        self.stream.close({
            "type": "server_shutdown", "reason": reason, **counts,
        })
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.journal.close()
        self._closed.set()

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`shutdown` completes."""
        assert self._closed is not None, "start() first"
        await self._closed.wait()

    def run(
        self, ready: Callable[[str, int], None] | None = None
    ) -> int:
        """Blocking entry point: serve until a signal or shutdown op.

        ``ready`` (if given) is called with the bound (host, port) once
        the server is accepting connections.
        """

        async def _main() -> None:
            await self.start()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(
                        signum,
                        lambda s=signum: asyncio.ensure_future(
                            self.shutdown(f"signal {s}")
                        ),
                    )
            if ready is not None:
                ready(self.host, self.port)
            await self.serve_until_shutdown()

        asyncio.run(_main())
        return 0

    def start_in_thread(self, timeout: float = 30.0) -> ServerHandle:
        """Run the server on a background event loop; returns a handle."""
        ready = threading.Event()
        loop_box: dict[str, asyncio.AbstractEventLoop] = {}

        def _runner() -> None:
            async def _main() -> None:
                loop_box["loop"] = asyncio.get_running_loop()
                await self.start()
                ready.set()
                await self.serve_until_shutdown()

            asyncio.run(_main())

        thread = threading.Thread(target=_runner, daemon=True,
                                  name="repro-serve")
        thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("serve server failed to start in time")
        return ServerHandle(self, thread, loop_box["loop"])

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One request line in, one response stream out, then hang up."""
        try:
            try:
                line = await reader.readline()
            except (ValueError, ConnectionError):
                return
            if not line:
                return
            try:
                message = decode_message(line)
                await self._dispatch(message, writer)
            except ProtocolError as exc:
                await self._send(writer, error_message(str(exc)))
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, message: dict, writer) -> None:
        assert self.scheduler is not None and self.stream is not None
        op = message.get("op")
        if op == "ping":
            assert self.journal is not None
            await self._send(writer, {
                "type": "pong", "version": PROTOCOL_VERSION,
                "server": self.journal.run_id,
            })
        elif op == "submit":
            await self._op_submit(message, writer)
        elif op == "resume":
            await self._op_resume(message, writer)
        elif op == "watch":
            await self._op_watch(writer)
        elif op == "status":
            await self._send(writer, self._status_message())
        elif op == "cache":
            await self._op_cache(message, writer)
        elif op == "shutdown":
            grace = message.get("grace")
            if isinstance(grace, (int, float)) and grace >= 0:
                self.grace = float(grace)
            await self._send(writer, {"type": "shutting_down"})
            asyncio.ensure_future(self.shutdown("client request"))
        else:
            raise ProtocolError(f"unknown op {op!r}")

    async def _op_submit(self, message: dict, writer) -> None:
        request = GridRequest.from_message(message)
        sub = Subscription()
        try:
            ticket = await self.scheduler.submit(request, sub)
        except ServerOverloaded as exc:
            await self._send(writer, error_message(
                str(exc), code="overloaded", retry_after=exc.retry_after,
            ))
            return
        except TenantQueueFull as exc:
            await self._send(writer, error_message(
                str(exc), code="tenant_queue_full",
            ))
            return
        except ServerClosing as exc:
            await self._send(writer, error_message(str(exc)))
            return
        await self._send(writer, {
            "type": "submitted", "ticket": ticket.id,
            "tenant": ticket.tenant, "cells": len(ticket.jobs),
            "executing": len(ticket.pending) - len(ticket.shared_keys),
            "cached": ticket.counters["cached"],
            "shared": ticket.counters["shared"],
        })
        await self._pump(sub, writer)

    async def _op_resume(self, message: dict, writer) -> None:
        """Re-attach by ticket id; replay settled cells, stream the rest."""
        ticket_id = message.get("ticket")
        if not isinstance(ticket_id, str) or not ticket_id:
            raise ProtocolError("resume requires a ticket id")
        sub = Subscription()
        try:
            ack = await self.scheduler.resume(
                ticket_id, sub, watch=bool(message.get("watch", True)),
            )
        except UnknownTicket as exc:
            await self._send(writer, error_message(
                str(exc.args[0] if exc.args else exc),
                code="unknown_ticket",
            ))
            return
        except TicketRecordError as exc:
            await self._send(writer, error_message(
                str(exc), code="ticket_corrupt",
            ))
            return
        except ServerClosing as exc:
            await self._send(writer, error_message(str(exc)))
            return
        await self._send(writer, {"type": "resumed", **ack})
        await self._pump(sub, writer)

    async def _op_watch(self, writer) -> None:
        sub = self.stream.subscribe()
        await self._send(writer, {"type": "watching",
                                  "version": PROTOCOL_VERSION})
        try:
            await self._pump(sub, writer, wrap_events=True)
        finally:
            self.stream.unsubscribe(sub)

    async def _op_cache(self, message: dict, writer) -> None:
        cache = self.scheduler.cache
        if cache is None:
            await self._send(writer, error_message("server runs uncached"))
            return
        action = message.get("action")
        if action == "verify":
            report = await asyncio.to_thread(cache.verify)
        elif action == "gc":
            max_age = message.get("max_age_days")
            max_size = message.get("max_size_mb", self.max_cache_mb)
            report = await asyncio.to_thread(cache.gc, max_age, max_size)
            assert self.journal is not None
            self.journal.event("cache_gc", **report)
        else:
            raise ProtocolError(f"unknown cache action {action!r}")
        await self._send(writer, {"type": "cache_report", "action": action,
                                  **report})

    async def _pump(self, sub: Subscription, writer,
                    wrap_events: bool = False) -> None:
        """Forward a subscription's messages until it closes."""
        while True:
            item = await sub.get()
            if item is None:
                return
            if wrap_events and item.get("type") is None:
                item = {"type": "event", "event": item}
            try:
                await self._send(writer, item)
            except (ConnectionError, RuntimeError):
                sub.close()
                return

    @staticmethod
    async def _send(writer, message: dict) -> None:
        writer.write(encode_message(message))
        await writer.drain()

    def _status_message(self) -> dict:
        assert self.scheduler is not None and self.journal is not None
        status = {
            "type": "status",
            "version": PROTOCOL_VERSION,
            "server": self.journal.run_id,
            "uptime_s": round(time.time() - self.started, 3),
            "host": self.host,
            "port": self.port,
            "journal": str(self.journal_path),
            "watchers": len(self.stream) if self.stream is not None else 0,
            "stream": self.stream.stats() if self.stream is not None
            else {},
            **self.scheduler.status(),
        }
        if self.scheduler.cache is not None:
            status["cache"] = self.scheduler.cache.stats()
        return status

    def _on_cache_corrupt(self, key: str, reason: str, dest) -> None:
        if self.journal is not None:
            self.journal.event("cache_corrupt", key=key, reason=reason,
                               quarantined=str(dest))

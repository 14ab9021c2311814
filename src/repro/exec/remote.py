"""Remote placement: workers on ``repro hub`` TCP actors.

:class:`ExecHost` is the server half — a ``repro site``-style asyncio
actor (one per ``repro hub`` process) that serves worker sessions: each
inbound connection spawns one worker from the client's spec (a shard
hub :class:`~repro.service.TrackingService`, possibly restored from its
checkpoint bundle) on a dedicated thread and executes its command
table, FIFO.  One host carries any number of workers — all of a small
deployment's shard hubs, or one per machine.

:class:`ClusterBackend` is the client half: it speaks the same framed
transport as the distributed runtime (:mod:`repro.net.transport` — JSON
control + binary payload envelope over length-prefixed TCP frames),
encoding command arguments and results through the snapshot codec so
schemes, tuples and rich query answers round-trip exactly.  ``submit``
sends without awaiting the reply; per-connection FIFO makes drains
align, which is what lets a sharded facade post every hub's sub-batch
before collecting any ack — remote hubs apply their slices
concurrently, exactly like process workers, but on other machines.

Remote exceptions re-raise under their original type when it is a
builtin or a service error; anything else degrades to
:class:`ExecWorkerError` carrying the remote traceback.
"""

from __future__ import annotations

import asyncio
import traceback
from collections import deque
from typing import Optional

from ..net.transport import (
    CALL_TIMEOUT,
    LoopThread,
    TcpTransport,
    serve_on_thread,
)
from ..obs.metrics import MetricsRegistry
from ..obs.process import register_process_metrics
from ..obs.tracing import trace_scope
from .base import ExecBackend, ExecError, ExecWorkerError
from .workers import build_worker, close_worker, worker_commands

__all__ = ["ClusterBackend", "ExecHost", "LoopThread"]

class ExecHost:
    """Asyncio server hosting exec workers, one per inbound connection.

    The wire protocol per session (all frames through the transport's
    codec):

    ``{"t": "spawn", "spec": <encoded>}`` -> ``{"t": "ok"}``
        build the worker (hub configs may carry ``restore_from``).
    ``{"t": "op", "op": NAME, "args": <encoded list>[, "trace": {...}]}``
        run one command (under the caller's trace context when the
        frame carries one, so hub-side spans join the caller's trace);
        replies ``{"t": "ok", "result": <encoded>}`` or
        ``{"t": "err", "type": ..., "error": ..., "tb": ...}``.  The
        ``close`` op shuts the worker down and ends the session.
    ``{"t": "ping"}`` -> ``{"t": "pong"}``
        liveness probe.

    Command execution happens on a thread per session; the event loop
    only pumps frames, so one host serves many workers concurrently.
    """

    def __init__(self, transport, address: str, registry=None):
        self.transport = transport
        self._requested_address = address
        self._listener = None
        self._active_sessions = 0
        self._idle: Optional[asyncio.Event] = None
        # every hub host carries build/process self-stats, so the
        # fleet plane (and `repro hub` logs) can identify it even
        # though the host itself exposes no scrape endpoint
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        register_process_metrics(self.registry)

    async def start(self) -> "ExecHost":
        self._idle = asyncio.Event()
        self._idle.set()
        self._listener = await self.transport.listen(
            self._requested_address, self._serve
        )
        return self

    @property
    def address(self) -> str:
        """The bound address (differs from requested for port 0)."""
        if self._listener is None:
            return self._requested_address
        return self._listener.address

    async def _serve(self, conn) -> None:
        self._active_sessions += 1
        self._idle.clear()
        try:
            await serve_on_thread(
                conn, _session_main, "repro-hub-worker", CALL_TIMEOUT
            )
        finally:
            self._active_sessions -= 1
            if self._active_sessions == 0:
                self._idle.set()

    async def close(self) -> None:
        if self._listener is not None:
            await self._listener.close()
            self._listener = None
        if self._idle is not None:
            # Let disconnecting sessions finish their teardown so no
            # half-closed sockets outlive the host's event loop.
            try:
                await asyncio.wait_for(self._idle.wait(), timeout=5)
            except asyncio.TimeoutError:  # pragma: no cover - slow peer
                pass


def _session_main(send, inbox) -> None:
    """One worker session: spawn, serve commands, close on EOF."""
    from ..persistence.codec import decode_value, encode_value  # deferred

    recv = inbox.get
    worker = None
    commands = None
    try:
        while True:
            frame = recv()
            if frame is None:
                return
            kind = frame.get("t")
            try:
                if kind == "spawn":
                    spec = decode_value(frame["spec"])
                    worker = build_worker(spec)
                    commands = worker_commands(spec)
                    send({"t": "ok"})
                elif kind == "ping":
                    send({"t": "pong"})
                elif kind == "op":
                    op = frame.get("op")
                    if worker is None:
                        raise ExecError("no worker spawned on this session")
                    if op == "close":
                        close_worker(worker)
                        worker = None
                        send({"t": "ok", "result": True})
                        return
                    args = decode_value(frame.get("args"))
                    with trace_scope(frame.get("trace")):
                        result = commands[op](worker, *args)
                    send({"t": "ok", "result": encode_value(result)})
                else:
                    send({"t": "err", "type": "ExecError",
                          "error": f"unknown frame {kind!r}", "tb": ""})
            except ConnectionError:
                return
            except BaseException as exc:  # report, keep serving
                try:
                    send(
                        {
                            "t": "err",
                            "type": type(exc).__name__,
                            "error": str(exc),
                            "tb": traceback.format_exc(),
                        }
                    )
                except ConnectionError:
                    return
    finally:
        if worker is not None:
            try:
                close_worker(worker)
            except Exception:
                pass


def _raise_remote(frame) -> None:
    """Re-raise a remote error frame under its original type if known."""
    name = frame.get("type", "ExecWorkerError")
    message = frame.get("error", "")
    exc_type = _known_exception(name)
    if exc_type is not None:
        raise exc_type(message)
    raise ExecWorkerError(
        f"{name}: {message}\n(remote traceback)\n{frame.get('tb', '')}"
    )


def _known_exception(name: str):
    import builtins

    from ..service import errors as service_errors

    candidate = getattr(service_errors, name, None)
    if isinstance(candidate, type) and issubclass(candidate, BaseException):
        return candidate
    if name in ("ExecError", "ExecWorkerError"):
        return ExecError if name == "ExecError" else ExecWorkerError
    candidate = getattr(builtins, name, None)
    if isinstance(candidate, type) and issubclass(candidate, Exception):
        return candidate
    return None


class ClusterBackend(ExecBackend):
    """The worker on a remote :class:`ExecHost`, commands over TCP.

    Parameters
    ----------
    spec:
        The worker spec (see :mod:`repro.exec.workers`).  Hub configs
        with ``checkpoint_dir``/``restore_from`` refer to paths *on the
        host's filesystem*.
    address:
        ``host:port`` of a running exec host (``repro hub``); ``None``
        self-hosts one on an ephemeral local port (owned, closed with
        the backend) — the zero-config mode.
    loop:
        A shared :class:`LoopThread` (the sharded facade passes one for
        all its shards); ``None`` creates an owned loop.
    """

    def __init__(
        self,
        spec: dict,
        address: Optional[str] = None,
        loop: Optional[LoopThread] = None,
    ):
        super().__init__(spec)
        self._own_loop = loop is None
        self._loop = loop if loop is not None else LoopThread()
        self._own_host = None
        self._conn = None
        self._closed = False
        self._send_failures: deque = deque()
        try:
            self._transport = TcpTransport()
            if address is None:
                self._own_host = self._loop.call(
                    ExecHost(self._transport, "127.0.0.1:0").start()
                )
                address = self._own_host.address
            self.address = address
            self._connect_and_spawn(spec)
        except BaseException:
            self.close()
            raise

    def _connect_and_spawn(self, spec: dict) -> None:
        from ..persistence.codec import encode_value  # deferred

        self._conn = self._loop.call(self._transport.connect(self.address))
        self._send({"t": "spawn", "spec": encode_value(spec)})
        reply = self._recv()
        if reply.get("t") != "ok":
            raise ExecWorkerError(
                f"hub host refused spawn: {reply.get('error', reply)}"
            )

    def register_metrics(self, registry, shard: int) -> None:
        super().register_metrics(registry, shard)
        self._transport.register_metrics(registry)

    # -- framed plumbing ---------------------------------------------------

    def _send(self, frame: dict) -> None:
        self._loop.call(self._conn.send(frame))

    def _recv(self) -> dict:
        frame = self._loop.call(self._conn.recv())
        if frame is None:
            raise ExecWorkerError(
                f"hub host {self.address} closed the connection"
            )
        if frame.get("t") == "err":
            _raise_remote(frame)
        return frame

    # -- ExecBackend core --------------------------------------------------

    def _post(self, op: str, args: tuple, trace=None) -> None:
        from ..persistence.codec import encode_value  # deferred

        frame = {"t": "op", "op": op, "args": encode_value(list(args))}
        if trace is not None:
            # plain strings; rides the JSON control frame untouched
            frame["trace"] = trace
        try:
            self._send(frame)
            self._send_failures.append(None)
        except Exception as exc:
            self._send_failures.append(
                ExecWorkerError(f"hub connection is down: {exc}")
            )

    def _take(self):
        from ..persistence.codec import decode_value  # deferred

        send_error = self._send_failures.popleft()
        if send_error is not None:
            raise send_error
        reply = self._recv()
        if reply.get("t") != "ok":
            raise ExecWorkerError(f"unexpected reply {reply.get('t')!r}")
        return decode_value(reply.get("result"))

    def _respawn(self, spec: dict) -> None:
        self._send_failures.clear()
        if self._conn is not None:
            try:
                self._loop.call(self._conn.close(), timeout=10)
            except Exception:
                pass
        self._connect_and_spawn(spec)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._conn is not None:
            try:
                self.drain()
            except Exception:
                pass
            try:
                self._send({"t": "op", "op": "close", "args": None})
                self._loop.call(self._conn.recv(), timeout=10)
            except Exception:
                pass
            try:
                self._loop.call(self._conn.close(), timeout=10)
            except Exception:
                pass
            self._conn = None
        if self._own_host is not None:
            try:
                self._loop.call(self._own_host.close(), timeout=10)
            except Exception:
                pass
            self._own_host = None
        if self._own_loop:
            self._loop.close()

"""Pluggable actor transports: in-process loopback and framed TCP.

A *transport* moves whole messages between actors.  Both
implementations expose the same tiny surface so the runtime is wired
identically in tests and in production:

* ``await transport.listen(address, handler)`` — serve connections;
  ``handler(conn)`` is an async callable invoked once per connection.
* ``await transport.connect(address)`` — open a client connection.

Connections speak whole messages: ``await conn.send(obj)`` /
``await conn.recv()`` (``None`` at EOF).  Per-connection ordering is
FIFO — the delivery guarantee the distributed runtime's transcript
equivalence rests on.

:class:`LoopbackTransport` routes through paired ``asyncio.Queue``s in
one process (no sockets, no serialization) — the reference wiring for
tests and the loopback side of the benchmarks.  :class:`TcpTransport`
carries the same messages as length-prefixed frames
(:mod:`repro.net.frames`) over asyncio TCP streams: JSON for control
traffic, the binary payload envelope for frames with numeric bulk (run
chunks, shipped summaries).  Addresses are ``"host:port"`` strings
(port 0 binds an ephemeral port; the listener reports the bound
address).  Per-transport byte counters
(:attr:`TcpTransport.stats`) aggregate the framed traffic of every
connection the instance created.

:class:`LoopThread` is how the synchronous world drives either one: an
event loop on a background thread that blocking callers hand coroutines
to (the cluster facade, the remote exec backends, the in-process
gateway).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import queue
import threading
from collections import deque
from typing import Callable, Dict

from .frames import FrameDecoder, decode_payload, encode_frame, encode_payload

__all__ = [
    "ConnectionClosedError",
    "LoopThread",
    "LoopbackTransport",
    "TcpTransport",
    "parse_address",
    "format_address",
    "serve_on_thread",
]

_EOF = object()

#: generous ceiling for one cross-thread call; a hung peer surfaces as
#: an error instead of a silently stuck caller
CALL_TIMEOUT = 600.0

#: how long closing a loop waits for its cancelled tasks to unwind
_CLOSE_TIMEOUT = 10.0


class ConnectionClosedError(ConnectionError):
    """An operation hit a connection that is already closed."""


def parse_address(address: str):
    """``"host:port"`` -> ``(host, port)`` (IPv6 hosts may be bracketed)."""
    text = address.strip()
    host, sep, port_text = text.rpartition(":")
    if not sep:
        raise ValueError(f"bad address {address!r}: expected HOST:PORT")
    host = host.strip("[]") or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad address {address!r}: port {port_text!r} is not an integer"
        ) from None
    return host, port


def format_address(host: str, port: int) -> str:
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


class LoopThread:
    """An asyncio event loop on a background thread, driven by blocking
    callers (the synchronous facade world talking to the async net
    stack)."""

    def __init__(self, name: str = "repro-loop"):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=name, daemon=True
        )
        self._thread.start()
        self.closed = False

    def call(self, coro, timeout: float = CALL_TIMEOUT):
        """Run one coroutine on the loop; block for its result."""
        if self.closed:
            coro.close()  # never scheduled: no "never awaited" warning
            raise RuntimeError(f"{self._thread.name} is closed")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TimeoutError(
                f"operation on {self._thread.name} timed out after {timeout}s"
            ) from None

    def close(self) -> None:
        """Cancel and await every task still on the loop, then stop it.

        A server session waiting on its peer is such a task; stopping
        the loop under it would leave a pending task to be destroyed
        (and its coroutine's ``finally`` to run) after the loop closed.
        """
        if self.closed:
            return
        self.closed = True
        if threading.current_thread() is not self._thread:
            try:
                asyncio.run_coroutine_threadsafe(
                    _cancel_pending(), self._loop
                ).result(_CLOSE_TIMEOUT)
            except concurrent.futures.TimeoutError:
                pass  # a task ignoring cancellation: stop regardless
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        if not self._thread.is_alive():
            self._loop.close()


async def _cancel_pending() -> None:
    current = asyncio.current_task()
    tasks = [task for task in asyncio.all_tasks() if task is not current]
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


async def serve_on_thread(
    conn, session: Callable, name: str, timeout: float
) -> None:
    """Serve one connection with a blocking ``session`` on its own thread.

    The hosts' side of :class:`LoopThread`: protocol work runs on a
    daemon thread called ``name`` while the event loop only pumps
    frames.  ``session(send, inbox)`` gets a ``send(obj)`` that ships
    one message from that thread (a :class:`ConnectionError` if it is
    not on the wire within ``timeout`` seconds) and the ``queue.Queue``
    inbound messages land in, ``None`` marking EOF.  Returns once the
    peer hung up and the session thread finished.
    """
    loop = asyncio.get_running_loop()
    inbox: queue.Queue = queue.Queue()

    def send(obj) -> None:
        future = asyncio.run_coroutine_threadsafe(conn.send(obj), loop)
        try:
            future.result(timeout)
        except Exception as exc:
            raise ConnectionError(str(exc)) from exc

    thread = threading.Thread(
        target=session, args=(send, inbox), name=name, daemon=True
    )
    thread.start()
    try:
        while True:
            message = await conn.recv()
            inbox.put(message)
            if message is None:
                break
    finally:
        inbox.put(None)  # a second EOF is harmless; the session exits once
        await loop.run_in_executor(None, thread.join)


class _LoopbackConnection:
    """One side of an in-process queue pair."""

    def __init__(self, rx: asyncio.Queue, tx: asyncio.Queue):
        self._rx = rx
        self._tx = tx
        self._closed = False

    async def send(self, obj) -> None:
        if self._closed:
            raise ConnectionClosedError("loopback connection is closed")
        await self._tx.put(obj)

    def send_nowait(self, obj) -> None:
        """Enqueue without awaiting (loop thread only; unbounded queue).

        The relaxed hot path posts frames fire-and-forget via
        ``loop.call_soon_threadsafe(conn.send_nowait, obj)`` — one loop
        wakeup, no coroutine, no completion future.  A send into a
        closed connection is dropped silently, mirroring how an async
        ``send`` racing a peer close surfaces: the failure is observed
        on the next ``recv`` (EOF), not at the send site.
        """
        if not self._closed:
            self._tx.put_nowait(obj)

    async def recv(self):
        if self._closed:
            return None
        obj = await self._rx.get()
        if obj is _EOF:
            self._closed = True
            return None
        return obj

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            await self._tx.put(_EOF)


class _LoopbackListener:
    def __init__(self, transport: "LoopbackTransport", address: str):
        self.address = address
        self._transport = transport
        self.tasks = set()

    async def close(self) -> None:
        self._transport._servers.pop(self.address, None)
        for task in list(self.tasks):
            task.cancel()
        for task in list(self.tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self.tasks.clear()


class LoopbackTransport:
    """In-process transport: queue pairs, FIFO, same event loop.

    One transport instance is one namespace: ``connect`` resolves the
    address against this instance's listeners only.
    """

    def __init__(self):
        self._servers: Dict[str, tuple] = {}

    async def listen(self, address: str, handler) -> _LoopbackListener:
        if address in self._servers:
            raise ValueError(f"loopback address {address!r} already bound")
        listener = _LoopbackListener(self, address)
        self._servers[address] = (handler, listener)
        return listener

    async def connect(self, address: str) -> _LoopbackConnection:
        try:
            handler, listener = self._servers[address]
        except KeyError:
            raise ConnectionClosedError(
                f"nothing listening on loopback address {address!r}"
            ) from None
        client_to_server: asyncio.Queue = asyncio.Queue()
        server_to_client: asyncio.Queue = asyncio.Queue()
        client = _LoopbackConnection(server_to_client, client_to_server)
        server = _LoopbackConnection(client_to_server, server_to_client)
        task = asyncio.ensure_future(self._serve(handler, server))
        listener.tasks.add(task)
        task.add_done_callback(listener.tasks.discard)
        return client

    @staticmethod
    async def _serve(handler, conn: _LoopbackConnection) -> None:
        try:
            await handler(conn)
        finally:
            await conn.close()


class _TcpConnection:
    """Framed messages over one asyncio TCP stream."""

    def __init__(self, reader, writer, stats: dict):
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._pending = deque()
        self._stats = stats
        self._closed = False

    async def send(self, obj) -> None:
        if self._closed:
            raise ConnectionClosedError("TCP connection is closed")
        try:
            frame = encode_frame(encode_payload(obj))
            self._stats["bytes_sent"] += len(frame)
            self._stats["frames_sent"] += 1
            self._writer.write(frame)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._closed = True
            raise ConnectionClosedError(str(exc)) from exc

    def encode_frame_bytes(self, obj) -> bytes:
        """Serialize ``obj`` to its on-wire frame (thread-safe, no I/O).

        The relaxed hot path encodes on the calling thread and ships the
        bytes to the loop thread via :meth:`write_frame_nowait`, so the
        loop callback does nothing but a buffered ``write``.
        """
        return encode_frame(encode_payload(obj))

    def write_frame_nowait(self, frame: bytes) -> None:
        """Write pre-encoded frame bytes without draining (loop thread).

        Skipping ``drain`` removes the completion round-trip that
        dominates per-frame cost; the OS socket buffer absorbs bursts
        and the dispatch window bounds how much can be in flight.
        Failures mark the connection closed and surface on the next
        ``recv``, exactly like a peer death mid-stream.
        """
        if self._closed:
            return
        try:
            self._stats["bytes_sent"] += len(frame)
            self._stats["frames_sent"] += 1
            self._writer.write(frame)
        except (ConnectionError, OSError):
            self._closed = True

    async def recv(self):
        while not self._pending:
            if self._closed:
                return None
            try:
                data = await self._reader.read(65536)
            except (ConnectionError, OSError):
                self._closed = True
                return None
            if not data:
                self._closed = True
                # A mid-frame EOF is a torn frame; surface it loudly
                # rather than silently dropping the partial message.
                self._decoder.finish()
                return None
            self._stats["bytes_received"] += len(data)
            self._pending.extend(self._decoder.feed(data))
        payload = self._pending.popleft()
        self._stats["frames_received"] += 1
        return decode_payload(payload)

    async def close(self) -> None:
        self._closed = True
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _TcpListener:
    def __init__(self, server: asyncio.base_events.Server, address: str):
        self._server = server
        self.address = address

    async def close(self) -> None:
        self._server.close()
        await self._server.wait_closed()


def _fresh_stats() -> dict:
    return {
        "bytes_sent": 0,
        "bytes_received": 0,
        "frames_sent": 0,
        "frames_received": 0,
    }


class TcpTransport:
    """Length-prefixed-frame TCP transport (asyncio streams).

    :attr:`stats` aggregates framed byte/frame counts over every
    connection this transport instance created (both sides, for
    listeners it spawned).
    """

    def __init__(self):
        self.stats = _fresh_stats()

    def register_metrics(self, registry) -> None:
        """Declare the ``repro_net_*`` families on ``registry`` and add
        this transport's traffic to them at every scrape (each transport
        contributes what it carried since its last one, so several on
        one registry sum)."""
        families = {
            "bytes": registry.counter(
                "repro_net_bytes_total",
                "Transport bytes over cluster-backend connections.",
                ["direction"],
            ),
            "frames": registry.counter(
                "repro_net_frames_total",
                "Transport frames over cluster-backend connections.",
                ["direction"],
            ),
        }
        seen = _fresh_stats()

        def collect() -> None:
            for unit, family in families.items():
                for direction in ("sent", "received"):
                    key = f"{unit}_{direction}"
                    now = self.stats[key]
                    family.labels(direction).inc(now - seen[key])
                    seen[key] = now

        registry.register_collector(collect)

    async def listen(self, address: str, handler) -> _TcpListener:
        host, port = parse_address(address)

        async def _serve(reader, writer):
            conn = _TcpConnection(reader, writer, self.stats)
            try:
                await handler(conn)
            finally:
                await conn.close()

        server = await asyncio.start_server(_serve, host, port)
        bound = server.sockets[0].getsockname()
        return _TcpListener(server, format_address(bound[0], bound[1]))

    async def connect(self, address: str) -> _TcpConnection:
        host, port = parse_address(address)
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError) as exc:
            raise ConnectionClosedError(
                f"cannot connect to {address}: {exc}"
            ) from exc
        return _TcpConnection(reader, writer, self.stats)

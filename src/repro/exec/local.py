"""Local backends: in-process, worker-thread, worker-process placement.

All three host one worker (see :mod:`repro.exec.workers`) behind the
submit/drain pipe of :class:`~repro.exec.ExecBackend`:

* :class:`InprocBackend` — the worker is a plain object in the caller's
  process; ``submit`` executes eagerly, so it is the deterministic,
  dependency-free reference placement (the one equivalence tests pin).
* :class:`ThreadBackend` — one worker thread; commands run off the
  caller's thread, FIFO (a single-thread pool serializes them).
* :class:`ProcessBackend` — one worker subprocess (fork when available,
  else spawn), commands over a duplex pipe.  Because ``submit`` posts
  without collecting, fanning a batch across several process backends
  applies every slice concurrently — this is what the shard scaling
  benchmark measures.  Worker exceptions re-raise in the caller;
  unpicklable ones degrade to :class:`ExecWorkerError` carrying the
  remote traceback.

:func:`make_group` builds the :class:`~repro.exec.ExecGroup` fleet the
sharded service drives, mapping executor names (``inline`` / ``thread``
/ ``process`` / ``cluster``) to placements.
"""

from __future__ import annotations

import multiprocessing
import pickle
import traceback
from collections import deque
from typing import List, Optional, Sequence

from ..obs.tracing import trace_scope
from .base import EXECUTORS, ExecBackend, ExecError, ExecGroup, ExecWorkerError
from .dispatch import CreditWindow
from .workers import build_worker, close_worker, worker_commands

__all__ = [
    "InprocBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "make_group",
]


class InprocBackend(ExecBackend):
    """The worker as a plain object in the caller's process.

    ``submit`` executes the command immediately (there is nothing to
    overlap in-process); results and errors queue for :meth:`drain`, so
    the submit/drain discipline — and therefore failure ordering — is
    identical to the placed backends.
    """

    def __init__(self, spec: dict):
        super().__init__(spec)
        self._worker = build_worker(spec)
        self._commands = worker_commands(spec)
        self._results: deque = deque()
        self._closed = False

    def _post(self, op: str, args: tuple, trace=None) -> None:
        try:
            with trace_scope(trace):
                self._results.append(
                    ("ok", self._commands[op](self._worker, *args))
                )
        except BaseException as exc:
            self._results.append(("err", exc))

    def _take(self):
        status, payload = self._results.popleft()
        if status == "err":
            raise payload
        return payload

    def _respawn(self, spec: dict) -> None:
        close_worker(self._worker)
        self._results.clear()
        self._worker = build_worker(spec)
        self._commands = worker_commands(spec)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        close_worker(self._worker)


class ThreadBackend(InprocBackend):
    """The worker behind one dedicated thread (FIFO, off-caller)."""

    def __init__(self, spec: dict):
        from concurrent.futures import ThreadPoolExecutor

        super().__init__(spec)
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-exec"
        )

    def _post(self, op: str, args: tuple, trace=None) -> None:
        # The pool thread is not the caller's thread, so the captured
        # context is re-entered explicitly around the command.
        command = self._commands[op]

        def run(worker=self._worker, args=args, trace=trace):
            with trace_scope(trace):
                return command(worker, *args)

        self._results.append(("future", self._pool.submit(run)))

    def _take(self):
        status, payload = self._results.popleft()
        if status == "future":
            return payload.result()
        if status == "err":
            raise payload
        return payload

    def _respawn(self, spec: dict) -> None:
        from concurrent.futures import ThreadPoolExecutor

        # Abandon the old pool rather than joining it: a wedged command
        # cannot be preempted on a thread placement, but the fresh
        # worker must not queue behind it.  Queued-but-unstarted
        # commands are cancelled; a still-running one keeps the old
        # (about-to-be-closed) worker to itself.
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-exec"
        )
        super()._respawn(spec)

    def close(self) -> None:
        if self._closed:
            return
        self._pool.shutdown(wait=True)
        super().close()


# -- process placement -----------------------------------------------------


def _worker_main(conn, spec: dict) -> None:
    """Entry point of one worker subprocess."""
    try:
        worker = build_worker(spec)
        commands = worker_commands(spec)
    except BaseException as exc:
        conn.send(("err", _shippable(exc)))
        conn.close()
        return
    conn.send(("ok", True))
    while True:
        try:
            op, args, trace = conn.recv()
        except (EOFError, OSError):
            break
        if op == "close":
            try:
                close_worker(worker)
                conn.send(("ok", True))
            except BaseException as exc:
                conn.send(("err", _shippable(exc)))
            break
        try:
            with trace_scope(trace):
                result = commands[op](worker, *args)
            conn.send(("ok", result))
        except BaseException as exc:
            conn.send(("err", _shippable(exc)))
    conn.close()


def _shippable(exc: BaseException):
    """An exception as something the parent can re-raise.

    Returns the exception itself when it pickles, else an
    :class:`ExecWorkerError` carrying the formatted remote traceback.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return ExecWorkerError(
            f"{type(exc).__name__}: {exc}\n"
            f"(remote traceback)\n{traceback.format_exc()}"
        )


class ProcessBackend(ExecBackend):
    """The worker in a subprocess, commands over a duplex pipe.

    ``submit`` posts without collecting; the pipe preserves FIFO, so a
    fan-out that posts to many process backends before draining any has
    every worker applying its slice concurrently.  A dead worker fails
    each outstanding (and later) command with :class:`ExecWorkerError`
    without ever desynchronizing its own reply stream.
    """

    def __init__(self, spec: dict):
        super().__init__(spec)
        self._closed = False
        self._send_failures: deque = deque()
        self._conn = None
        self._proc = None
        try:
            self._spawn(spec)
        except BaseException:
            self.close()
            raise

    def _spawn(self, spec: dict) -> None:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        parent, child = context.Pipe(duplex=True)
        proc = context.Process(
            target=_worker_main,
            args=(child, spec),
            daemon=True,
            name="repro-exec-worker",
        )
        proc.start()
        child.close()
        self._conn = parent
        self._proc = proc
        # Synchronize on construction so a bad spec (e.g. a dirty
        # checkpoint dir) fails in the caller, not silently later.
        self._collect()

    def _post(self, op: str, args: tuple, trace=None) -> None:
        try:
            self._conn.send((op, args, trace))
            self._send_failures.append(None)
        except (BrokenPipeError, OSError) as exc:
            self._send_failures.append(
                ExecWorkerError(f"worker pipe is down: {exc}")
            )

    def _take(self):
        send_error = self._send_failures.popleft()
        if send_error is not None:
            raise send_error
        return self._collect()

    def _collect(self):
        try:
            status, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise ExecWorkerError(
                f"worker died without replying: {exc}"
            ) from exc
        if status == "err":
            raise payload
        return payload

    def _respawn(self, spec: dict) -> None:
        self._teardown(timeout=2)
        self._send_failures.clear()
        self._spawn(spec)

    def _teardown(self, timeout: float = 10.0) -> None:
        if self._conn is not None:
            try:
                self._conn.send(("close", (), None))
            except (BrokenPipeError, OSError):
                pass
            try:
                if self._conn.poll(timeout):
                    self._conn.recv()
            except (EOFError, OSError):
                pass
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self._proc is not None:
            self._proc.join(timeout=timeout)
            if self._proc.is_alive():  # pragma: no cover - stuck worker
                self._proc.terminate()
                self._proc.join(timeout=5)
            self._proc = None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._teardown()


# -- construction ----------------------------------------------------------


def make_backend(executor: str, spec: dict, **kwargs) -> ExecBackend:
    """Build one backend hosting ``spec``'s worker under ``executor``."""
    if executor == "inline":
        return InprocBackend(spec)
    if executor == "thread":
        return ThreadBackend(spec)
    if executor == "process":
        return ProcessBackend(spec)
    if executor == "cluster":
        from .remote import ClusterBackend

        return ClusterBackend(spec, **kwargs)
    raise ExecError(
        f"unknown executor {executor!r}; choose from {EXECUTORS}"
    )


def make_group(
    executor: str,
    specs: Sequence[dict],
    hub_addresses: Optional[List[str]] = None,
    ledger: Optional[CreditWindow] = None,
) -> ExecGroup:
    """Build the worker fleet for a facade (one backend per spec).

    ``executor`` places every worker the same way.  For ``cluster``,
    workers land on the ``repro hub`` hosts named by ``hub_addresses``
    (round-robin); with no addresses a TCP host is self-hosted on an
    ephemeral local port — the zero-config mode — and owned (closed) by
    the returned group.  ``ledger`` is the fleet's in-flight ledger
    (see :class:`ExecGroup`), built — and so validated — by the caller
    before any worker is spawned.
    """
    if executor in ("inline", "thread", "process"):
        return ExecGroup(
            [make_backend(executor, spec) for spec in specs], ledger=ledger
        )
    if executor != "cluster":
        raise ExecError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )

    from ..net.transport import TcpTransport
    from .remote import ClusterBackend, ExecHost, LoopThread

    loop = LoopThread()
    owned = []
    backends = []
    try:
        if not hub_addresses:
            host = loop.call(ExecHost(TcpTransport(), "127.0.0.1:0").start())
            owned.append(lambda: loop.call(host.close()))
            hub_addresses = [host.address]
        for index, spec in enumerate(specs):
            backends.append(
                ClusterBackend(
                    spec,
                    address=hub_addresses[index % len(hub_addresses)],
                    loop=loop,
                )
            )
    except BaseException:
        for backend in backends:
            try:
                backend.close()
            except Exception:
                pass
        for closer in reversed(owned):
            try:
                closer()
            except Exception:
                pass
        loop.close()
        raise
    owned.append(loop.close)
    return ExecGroup(backends, owned=owned, ledger=ledger)

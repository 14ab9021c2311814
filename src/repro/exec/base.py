"""The `ExecBackend` contract and the fan-out group.

An :class:`ExecBackend` hosts exactly **one worker** (a shard hub —
see :mod:`repro.exec.workers`) somewhere — in the caller's process,
on a thread, in a subprocess, or on a remote TCP actor — and executes that worker's command table against it.  The core
is asynchronous-by-construction:

* :meth:`ExecBackend.submit` posts one command without waiting;
* :meth:`ExecBackend.drain` collects every outstanding reply in FIFO
  order (failure-safe: it always consumes all replies before raising,
  so a failed command can never desynchronize the reply stream).

Everything else — ``dispatch_run`` (post one command, wait for it),
``dispatch_batch`` (the ingest hot path, optionally *relaxed* so the
caller overlaps batches across workers between protocol barriers),
``query`` / ``checkpoint`` / ``restore`` / ``close`` — is defined here
once, on top of that core, so the four substrates cannot drift apart.

:class:`ExecGroup` fans one command out across many backends (the
sharded service's shard fan-out): it posts to every backend before
collecting from any, which is what lets process- and TCP-hosted hubs
apply their slices concurrently, and it drains every backend before
re-raising the first failure so surviving workers stay usable.
"""

from __future__ import annotations

import abc
import time
from typing import Callable, List, Optional, Sequence

from ..obs.metrics import LATENCY_BUCKETS, Histogram
from ..obs.tracing import current_trace
from .dispatch import CreditWindow

__all__ = [
    "EXECUTORS",
    "ExecBackend",
    "ExecError",
    "ExecGroup",
    "ExecWorkerError",
]

#: executor names accepted by :func:`repro.exec.make_group` (and the
#: sharded service / gateway CLI): where each worker is placed.
EXECUTORS = ("inline", "thread", "process", "cluster")


class ExecError(RuntimeError):
    """Base class for execution-plane failures."""


class ExecWorkerError(ExecError):
    """A worker failed and its exception could not be re-raised as-is."""


class ExecBackend(abc.ABC):
    """One worker, one placement; a submit/drain command pipe.

    Subclasses implement :meth:`_post` (enqueue one command towards the
    worker) and :meth:`_take` (block for the oldest outstanding reply),
    plus lifecycle (:meth:`close`, :meth:`_respawn`).  The public
    surface — ``dispatch_run``, ``dispatch_batch``, ``query``,
    ``checkpoint``, ``restore``, ``close`` — is shared.
    """

    def __init__(self, spec: dict):
        self.spec = spec
        #: where the worker runs, for operators' eyes: the placement's
        #: name, or ``host:port`` once a remote placement has connected
        self.address = type(self).__name__
        #: where posted-but-uncollected commands are booked: slot
        #: ``_slot`` of ``_ledger``.  A standalone backend owns a
        #: one-slot ledger; an :class:`ExecGroup` rebinds its backends
        #: to one slot each of the fleet's.
        self._ledger = CreditWindow(1)
        self._slot = 0
        #: submit-to-collect latency per command.  Under relaxed
        #: dispatch a reply is collected at the next fence, so this
        #: histogram measures the *in-flight window* — exactly the
        #: pipelining the relaxed mode buys — rather than pure worker
        #: time.  Owned here; :meth:`register_metrics` attaches it.
        self.latency = Histogram(LATENCY_BUCKETS)

    # -- core (subclass contract) ------------------------------------------

    @abc.abstractmethod
    def _post(self, op: str, args: tuple, trace=None) -> None:
        """Enqueue one command; must not wait for the worker's reply.

        ``trace`` is the caller's trace context (see
        :func:`repro.obs.tracing.current_trace`) or ``None``; placed
        backends carry it in their command envelope so worker-side
        spans join the caller's trace.  A delivery failure (dead pipe,
        closed connection) must be recorded and surfaced by the
        matching :meth:`_take`, never swallowed and never allowed to
        desynchronize later replies.
        """

    @abc.abstractmethod
    def _take(self):
        """Collect the oldest outstanding reply (raises worker errors)."""

    @abc.abstractmethod
    def close(self) -> None:
        """Shut the worker (and its placement) down; idempotent."""

    @abc.abstractmethod
    def _respawn(self, spec: dict) -> None:
        """Replace the worker with one freshly built from ``spec``."""

    # -- shared surface ----------------------------------------------------

    def register_metrics(self, registry, shard: int) -> None:
        """Expose this backend on ``registry`` as shard ``shard``: its
        latency histogram joins ``repro_exec_dispatch_seconds``."""
        registry.histogram(
            "repro_exec_dispatch_seconds",
            "Per-backend submit-to-collect latency; under relaxed "
            "dispatch this is the in-flight window.",
            ["shard"],
            buckets=LATENCY_BUCKETS,
        ).attach((str(shard),), self.latency)

    @property
    def pending(self) -> int:
        """Commands posted but not yet collected."""
        return self._ledger.pending(self._slot)

    def submit(self, op: str, *args, weight: int = 0) -> None:
        """Post one command without waiting for its result.

        The caller's active trace context (if any) is captured into the
        command envelope, so spans the worker records — in a thread, a
        subprocess, or on a remote hub host — parent to the span that
        was open at submit time.  ``weight`` is the number of runs the
        command carries (see :class:`~repro.exec.dispatch.CreditWindow`).
        """
        self._post(op, args, current_trace())
        self._ledger.post(self._slot, weight, time.perf_counter())

    def drain(self) -> list:
        """Collect every outstanding reply, in submission order.

        Always consumes all replies before raising, so one failed
        command cannot leave later replies misaligned; the first
        failure is re-raised after the drain.
        """
        results = []
        first_error: Optional[BaseException] = None
        while self.pending:
            try:
                results.append(self.collect_one())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def collect_one(self) -> object:
        """Collect the single oldest outstanding reply (FIFO).

        This is the one place a reply is consumed, so it is the one
        place the command leaves the ledger.  The credit-based posting
        loop (:meth:`ExecGroup.post`) uses it to free exactly one
        in-flight slot instead of fencing the whole pipe with
        :meth:`drain`.  Raises the reply's worker error (the reply is
        still consumed, so the stream never desynchronizes); raises
        :class:`ExecError` when nothing is outstanding.
        """
        if not self.pending:
            raise ExecError("no outstanding command to collect")
        posted = self._ledger.complete(self._slot)
        try:
            return self._take()
        finally:
            self.latency.observe(time.perf_counter() - posted)

    def submit_many(self, commands) -> None:
        """Post several commands as ONE ``multi`` round trip.

        ``commands`` is a sequence of ``(op, args_tuple)`` pairs; the
        worker runs them in order and replies once with the list of
        results (see the ``multi`` entry in
        :mod:`repro.exec.workers`).  On placed backends this collapses
        N pipe/TCP round trips into one — the restore path uses it to
        fetch a hub's manifest and counters in a single trip.
        """
        self.submit("multi", [(op, tuple(args)) for op, args in commands])

    def dispatch_run(self, op: str, *args):
        """Run one command in lockstep: post it, wait, return its result."""
        self.submit(op, *args)
        return self.drain()[-1]

    def dispatch_batch(self, site_ids, items=None, relaxed: bool = False) -> int:
        """Ingest one ordered event batch into the worker.

        Lockstep (default) waits for the worker's ack and returns the
        applied count.  ``relaxed=True`` posts the batch and returns its
        length immediately — per-worker FIFO keeps the worker's
        transcript identical; only the *caller* stops paying one round
        trip per batch.  Errors from a relaxed batch surface at the next
        collecting call (``drain``/``dispatch_run``/...).
        """
        self.submit("ingest", site_ids, items)
        if relaxed:
            return len(site_ids)
        return self.drain()[-1]

    def query(self, *args):
        """Run the worker's query command (lockstep).

        Hub workers take ``(name, method, args, kwargs)`` — see
        :mod:`repro.exec.workers`.
        """
        return self.dispatch_run("query", *args)

    def checkpoint(self):
        """Persist the worker's durable state (lockstep); returns the
        worker's checkpoint handle (a path for hub workers)."""
        return self.dispatch_run("checkpoint")

    def restore(self) -> None:
        """Rebuild the worker from its durable source.

        Requires the worker spec to carry a checkpoint directory (hub
        workers with ``checkpoint_dir``/``restore_from``); the old
        worker is discarded and a fresh one is recovered from the
        newest snapshot plus the WAL tail.  Placed workers (process,
        cluster) are replaced even when wedged mid-command; in-process
        placements (inline, thread) cannot preempt a command that is
        still running — thread restore abandons it on the old pool.
        """
        from .workers import restore_spec  # deferred: service-layer import

        self._ledger.clear(self._slot)
        self._respawn(restore_spec(self.spec))

    # -- context management ------------------------------------------------

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        kind = self.spec.get("kind", "hub")
        return (
            f"{type(self).__name__}(kind={kind!r}, "
            f"pending={self.pending})"
        )


class ExecGroup:
    """A fixed fleet of backends driven with post-all-then-collect fan-out.

    ``map`` posts one command to every backend before collecting from
    any — across process pipes and TCP connections the workers execute
    concurrently — and its collect phase drains *every* backend before
    re-raising the first failure, so a dead worker never leaves a
    surviving worker's reply stream misaligned.

    The group's ``ledger`` (one slot per backend) is the fleet's only
    in-flight bookkeeping: every backend books its commands there, and
    :meth:`post` is relaxed dispatch's credit-bounded submit.  Pass a
    configured :class:`~repro.exec.dispatch.CreditWindow` for relaxed
    dispatch; the default is a lockstep one.
    """

    def __init__(
        self,
        backends: Sequence[ExecBackend],
        owned: Optional[List[Callable[[], None]]] = None,
        ledger: Optional[CreditWindow] = None,
    ):
        self.backends = list(backends)
        if ledger is None:
            ledger = CreditWindow(len(self.backends))
        self.ledger = ledger
        for slot, backend in enumerate(self.backends):
            backend._ledger, backend._slot = self.ledger, slot
        self._owned = list(owned or [])
        self._closed = False

    def __len__(self) -> int:
        return len(self.backends)

    @property
    def pending(self) -> int:
        """Total commands posted but not collected, over all backends."""
        return len(self.ledger)

    def post(self, index: int, weight: int, op: str, *args) -> None:
        """Relaxed dispatch: post a ``weight``-run command to one
        backend under the ledger's credits, collecting the oldest
        outstanding reply (never a full fence) while it would exceed
        them.  A deferred error from a reclaimed reply raises here."""
        self.ledger.admit(index, weight, self.collect_oldest)
        self.backends[index].submit(op, *args, weight=weight)

    def collect_oldest(self) -> None:
        """Collect the fleet's oldest outstanding reply."""
        self.backends[self.ledger.oldest()].collect_one()

    def map(self, op: str, per_worker_args: Sequence[tuple],
            collect: bool = True):
        """Post ``op`` to every backend; collect per-backend results.

        ``collect=False`` (relaxed fan-out) returns ``None`` immediately
        — results and errors surface at the next :meth:`collect`.
        """
        for backend, args in zip(self.backends, per_worker_args):
            backend.submit(op, *args)
        if not collect:
            return None
        return self.collect()

    def collect(self) -> list:
        """Drain every backend; per-backend *latest* results, in order.

        Failure-safe like :meth:`ExecBackend.drain`: every backend is
        drained before the first error re-raises, and a failed backend
        contributes ``None``.
        """
        results = []
        first_error: Optional[BaseException] = None
        for backend in self.backends:
            try:
                drained = backend.drain()
                results.append(drained[-1] if drained else None)
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def call(self, index: int, op: str, *args):
        """Run one command on one backend only (lockstep)."""
        return self.backends[index].dispatch_run(op, *args)

    def close(self) -> None:
        """Close every backend, then group-owned resources (hosts, loops)."""
        if self._closed:
            return
        self._closed = True
        for backend in self.backends:
            try:
                backend.close()
            except Exception:  # a dead worker must not block shutdown
                pass
        for closer in self._owned:
            try:
                closer()
            except Exception:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ExecGroup(backends={len(self.backends)}, "
            f"pending={self.pending})"
        )

"""The distributed runtime's actors: site workers and the coordinator hub.

Topology is a star, like the paper's model: ``k`` site actors each hold
one :class:`~repro.runtime.Site` state machine; the coordinator hub
holds the :class:`~repro.runtime.Coordinator`, the *real*
:class:`~repro.runtime.Network` ledger, and one connection per site.
Stream events travel hub -> site as *run* commands (per-site chunks in
arrival order); protocol messages travel site -> hub as *uplink* frames.

**Why transcripts match the simulator.**  The paper's model delivers
messages synchronously and re-entrantly: a site's report can trigger a
coordinator broadcast whose per-site handlers run *inside* the original
send — and those handlers may themselves report (the randomized count
scheme's re-randomization adjusts do exactly this).  The runtime mirrors
that depth-first cascade with blocking RPCs:

1. *Lockstep runs* — the hub dispatches one run at a time, in global
   arrival order (exactly the order ``Simulation.run_batched`` uses).
2. *Uplink RPC* — a site's ``send()`` transmits the uplink and blocks
   until the hub's ``ack``.  The hub only acks after the coordinator
   has completely finished processing the message — including every
   downlink/broadcast the processing emitted.
3. *Deliver RPC* — each coordinator->site message is pushed to its site
   as a ``deliver`` frame *at its exact position in the cascade* (the
   hub hosts the real ``Network``, so a broadcast walks sites in
   ascending order just like the simulator).  The site applies it and
   replies ``deliver_done``; uplinks the handler emits in between are
   processed inline, recursively.  A site blocked awaiting an ``ack``
   services interleaved delivers — that is the simulator's re-entrant
   delivery, reproduced on a wire.

The hub's protocol core is synchronous (it *is* the simulator's
``Network``/``Coordinator`` objects) and runs on an executor thread;
per-connection asyncio pump tasks feed it thread-safe inboxes.  Site
workers mirror the same split: sync state machine on a thread, asyncio
pump for frames.  Per-connection FIFO plus the depth-first RPC
discipline make the distributed transcript — every message, every RNG
draw, every ledger entry — byte-identical to the in-process simulator
with the same seed.

**The relaxed fast path.**  Relaxed mode (negotiated at spawn) drops
the per-frame synchronization that lockstep's byte-identity needs but
per-site exactness does not.  It runs one-way schemes only
(``scheme.one_way_capable``): their coordinator never answers, so a
site's next decision never waits on a broadcast, and every site's
reports fold into the same coordinator state in any interleaving.
The hub refuses a two-way scheme before it opens a connection.

* *Coalesced super-runs* — before posting, the batch's runs are merged
  per site within the in-flight window
  (:func:`~repro.exec.dispatch.coalesce_runs`), so a burst of hundreds
  of same-site runs is one ``run`` frame and one vectorized
  ``on_elements`` apply.  Per-site concatenation order is arrival
  order, the only order relaxed mode promises.
* *Streamed uplinks* — sites send reports without awaiting an ``ack``
  and the hub sends none.  Acks are pure transport sync tokens (they
  never touch the ``Network`` ledger), so message counts are
  untouched; per-site FIFO still delivers each site's reports in
  exact local order, and the hub applies them on its protocol thread.
* *Fire-and-forget posting* — hub run posts and site
  uplink/completion replies are encoded on the sending thread and
  handed to the event loop as one ``call_soon_threadsafe`` write: no
  coroutine, no completion future, no cross-thread wait per frame.
  Send failures surface on the next ``recv`` (EOF), exactly like a
  peer death.
* *Bounded windows* — ``window``/``per_site_depth`` cap in-flight runs
  (the hub's :class:`~repro.exec.dispatch.CreditWindow`), so memory
  stays flat on huge batches and a fence waits out at most a window,
  not a batch.
"""

from __future__ import annotations

import asyncio
import queue
import time
from collections import deque
from typing import List, Optional

from ..exec.dispatch import CreditWindow, coalesce_runs
from ..persistence.codec import (
    StateDecoder,
    StateEncoder,
    decode_value,
    encode_value,
    load_object_state,
    object_state,
)
from ..runtime import CommStats, TranscriptRecorder
from ..runtime.batching import decompose_runs
from ..runtime.simulation import ProtocolStack
from ..service.job import resolve_query
from .transport import serve_on_thread
from .wire import decode_chunk, decode_message, encode_chunk, encode_message

__all__ = [
    "NetError",
    "ProtocolError",
    "RemoteActorError",
    "SiteUnavailableError",
    "SiteHost",
    "SiteWorker",
    "CoordinatorHub",
]

#: ceiling for any single blocking wait on a peer's frame
DEFAULT_RPC_TIMEOUT = 600.0


class NetError(RuntimeError):
    """Base class for distributed-runtime failures."""


class ProtocolError(NetError):
    """A peer sent a frame the actor protocol does not allow here."""


class RemoteActorError(NetError):
    """A remote actor reported an exception while executing a command."""


class SiteUnavailableError(NetError):
    """A site actor is down (killed, crashed, or unreachable)."""


class _RemoteNetwork:
    """The network facade a site actor hands its protocol state machine.

    Only the uplink exists on a site: ``send_to_coordinator`` turns into
    a blocking RPC through the owning :class:`SiteWorker`.  The ledger
    lives at the hub (the authoritative ``Network``); the local ``stats``
    object exists only so wrappers like the boosting ``_TaggedChannel``
    can hold a reference.
    """

    def __init__(self, worker: "SiteWorker", num_sites: int, one_way: bool):
        self._worker = worker
        self.num_sites = num_sites
        self.one_way = one_way
        self.stats = CommStats()

    def send_to_coordinator(self, site_id: int, message) -> None:
        self._worker.uplink(message)

    def send_to_site(self, site_id: int, message) -> None:
        raise ProtocolError("a site actor cannot send downlink traffic")

    def broadcast(self, message) -> None:
        raise ProtocolError("a site actor cannot broadcast")


class SiteWorker:
    """Synchronous state machine executing one logical site actor.

    Driven entirely through two blocking callables (``send``/``recv``)
    so it can run on a worker thread behind an asyncio connection — or
    directly on queue pairs in unit tests.  Commands:

    ``spawn``     build the site from an encoded scheme
    ``restore``   merge a snapshot into the spawned site
    ``run``       process one chunk of local elements
    ``deliver``   apply coordinator messages, reply ``deliver_done``
                  (lockstep only: relaxed schemes never answer)
    ``snapshot``  reply with the site's encoded state
    ``ping``      liveness probe
    ``stop``      acknowledge and exit

    The optional ``post`` sends a frame fire-and-forget (per-connection
    FIFO with ``send``).  It only matters once a ``spawn`` negotiates
    relaxed mode — the spawn frame's ``relaxed`` flag — where uplinks
    stream without awaiting acks and run completions skip the
    cross-thread completion wait.
    """

    def __init__(self, send, recv, post=None):
        self._send = send
        self._recv = recv
        self._post = post if post is not None else send
        self.site = None
        self._relaxed = False

    # -- the uplink RPC (called from inside protocol handlers) -------------

    def uplink(self, message) -> None:
        """Ship one report; in lockstep, block until the hub's cascade
        finished.

        While waiting, interleaved ``deliver`` frames are serviced: the
        coordinator's re-entrant responses (downlinks, our copy of a
        broadcast) apply *inside* this send, exactly as the synchronous
        network would, and may recurse into further uplinks.

        In negotiated relaxed mode the hub sends no acks: the report
        streams out fire-and-forget (TCP FIFO keeps this site's reports
        in exact local order).
        """
        if self._relaxed:
            self._post({"t": "uplink", "msg": encode_message(message)})
            return
        self._send({"t": "uplink", "msg": encode_message(message)})
        while True:
            reply = self._recv()
            if reply is None:
                raise ConnectionError("hub vanished while awaiting ack")
            kind = reply.get("t")
            if kind == "deliver":
                self._deliver(reply)
            elif kind == "ack":
                return
            else:
                raise ProtocolError(f"unexpected {kind!r} while awaiting ack")

    def _deliver(self, command) -> None:
        for encoded in command["msgs"]:
            self.site.on_message(decode_message(encoded))
        # deliver_done is a pure sync token for the hub's cascade walk
        self._send({"t": "deliver_done"})

    # -- command loop ------------------------------------------------------

    def run(self) -> None:
        """Serve commands until ``stop`` or connection EOF."""
        while True:
            command = self._recv()
            if command is None:
                return
            kind = command.get("t")
            try:
                if kind == "spawn":
                    self._spawn(command)
                    self._send({"t": "ok"})
                elif kind == "restore":
                    load_object_state(self.site, command["state"])
                    self._send({"t": "ok"})
                elif kind == "run":
                    chunk = decode_chunk(command["chunk"])
                    self.site.on_elements(chunk)
                    reply = {
                        "t": "run_done",
                        "n": len(chunk),
                        "space": self.site.space_words(),
                        # echoed so a relaxed hub can discard
                        # completions of an abandoned batch
                        "e": command.get("e"),
                    }
                    if command.get("w") is not None:
                        reply["w"] = command["w"]  # super-run weight echo
                    (self._post if self._relaxed else self._send)(reply)
                elif kind == "deliver":
                    self._deliver(command)
                elif kind == "snapshot":
                    self._send(
                        {"t": "state", "state": object_state(self.site)}
                    )
                elif kind == "ping":
                    self._send({"t": "pong"})
                elif kind == "stop":
                    self._send({"t": "bye"})
                    return
                else:
                    self._send(
                        {"t": "error", "error": f"unknown command {kind!r}"}
                    )
            except ConnectionError:
                return
            except Exception as exc:  # report, keep serving
                try:
                    self._send(
                        {
                            "t": "error",
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                except ConnectionError:
                    return

    def _spawn(self, command) -> None:
        scheme = decode_value(command["scheme"])
        network = _RemoteNetwork(
            self, command["k"], command.get("one_way", False)
        )
        # The dispatch mode is negotiated here: a relaxed hub tells its
        # sites to stream uplinks (no acks in either direction).
        self._relaxed = bool(command.get("relaxed", False))
        self.site = scheme.make_site(
            network, command["site_id"], command["k"], command["seed"]
        )


def _make_poster(conn, loop):
    """A fire-and-forget frame sender for ``conn`` (any thread).

    TCP connections serialize on the calling thread and hand the loop a
    plain buffered write; loopback connections hand it a ``put_nowait``.
    Either way the loop callback cannot block and the caller never
    waits.  A closed loop (shutdown race) surfaces as
    :class:`ConnectionError`, like any other dead-peer send.
    """
    encode = getattr(conn, "encode_frame_bytes", None)
    if encode is not None:
        write = conn.write_frame_nowait

        def post(obj) -> None:
            frame = encode(obj)
            try:
                loop.call_soon_threadsafe(write, frame)
            except RuntimeError as exc:  # loop already closed
                raise ConnectionError(str(exc)) from exc

        return post

    send_nowait = getattr(conn, "send_nowait", None)
    if send_nowait is None:
        return None  # exotic connection: callers fall back to send

    def post(obj) -> None:
        try:
            loop.call_soon_threadsafe(send_nowait, obj)
        except RuntimeError as exc:
            raise ConnectionError(str(exc)) from exc

    return post


class SiteHost:
    """Asyncio server hosting site actors, one per inbound connection.

    The hub opens one connection per logical site and drives it with
    ``spawn``; a single host can therefore carry any number of sites
    (all of a small cluster, or one shard of a large one).  Protocol
    execution happens on a thread per connection; the event loop only
    pumps frames, so one host serves many sites concurrently.
    """

    def __init__(self, transport, address: str):
        self.transport = transport
        self._requested_address = address
        self._listener = None

    async def start(self) -> "SiteHost":
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
        post = _make_poster(conn, asyncio.get_running_loop())

        def session(send, inbox) -> None:
            SiteWorker(send=send, recv=inbox.get, post=post).run()

        await serve_on_thread(
            conn, session, "repro-site-worker", DEFAULT_RPC_TIMEOUT
        )

    async def close(self) -> None:
        if self._listener is not None:
            await self._listener.close()
            self._listener = None


class SiteProxy:
    """The hub-side stand-in bound into the ``Network`` as site ``i``.

    ``on_message`` is invoked by the real ``Network`` at the exact
    cascade position the simulator would use; it performs a synchronous
    deliver-RPC to the remote site, so the distributed execution is the
    same depth-first walk.  Site space is not asked of a proxy: the
    hub books the value each ``run_done`` carries straight into its
    ``space`` ledger.
    """

    __slots__ = ("site_id", "hub")

    def __init__(self, site_id: int, hub: "CoordinatorHub"):
        self.site_id = site_id
        self.hub = hub

    def on_message(self, message) -> None:
        self.hub._deliver_sync(self.site_id, message)


class CoordinatorHub(ProtocolStack):
    """The coordinator actor: protocol brain plus run sequencer.

    Owns the scheme's coordinator, the authoritative ``Network`` (ledger,
    loss injection, transcript tracer — the same objects the simulator
    uses) and one transport connection per site actor.  It is the same
    :class:`~repro.runtime.simulation.ProtocolStack` a
    :class:`~repro.runtime.Simulation` is, with a :class:`SiteProxy` in
    each site's place, so equal seeds produce identical protocol
    randomness.

    The protocol core is synchronous and runs on an executor thread
    behind the async public methods; asyncio pump tasks feed one
    thread-safe inbox per site connection.

    ``relaxed=True`` requires a one-way scheme (``one_way_capable``);
    a two-way scheme is refused with :class:`ValueError` before any
    connection exists (``docs/relaxed-mode.md``).
    """

    def __init__(
        self,
        scheme,
        num_sites: int,
        seed: int = 0,
        one_way: bool = False,
        uplink_drop_rate: float = 0.0,
        record_transcript: bool = True,
        relaxed: bool = False,
        window: Optional[int] = None,
        per_site_depth: Optional[int] = None,
    ):
        if relaxed and not scheme.one_way_capable:
            raise ValueError(
                f"relaxed dispatch runs one-way schemes only; "
                f"{scheme.name!r} is two-way (its coordinator answers "
                "sites), so run it in lockstep or on the sharded facade"
            )
        self.recorder: Optional[TranscriptRecorder] = (
            TranscriptRecorder() if record_transcript else None
        )
        super().__init__(
            scheme, num_sites, seed, one_way, uplink_drop_rate,
            tracer=self.recorder,
            make_site=lambda site_id: SiteProxy(site_id, self),
        )
        self.seed = seed
        self.one_way = one_way
        self.uplink_drop_rate = uplink_drop_rate
        self.relaxed = bool(relaxed)
        # Relaxed dispatch's only bookkeeping: runs posted to each site
        # and not yet completed, under the in-flight credit bounds
        # (None: unbounded).  ``window`` counts original runs
        # (super-run weights); its value also sets the coalescing group
        # size, so windowed relaxed is per-site transcript-identical to
        # unbounded relaxed.
        self.ledger = CreditWindow(
            num_sites,
            relaxed=relaxed,
            window=window,
            per_site_depth=per_site_depth,
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._conns: List = [None] * num_sites
        # One shared inbox of (site_id, frame): per-site FIFO is
        # preserved by each pump, and the relaxed dispatcher needs to
        # react to whichever site speaks first.
        self._inbox: queue.Queue = queue.Queue()
        self._pumps: List = [None] * num_sites
        self._dead = set()
        self._collected_n = 0
        # Uplinks that arrived while the hub was engaged with another
        # site (a close or snapshot after a failed relaxed batch); they
        # run next, in arrival order.
        self._pending_uplinks: deque = deque()
        # Each relaxed batch gets an epoch, echoed by run_done frames:
        # after a failed batch (cleared ledger, runs still in flight) a
        # stale completion must not be booked against the next batch.
        self._run_epoch = 0
        # Fire-and-forget senders (one per connection, built at
        # connect time).
        self._posters: List = [None] * num_sites

    # -- wiring ------------------------------------------------------------

    async def connect_sites(
        self, transport, addresses, restore_states=None
    ) -> None:
        """Connect and spawn every site actor (round-robin over hosts).

        ``addresses`` is one or more site-host addresses; site ``i``
        lands on ``addresses[i % len(addresses)]``.  With
        ``restore_states`` the spawned sites are immediately merged from
        the given snapshots (cluster recovery).
        """
        if isinstance(addresses, str):
            addresses = [addresses]
        if not addresses:
            raise ValueError("need at least one site-host address")
        self._loop = asyncio.get_running_loop()
        for site_id in range(self.num_sites):
            conn = await transport.connect(addresses[site_id % len(addresses)])
            self._conns[site_id] = conn
            self._posters[site_id] = _make_poster(conn, self._loop)
            self._pumps[site_id] = asyncio.ensure_future(
                self._pump(site_id, conn)
            )
        await self._loop.run_in_executor(
            None, self._spawn_all_sync, restore_states
        )

    async def _pump(self, site_id: int, conn) -> None:
        """Feed one connection's frames into the shared, tagged inbox."""
        try:
            while True:
                message = await conn.recv()
                self._inbox.put((site_id, message))
                if message is None:
                    return
        except Exception:
            self._inbox.put((site_id, None))

    def _spawn_all_sync(self, restore_states) -> None:
        for site_id in range(self.num_sites):
            self._send_sync(
                site_id,
                {
                    "t": "spawn",
                    "scheme": encode_value(self.scheme),
                    "site_id": site_id,
                    "k": self.num_sites,
                    "seed": self.seed,
                    "one_way": self.one_way,
                    # negotiate the dispatch mode: relaxed sites send
                    # uplinks without awaiting acks (see SiteWorker)
                    "relaxed": self.relaxed,
                },
            )
            self._expect_sync(site_id, "ok")
            if restore_states is not None:
                self._send_sync(
                    site_id,
                    {"t": "restore", "state": restore_states[site_id]},
                )
                self._expect_sync(site_id, "ok")

    # -- sync plumbing (executor thread) -----------------------------------

    def _send_sync(self, site_id: int, obj) -> None:
        conn = self._conns[site_id]
        if conn is None or site_id in self._dead:
            raise SiteUnavailableError(f"site {site_id} is down")
        future = asyncio.run_coroutine_threadsafe(conn.send(obj), self._loop)
        try:
            future.result(DEFAULT_RPC_TIMEOUT)
        except NetError:
            raise
        except Exception as exc:
            self._dead.add(site_id)
            raise SiteUnavailableError(
                f"site {site_id} send failed: {exc}"
            ) from exc

    def _post_fast(self, site_id: int, obj) -> None:
        """Fire-and-forget send (relaxed hot path): serialize on this
        thread, hand the loop one buffered write, never wait.  Falls
        back to the blocking send for connections without a poster."""
        if self._conns[site_id] is None or site_id in self._dead:
            raise SiteUnavailableError(f"site {site_id} is down")
        poster = self._posters[site_id]
        if poster is None:
            self._send_sync(site_id, obj)
            return
        try:
            poster(obj)
        except NetError:
            raise
        except Exception as exc:
            self._dead.add(site_id)
            raise SiteUnavailableError(
                f"site {site_id} send failed: {exc}"
            ) from exc

    def _recv_sync(self, site_id: int) -> dict:
        """Next frame from ``site_id``, servicing whatever else arrives.

        In lockstep only the engaged site may speak (anything else is a
        protocol violation — except a connection EOF, which just marks
        the sender dead).  In relaxed mode every ``uplink`` and
        ``run_done`` is a leftover of the overlap, the engaged site's
        included — relaxed callers only ever wait for control replies —
        so they go to :meth:`_service_out_of_band`.
        """
        deadline = time.monotonic() + DEFAULT_RPC_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise SiteUnavailableError(
                    f"site {site_id} did not respond within "
                    f"{DEFAULT_RPC_TIMEOUT}s"
                )
            try:
                sender, message = self._inbox.get(timeout=remaining)
            except queue.Empty:
                raise SiteUnavailableError(
                    f"site {site_id} did not respond within "
                    f"{DEFAULT_RPC_TIMEOUT}s"
                ) from None
            if message is None:
                self._dead.add(sender)
                if sender == site_id:
                    raise SiteUnavailableError(
                        f"site {site_id} closed the connection"
                    )
                continue
            if message.get("t") == "error":
                raise RemoteActorError(
                    f"site {sender}: {message.get('error')}"
                )
            if sender == site_id and not (
                self.relaxed and message.get("t") in ("uplink", "run_done")
            ):
                return message
            self._service_out_of_band(sender, message, site_id)

    def _service_out_of_band(self, sender: int, message: dict,
                             engaged: int) -> None:
        """A frame that does not answer what we are waiting on.

        Relaxed mode only, where the frames of a failed batch can still
        be in flight while a close or snapshot engages one site at a
        time — the engaged site's own included: ``run_done`` completes
        a posted run immediately (a stale epoch drops it); an
        ``uplink`` is deferred and runs, in arrival order, at the next
        collection (see :meth:`_collect_outstanding`).
        """
        kind = message.get("t")
        if self.relaxed:
            if kind == "uplink":
                self._pending_uplinks.append((sender, message))
                return
            if kind == "run_done":
                self._note_run_done(sender, message)
                return
        raise ProtocolError(
            f"site {sender}: unexpected {kind!r} frame while engaging "
            f"site {engaged}"
        )

    def _expect_sync(self, site_id: int, kind: str) -> dict:
        message = self._recv_sync(site_id)
        got = message.get("t")
        if got != kind:
            raise ProtocolError(
                f"site {site_id}: expected {kind!r}, got {got!r}"
            )
        return message

    def _deliver_sync(self, site_id: int, message) -> None:
        """One coordinator->site message, delivered at cascade position
        (lockstep only).

        Invoked (via :class:`SiteProxy`) from inside the ``Network``'s
        synchronous delivery — possibly nested under an uplink that is
        itself nested under a deliver.  Uplinks the remote handler emits
        while applying are processed inline, recursing into the
        coordinator exactly like the simulator's re-entrant network.
        A coordinator that answers under relaxed dispatch broke its
        scheme's ``one_way_capable`` declaration.
        """
        if self.relaxed:
            raise ProtocolError(
                f"{self.scheme.name!r} coordinator answered site {site_id} "
                "under relaxed dispatch, which runs one-way schemes only"
            )
        self._send_sync(
            site_id, {"t": "deliver", "msgs": [encode_message(message)]}
        )
        while True:
            reply = self._recv_sync(site_id)
            kind = reply.get("t")
            if kind == "uplink":
                self._uplink_sync(site_id, reply)
            elif kind == "deliver_done":
                return
            else:
                raise ProtocolError(
                    f"site {site_id}: unexpected {kind!r} during deliver"
                )

    def _uplink_sync(self, site_id: int, frame: dict) -> None:
        """Route one uplink through the real network, then release.

        The ack is a pure transport sync token — it never touches the
        ``Network`` ledger.  Lockstep needs it (the site blocks until
        the cascade finished, which is what makes transcripts
        byte-identical); relaxed sites stream without waiting, so the
        hub sends no ack at all and every uplink costs one frame
        instead of two.
        """
        self.network.send_to_coordinator(
            site_id, decode_message(frame["msg"])
        )
        if self.relaxed:
            return  # streaming sites do not wait; no ack at all
        self._send_sync(site_id, {"t": "ack"})

    def _run_sync(self, site_id: int, chunk) -> int:
        if site_id in self._dead or self._conns[site_id] is None:
            raise SiteUnavailableError(f"site {site_id} is down")
        self._send_sync(site_id, {"t": "run", "chunk": encode_chunk(chunk)})
        while True:
            message = self._recv_sync(site_id)
            kind = message.get("t")
            if kind == "uplink":
                self._uplink_sync(site_id, message)
            elif kind == "run_done":
                self.space.record_site(site_id, message["space"])
                return message["n"]
            else:
                raise ProtocolError(
                    f"site {site_id}: unexpected {kind!r} during run"
                )

    def _post_run(self, site_id: int, chunk, weight: int = 1) -> None:
        """Relaxed mode: post one (super-)run fire-and-forget.

        ``weight`` is the number of original runs the chunk carries —
        the unit in-flight credit is accounted in.  While the post
        would exceed a credit, inbound completions/messages are
        serviced first, so memory stays flat on huge batches.
        """
        self.ledger.admit(site_id, weight, self._service_one)
        frame = {
            "t": "run",
            "chunk": encode_chunk(chunk),
            "e": self._run_epoch,
        }
        if weight != 1:
            frame["w"] = weight
        self._post_fast(site_id, frame)
        self.ledger.post(site_id, weight)

    def _note_run_done(self, site_id: int, message: dict) -> None:
        """Account one completed run (relaxed mode).

        A frame from an earlier epoch is a leftover of a batch whose
        dispatch failed (its ledger was cleared with runs in flight);
        booking it here would inflate the current batch's element count
        and complete a run the current batch never posted, so it is
        dropped entirely.
        """
        if message.get("e") != self._run_epoch:
            return
        if self.ledger.pending(site_id):
            self.ledger.complete(site_id)
        self._collected_n += message["n"]
        self.space.record_site(site_id, message["space"])

    def _service_one(self) -> None:
        """Service exactly one pending protocol event (relaxed mode).

        A deferred uplink runs first (it arrived while another site was
        engaged); otherwise the next inbound frame is
        taken from the shared inbox.  This is both the collect loop's
        body and what the ledger's admit loop calls while waiting for
        in-flight credit — the one place relaxed dispatch picks what to
        do next."""
        if self._pending_uplinks:
            sender, frame = self._pending_uplinks.popleft()
            self._uplink_sync(sender, frame)
            return
        try:
            sender, message = self._inbox.get(timeout=DEFAULT_RPC_TIMEOUT)
        except queue.Empty:
            waiting = [
                s for s in range(self.num_sites) if self.ledger.pending(s)
            ]
            raise SiteUnavailableError(
                f"sites {waiting} did not finish their runs within "
                f"{DEFAULT_RPC_TIMEOUT}s"
            ) from None
        if message is None:
            self._dead.add(sender)
            if self.ledger.pending(sender):
                raise SiteUnavailableError(
                    f"site {sender} closed the connection mid-run"
                )
            return
        kind = message.get("t")
        if kind == "error":
            raise RemoteActorError(
                f"site {sender}: {message.get('error')}"
            )
        if kind == "uplink":
            self._uplink_sync(sender, message)
        elif kind == "run_done":
            self._note_run_done(sender, message)
        else:
            raise ProtocolError(
                f"site {sender}: unexpected {kind!r} frame during "
                "relaxed collection"
            )

    def _collect_outstanding(self) -> int:
        """Relaxed mode: wait out every posted run, applying the
        uplinks the overlap produces in arrival order.

        Uplinks deferred while a snapshot or close engaged one site
        (see :meth:`_service_out_of_band`) run first, in arrival order,
        even when the batch posted no run."""
        while len(self.ledger) > 0 or self._pending_uplinks:
            self._service_one()
        return self._collected_n

    def _ingest_sync(self, site_ids, items) -> int:
        runs = decompose_runs(site_ids, items)
        if self.relaxed:
            self._run_epoch += 1
            self._collected_n = 0
            # Coalesce per site within each window of original runs:
            # one frame and one vectorized apply per site per window,
            # with per-site order — the relaxed contract — untouched.
            super_runs = coalesce_runs(runs, window=self.ledger.window)
            try:
                for site_id, chunk, weight in super_runs:
                    self._post_run(site_id, chunk, weight)
                total = self._collect_outstanding()
            except BaseException:
                # A failed overlapped batch leaves runs in flight; they
                # must not poison the next dispatch.
                self.ledger.clear()
                self._pending_uplinks.clear()
                raise
        else:
            # One run at a time, in global arrival order, each fully
            # applied — cascade included — before the next is sent: the
            # transcript-exact mode.
            total = 0
            for site_id, chunk in runs:
                total += self._run_sync(site_id, chunk)
        self.elements_processed += total
        self.space.record_coordinator(self.coordinator.space_words())
        return total

    def _snapshot_sync(self) -> dict:
        sites = []
        for site_id in range(self.num_sites):
            if site_id in self._dead or self._conns[site_id] is None:
                raise SiteUnavailableError(
                    f"cannot snapshot: site {site_id} is down"
                )
            self._send_sync(site_id, {"t": "snapshot"})
            sites.append(self._expect_sync(site_id, "state")["state"])
        encoder = StateEncoder()
        return {
            "format": "repro-cluster",
            "config": {
                "scheme": encode_value(self.scheme),
                "num_sites": self.num_sites,
                "seed": self.seed,
                "one_way": self.one_way,
                "uplink_drop_rate": self.uplink_drop_rate,
            },
            "elements_processed": self.elements_processed,
            "wal_seq": -1,  # stamped by the cluster facade
            "coordinator": encoder.encode(self.coordinator),
            "network": encoder.encode(self.network),
            "space": encoder.encode(self.space),
            "sites": sites,
        }

    def _close_sync(self) -> None:
        for site_id in range(self.num_sites):
            if self._conns[site_id] is None or site_id in self._dead:
                continue
            try:
                self._send_sync(site_id, {"t": "stop"})
                self._expect_sync(site_id, "bye")
            except NetError:
                pass

    # -- async public surface ----------------------------------------------

    async def ingest(self, site_ids, items=None) -> int:
        """Drive one ordered event batch through the cluster.

        The batch is decomposed into per-site runs exactly like
        ``Simulation.run_batched`` and dispatched in lockstep.
        """
        return await self._loop.run_in_executor(
            None, self._ingest_sync, site_ids, items
        )

    async def query(self, method: Optional[str] = None, *args, **kwargs):
        """Run a coordinator query (same resolution rules as a job)."""
        return resolve_query(self.coordinator, method)(*args, **kwargs)

    async def snapshot_state(self) -> dict:
        """Collect a full-cluster state bundle (hub + every site actor).

        Hub-side components share one codec scope (like a job snapshot);
        each site's state is encoded in its own actor, which is also why
        cross-actor RNG sharing cannot exist in this runtime.
        """
        return await self._loop.run_in_executor(None, self._snapshot_sync)

    def load_hub_state(self, state: dict) -> None:
        """Merge the hub-side half of a snapshot bundle (one scope)."""
        decoder = StateDecoder()
        decoder.merge(self.coordinator, state["coordinator"])
        decoder.merge(self.network, state["network"])
        self.space = decoder.merge(self.space, state["space"])
        self.elements_processed = state["elements_processed"]

    @property
    def dispatch_mode(self) -> str:
        """``lockstep``, ``relaxed`` (unbounded) or ``windowed``."""
        return self.ledger.mode

    def dispatch_stats(self) -> dict:
        """Dispatch-plane telemetry: the ledger's plain counters (see
        :meth:`~repro.exec.dispatch.CreditWindow.stats`)."""
        return self.ledger.stats()

    # -- failure injection and shutdown -----------------------------------

    async def kill_site(self, site_id: int) -> None:
        """Abruptly drop a site actor (failure injection)."""
        self._dead.add(site_id)
        conn = self._conns[site_id]
        if conn is not None:
            await conn.close()

    async def close(self) -> None:
        if self._loop is not None:
            await self._loop.run_in_executor(None, self._close_sync)
        for site_id, conn in enumerate(self._conns):
            if conn is not None:
                await conn.close()
            self._conns[site_id] = None
        for pump in self._pumps:
            if pump is not None and not pump.done():
                pump.cancel()

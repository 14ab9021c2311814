"""The cluster facade: one distributed protocol run, driven synchronously.

A :class:`Cluster` is the distributed counterpart of
:class:`~repro.runtime.Simulation`: it stands up a coordinator hub and
``k`` site actors (self-hosted on a loopback or TCP transport, or placed
on already-running ``repro site`` hosts), and exposes the familiar
synchronous surface — ``ingest``/``run``/``query`` — by
pumping an asyncio event loop on a background thread.

Durability mirrors the tracking service exactly, built on the PR-2
recovery machinery: with ``checkpoint_dir`` every ingested batch is
written ahead to the shared :class:`~repro.persistence.WriteAheadLog`,
``checkpoint()`` gathers actor snapshots into one bundle saved through
the :class:`~repro.persistence.CheckpointManager`, and
:meth:`Cluster.restore` rebuilds the actors from the newest bundle and
replays the WAL tail *through the distributed runtime itself* — so a
cluster that lost a site actor mid-stream recovers to query answers
identical to a run that never failed.
"""

from __future__ import annotations

from typing import Optional

from ..persistence.codec import decode_value
from ..persistence.recovery import CheckpointManager
from ..persistence.snapshot import latest_snapshot
from ..persistence.wal import REC_BATCH
from ..runtime.batching import batch_from_stream, batches_from_stream
from .actors import CoordinatorHub, NetError, SiteHost
from .transport import LoopbackTransport, LoopThread, TcpTransport

__all__ = ["Cluster", "restore_cluster"]


def _make_transport(kind: str):
    if kind == "loopback":
        return LoopbackTransport()
    if kind == "tcp":
        return TcpTransport()
    raise ValueError(f"unknown transport {kind!r} (loopback or tcp)")


class Cluster:
    """Run one tracking scheme as real actors; drive it like a simulation.

    Parameters
    ----------
    scheme:
        The protocol factory, as for :class:`~repro.runtime.Simulation`.
    num_sites / seed / one_way / uplink_drop_rate:
        Exactly the simulator's knobs; same seed => same transcript.
    transport:
        ``"loopback"`` (in-process queues) or ``"tcp"`` (framed TCP over
        localhost for self-hosted sites).
    site_addresses:
        Addresses of already-running site hosts (``repro site``); None
        self-hosts every site in this process over ``transport``.
    checkpoint_dir:
        Arm durability: batches are WAL'd ahead of dispatch and
        :meth:`checkpoint` persists full cluster bundles; recover with
        :meth:`Cluster.restore`.
    record_transcript:
        Keep a :class:`~repro.runtime.TranscriptRecorder` on the hub's
        network — the equivalence oracle, on by default.  The recorder
        holds every protocol message in memory for the cluster's
        lifetime; pass False for long-running or unbounded streams
        (checkpoints, ledgers and queries do not need it).
    relaxed:
        Pipelined dispatch for one-way schemes (``one_way_capable``:
        deterministic count, windowed count, the one-way threshold
        trackers); any other scheme is a :class:`ValueError`, raised
        before a thread or socket starts.  Each site's runs are
        coalesced into columnar super-runs and posted up front, sites
        stream their reports without per-message acks, and the
        coordinator applies them in arrival order.  Per-site streams
        stay exact, so answers and message counts equal lockstep's.
        The default — lockstep — pays one round trip per run and is
        byte-identical to :class:`~repro.runtime.Simulation` for every
        scheme (see ``docs/relaxed-mode.md``).
    window / per_site_depth:
        Relaxed-mode in-flight bounds (``docs/relaxed-mode.md`` →
        "Windowing"): at most ``window`` original runs in flight in
        total and ``per_site_depth`` super-run frames per site.  None
        (default) leaves the dimension unbounded.  Either without
        ``relaxed=True`` is a :class:`ValueError`.
    """

    def __init__(
        self,
        scheme,
        num_sites: int,
        seed: int = 0,
        one_way: bool = False,
        uplink_drop_rate: float = 0.0,
        transport: str = "loopback",
        site_addresses=None,
        checkpoint_dir: Optional[str] = None,
        wal_sync: bool = False,
        record_transcript: bool = True,
        relaxed: bool = False,
        window: Optional[int] = None,
        per_site_depth: Optional[int] = None,
        _restore_state: Optional[dict] = None,
    ):
        self.transport_kind = transport
        self.relaxed = bool(relaxed)
        self._host: Optional[SiteHost] = None
        self._manager: Optional[CheckpointManager] = None
        self._wal = None
        self._wal_seq = -1
        self._replaying = False
        # built first: it refuses a bad configuration before the loop
        # thread starts
        self.hub = CoordinatorHub(
            scheme,
            num_sites,
            seed=seed,
            one_way=one_way,
            uplink_drop_rate=uplink_drop_rate,
            record_transcript=record_transcript,
            relaxed=relaxed,
            window=window,
            per_site_depth=per_site_depth,
        )
        self._loop = LoopThread("repro-cluster-loop")
        try:
            self._loop.call(self._start(site_addresses, _restore_state))
            if checkpoint_dir is not None:
                manager = CheckpointManager(checkpoint_dir, sync=wal_sync)
                if manager.has_data():
                    manager.close()
                    raise ValueError(
                        f"checkpoint dir {checkpoint_dir!r} already holds "
                        "state; resume it with Cluster.restore(...)"
                    )
                self._attach_checkpoints(manager)
                self.checkpoint()
        except BaseException:
            self._loop.close()
            raise

    async def _start(self, site_addresses, restore_state) -> None:
        transport = _make_transport(self.transport_kind)
        self._transport = transport
        if site_addresses is None:
            # Self-host every site actor in this process.  One host
            # serves all k logical sites (one connection each).
            address = (
                "sites" if self.transport_kind == "loopback" else "127.0.0.1:0"
            )
            self._host = await SiteHost(transport, address).start()
            site_addresses = [self._host.address]
        restore_sites = None
        if restore_state is not None:
            restore_sites = restore_state["sites"]
        await self.hub.connect_sites(
            transport, site_addresses, restore_states=restore_sites
        )
        if restore_state is not None:
            self.hub.load_hub_state(restore_state)

    # -- driving -----------------------------------------------------------

    def ingest(self, site_ids, items=None) -> int:
        """Dispatch one ordered event batch through the actors.

        With durability armed the batch is logged before any actor sees
        it, and the record is rolled back if dispatch fails — whether
        the batch was poisoned (bad site id, hostile item) or a site
        actor died mid-dispatch.  An ingest that raised is therefore
        *not* durable: re-send it after recovery.  (The half-dispatched
        batch's effects live only in the failed cluster's memory;
        :meth:`restore` rebuilds from the checkpoint plus fully-applied
        batches, so the ledger stays consistent.)
        """
        if self._wal is not None and not self._replaying:
            self._wal_seq = self._wal.append_batch(site_ids, items)
        try:
            return self._loop.call(self.hub.ingest(site_ids, items))
        except BaseException:
            if self._wal is not None and not self._replaying:
                self._wal.rollback_last()
                self._wal_seq -= 1
            raise

    def run(self, stream, batch_size: int = 8192) -> int:
        """Drain an iterable of ``(site_id, item)`` pairs in batches."""
        return sum(
            self.ingest(site_ids, items)
            for site_ids, items in batches_from_stream(stream, batch_size)
        )

    # -- results -----------------------------------------------------------

    def query(self, method: Optional[str] = None, *args, **kwargs):
        """Run a coordinator query (``None`` = the default query)."""
        return self._loop.call(self.hub.query(method, *args, **kwargs))

    @property
    def comm(self):
        """The hub's communication ledger (:class:`CommStats`)."""
        return self.hub.comm

    @property
    def wire_stats(self):
        """Framed byte/frame counters of a TCP transport (None for
        loopback, which ships objects without serialization)."""
        transport = getattr(self, "_transport", None)
        return getattr(transport, "stats", None)

    @property
    def elements_processed(self) -> int:
        return self.hub.elements_processed

    def transcript_bytes(self) -> bytes:
        """The canonical transcript (see :class:`TranscriptRecorder`)."""
        if self.hub.recorder is None:
            raise RuntimeError("cluster was started with record_transcript=False")
        return self.hub.recorder.to_bytes()

    @property
    def dispatch_mode(self) -> str:
        """``"lockstep"``, ``"relaxed"`` or ``"windowed"``."""
        return self.hub.dispatch_mode

    def dispatch_stats(self) -> dict:
        """Hot-path dispatch counters (frames, coalescing, in-flight
        peaks, window stalls) — see :meth:`CoordinatorHub.dispatch_stats`."""
        return self.hub.dispatch_stats()

    # -- durability --------------------------------------------------------

    def checkpoint(self) -> str:
        """Persist a full cluster bundle; prunes covered WAL segments."""
        if self._manager is None:
            raise RuntimeError(
                "no checkpoint_dir configured; pass checkpoint_dir= to Cluster"
            )
        state = self._loop.call(self.hub.snapshot_state())
        state["wal_seq"] = self._wal_seq
        return self._manager.save_state(state)

    def _attach_checkpoints(self, manager: CheckpointManager) -> None:
        self._manager = manager
        self._wal = manager.wal

    @classmethod
    def restore(
        cls,
        checkpoint_dir: str,
        transport: str = "loopback",
        site_addresses=None,
        wal_sync: bool = False,
    ) -> "Cluster":
        """Rebuild a cluster from its checkpoint directory.

        Loads the newest bundle, restores hub and site actors from it,
        replays the WAL tail through the distributed runtime, and
        resumes durable logging to the same directory.  Final query
        answers match a cluster that never failed.
        """
        return restore_cluster(
            checkpoint_dir,
            transport=transport,
            site_addresses=site_addresses,
            wal_sync=wal_sync,
        )

    # -- failure injection -------------------------------------------------

    def kill_site(self, site_id: int) -> None:
        """Abruptly kill one site actor; later runs to it raise
        :class:`SiteUnavailableError` until the cluster is restored."""
        self._loop.call(self.hub.kill_site(site_id))

    # -- shutdown ----------------------------------------------------------

    def close(self) -> None:
        """Stop actors, close transports, release the WAL handle."""
        if self._loop.closed:
            return
        try:
            self._loop.call(self.hub.close())
            if self._host is not None:
                self._loop.call(self._host.close())
        except (NetError, ConnectionError, RuntimeError):
            pass
        finally:
            self._loop.close()
            if self._manager is not None:
                self._manager.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self) -> str:
        return (
            f"Cluster(scheme={self.hub.scheme.name!r}, "
            f"k={self.hub.num_sites}, transport={self.transport_kind!r}, "
            f"elements={self.elements_processed})"
        )

    # Re-exported for callers building batches from generators.
    batch_from_stream = staticmethod(batch_from_stream)


def restore_cluster(
    checkpoint_dir: str,
    transport: str = "loopback",
    site_addresses=None,
    wal_sync: bool = False,
) -> Cluster:
    """Recover a :class:`Cluster` from disk (newest bundle + WAL tail)."""
    state = latest_snapshot(checkpoint_dir)
    if state is None:
        raise FileNotFoundError(
            f"no snapshot under {checkpoint_dir!r}; nothing to restore"
        )
    if state.get("format") != "repro-cluster":
        raise ValueError(
            f"{checkpoint_dir!r} holds a tracking-service checkpoint; "
            "restore it with ShardedTrackingService.restore(...) or "
            "`repro restore`"
        )
    config = state["config"]
    cluster = Cluster(
        decode_value(config["scheme"]),
        config["num_sites"],
        seed=config["seed"],
        one_way=config["one_way"],
        uplink_drop_rate=config["uplink_drop_rate"],
        transport=transport,
        site_addresses=site_addresses,
        _restore_state=state,
    )
    manager = CheckpointManager(checkpoint_dir, sync=wal_sync)
    after_seq = state.get("wal_seq", -1)
    manager.wal.ensure_seq_floor(after_seq)
    cluster._attach_checkpoints(manager)
    cluster._wal_seq = after_seq
    cluster._replaying = True
    try:
        for record in manager.wal.records(after_seq):
            if record[0] == REC_BATCH:
                _, seq, site_ids, items = record
                cluster.ingest(site_ids, items)
                cluster._wal_seq = seq
    finally:
        cluster._replaying = False
    return cluster

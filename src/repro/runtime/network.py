"""The communication channel between the coordinator and the sites.

The network delivers messages synchronously (the paper assumes instant
communication: "no element will arrive until all parties have decided not
to send more messages"), and charges every message to a :class:`CommStats`
ledger.  It can be restricted to one-way (site -> coordinator) traffic to
reproduce the Theorem 2.2 setting.

Fault injection: ``uplink_drop_rate`` silently discards that fraction of
site-to-coordinator messages *after* charging them (the sender paid for
the send; the network lost it).  The paper assumes reliable channels —
this knob exists to study robustness: protocols in this library report
absolute values (counter snapshots), so dropped reports are repaired by
the next report, while shipped summaries (rank) lose their mass.
"""

from __future__ import annotations

import random

from ..persistence.codec import PersistableState
from .metrics import CommStats
from .protocol import BROADCAST, DOWNLINK, UPLINK, Message

__all__ = ["Network", "OneWayViolation", "HorizonViolation"]

_MAX_DEPTH = 10_000


class OneWayViolation(RuntimeError):
    """Raised when a coordinator tries to talk on a one-way network."""


class HorizonViolation(RuntimeError):
    """Raised when a coordinator talks back while a quiet stretch's held
    uplinks are replayed: a site overstated its ``quiet_horizon()``."""


class Network(PersistableState):
    """Routes messages between one coordinator and ``k`` sites.

    Delivery is synchronous and re-entrant: a message handler may itself
    send messages, which are delivered before the original call returns.
    A depth guard catches accidental infinite chatter.

    The one exception is a *quiet stretch* of the batch driver: between
    :meth:`hold_uplinks` and :meth:`replay_uplinks` every uplink is kept,
    stamped with its sender's ``n_local``, and nothing is charged or
    delivered; the replay then routes them through
    :meth:`send_to_coordinator` in the order the driver gives, so ledger,
    mirrors, tracer, loss draws and coordinator see the sequence live
    delivery would have produced.

    ``state_dict()`` snapshots the ledger, drop counters and the loss
    RNG stream; loading it into a freshly bound network resumes
    identical accounting and identical fault-injection decisions.
    """

    #: wiring, mirrors and tracers are rebuilt by bind()/attach_mirror()/
    #: set_tracer(); between batches (snapshot points) the delivery depth
    #: is 0 and no stretch is open
    _persist_transient_ = (
        "_coordinator",
        "_sites",
        "_mirrors",
        "_depth",
        "_tracer",
        "_held",
        "_replaying",
    )

    def __init__(
        self,
        num_sites: int,
        one_way: bool = False,
        uplink_drop_rate: float = 0.0,
        drop_seed: int = 0,
    ):
        if num_sites < 1:
            raise ValueError("need at least one site")
        if not 0.0 <= uplink_drop_rate < 1.0:
            raise ValueError("uplink_drop_rate must be in [0, 1)")
        self.num_sites = num_sites
        self.one_way = one_way
        self.uplink_drop_rate = uplink_drop_rate
        self.dropped_uplink_messages = 0
        self._drop_rng = random.Random(drop_seed)
        self.stats = CommStats()
        self._mirrors = []
        self._coordinator = None
        self._sites = {}
        self._depth = 0
        self._tracer = None
        self._held = None  # the open stretch's uplinks, else None
        self._replaying = None  # the scheme whose uplinks are replayed

    # -- wiring ----------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Observe every send: ``tracer(direction, site_id, message)``.

        ``direction`` is :data:`~repro.runtime.protocol.UPLINK`,
        :data:`~repro.runtime.protocol.DOWNLINK` or
        :data:`~repro.runtime.protocol.BROADCAST` (``site_id`` is None
        for broadcasts).  Uplinks are traced before the loss knob rolls,
        matching the ledger (the sender paid for the send either way).
        One tracer per network; pass None to detach.
        """
        self._tracer = tracer

    def attach_mirror(self, stats: CommStats) -> None:
        """Mirror every charge into an extra ledger (multiplexing hook).

        A :class:`~repro.service.TrackingService` runs one logical network
        per job over a shared fleet; mirroring lets each job keep its own
        ledger while the service aggregates fleet-wide totals.
        """
        self._mirrors.append(stats)

    def bind(self, coordinator, sites) -> None:
        """Attach the coordinator and the site list after construction."""
        if len(sites) != self.num_sites:
            raise ValueError(
                f"expected {self.num_sites} sites, got {len(sites)}"
            )
        self._coordinator = coordinator
        self._sites = {site.site_id: site for site in sites}
        if len(self._sites) != self.num_sites:
            raise ValueError("duplicate site ids")

    # -- delivery --------------------------------------------------------

    def _enter(self):
        self._depth += 1
        if self._depth > _MAX_DEPTH:
            raise RuntimeError("message recursion too deep; protocol loop?")

    def _exit(self):
        self._depth -= 1

    def hold_uplinks(self) -> None:
        """Open a quiet stretch: until :meth:`replay_uplinks`, uplinks
        are kept as ``(sender's n_local, site_id, message)`` instead of
        being charged and delivered."""
        self._held = []

    def replay_uplinks(self, position, scheme: str) -> None:
        """Close the stretch: deliver the held uplinks in the order of
        ``position(n_local stamp, site_id)``, the arrival position of
        the element that caused each (stable, so one element's sends
        keep their order).  The sites ran ahead on the promise that none
        of these is answered; a downlink or broadcast now raises
        :class:`HorizonViolation` naming ``scheme``."""
        held, self._held = self._held, None
        held.sort(key=lambda entry: position(entry[0], entry[1]))
        self._replaying = scheme
        try:
            for _, site_id, message in held:
                self.send_to_coordinator(site_id, message)
        finally:
            self._replaying = None

    def _refuse_if_replaying(self, what: str) -> None:
        if self._replaying is not None:
            raise HorizonViolation(
                f"{self._replaying}: coordinator {what} in answer to an "
                "uplink held during a quiet stretch; a site overstated "
                "its quiet_horizon()"
            )

    def send_to_coordinator(self, site_id: int, message: Message) -> None:
        """Deliver a site's message to the coordinator (uplink)."""
        if self._held is not None:
            self._held.append((self._sites[site_id].n_local, site_id, message))
            return
        # Ledger bookkeeping is inlined (not record_uplink) because this
        # runs once per protocol message on the ingestion hot path.
        words = message.words
        stats = self.stats
        stats.uplink_messages += 1
        stats.uplink_words += words
        for mirror in self._mirrors:
            mirror.uplink_messages += 1
            mirror.uplink_words += words
        if self._tracer is not None:
            self._tracer(UPLINK, site_id, message)
        if (
            self.uplink_drop_rate > 0.0
            and self._drop_rng.random() < self.uplink_drop_rate
        ):
            self.dropped_uplink_messages += 1
            return
        depth = self._depth + 1
        if depth > _MAX_DEPTH:
            raise RuntimeError("message recursion too deep; protocol loop?")
        self._depth = depth
        try:
            self._coordinator.on_message(site_id, message)
        finally:
            self._depth = depth - 1

    def send_to_site(self, site_id: int, message: Message) -> None:
        """Deliver a coordinator message to one site (downlink)."""
        if self.one_way:
            raise OneWayViolation("downlink disabled on a one-way network")
        self._refuse_if_replaying("downlink")
        self.stats.record_downlink(message.words)
        for mirror in self._mirrors:
            mirror.record_downlink(message.words)
        if self._tracer is not None:
            self._tracer(DOWNLINK, site_id, message)
        self._enter()
        try:
            self._sites[site_id].on_message(message)
        finally:
            self._exit()

    def broadcast(self, message: Message) -> None:
        """Deliver a coordinator message to every site; costs k messages."""
        if self.one_way:
            raise OneWayViolation("broadcast disabled on a one-way network")
        self._refuse_if_replaying("broadcast")
        self.stats.record_broadcast(message.words, self.num_sites)
        for mirror in self._mirrors:
            mirror.record_broadcast(message.words, self.num_sites)
        if self._tracer is not None:
            self._tracer(BROADCAST, None, message)
        self._enter()
        try:
            for site_id in sorted(self._sites):
                self._sites[site_id].on_message(message)
        finally:
            self._exit()

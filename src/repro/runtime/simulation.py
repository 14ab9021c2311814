"""Simulation driver: feeds a stream of (site, item) events to a scheme.

The driver owns the network, instantiates the scheme, and exposes the
coordinator's query interface together with the communication and space
ledgers.  Space is sampled every ``space_sample_interval`` events (exact
high-water marks would require sampling after every message; the interval
is a measurement cost knob, not a protocol knob).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..exec.dispatch import drive_batch
from .batching import SiteBatch
from .metrics import SpaceStats
from .network import Network
from .scheme import TrackingScheme

__all__ = ["ProtocolStack", "Simulation"]


class ProtocolStack:
    """One scheme instantiated over one network.

    The network (ledger and loss stream, seeded from ``seed``), the
    scheme's coordinator, its ``num_sites`` sites, all bound, plus the
    space ledger.  A :class:`Simulation`, a service job and the
    distributed runtime's coordinator hub are each built here, in this
    order, so equal seeds give them equal protocol randomness and equal
    loss.

    ``mirror`` (an extra :class:`~repro.runtime.CommStats` every charge
    is copied to) and ``tracer`` (see :meth:`Network.set_tracer`) are
    attached before the coordinator exists; ``make_site(site_id)``
    substitutes stand-ins for the scheme's own sites.
    """

    def __init__(
        self,
        scheme: TrackingScheme,
        num_sites: int,
        seed: int = 0,
        one_way: bool = False,
        uplink_drop_rate: float = 0.0,
        mirror=None,
        tracer=None,
        make_site: Optional[Callable[[int], object]] = None,
    ):
        self.scheme = scheme
        self.num_sites = num_sites
        self.network = Network(
            num_sites,
            one_way=one_way,
            uplink_drop_rate=uplink_drop_rate,
            drop_seed=seed ^ 0x5EED,
        )
        if mirror is not None:
            self.network.attach_mirror(mirror)
        if tracer is not None:
            self.network.set_tracer(tracer)
        self.coordinator = scheme.make_coordinator(self.network, num_sites, seed)
        if make_site is None:
            def make_site(site_id):
                return scheme.make_site(self.network, site_id, num_sites, seed)
        self.sites = [make_site(site_id) for site_id in range(num_sites)]
        self.network.bind(self.coordinator, self.sites)
        self.space = SpaceStats()
        self.elements_processed = 0

    def sample_space(self) -> None:
        """Record current space of every site and the coordinator."""
        for site in self.sites:
            self.space.record_site(site.site_id, site.space_words())
        self.space.record_coordinator(self.coordinator.space_words())

    @property
    def comm(self):
        """The communication ledger (:class:`CommStats`)."""
        return self.network.stats


class Simulation(ProtocolStack):
    """Drive a :class:`TrackingScheme` over a stream of events.

    Parameters
    ----------
    scheme:
        Factory for the protocol under test.
    num_sites:
        Number of distributed sites, ``k``.
    seed:
        Root seed; all protocol randomness derives from it.
    one_way:
        If True, the network rejects coordinator-to-site traffic
        (the Theorem 2.2 model).
    uplink_drop_rate:
        Fault injection: fraction of uplink messages lost in transit
        (charged but not delivered).  Default 0 (the paper's model).
    space_sample_interval:
        Sample per-site space every this many processed elements.
    """

    def __init__(
        self,
        scheme: TrackingScheme,
        num_sites: int,
        seed: int = 0,
        one_way: bool = False,
        space_sample_interval: int = 64,
        uplink_drop_rate: float = 0.0,
    ):
        super().__init__(scheme, num_sites, seed, one_way, uplink_drop_rate)
        self.space_sample_interval = max(1, space_sample_interval)

    # -- driving the stream ----------------------------------------------

    def process(self, site_id: int, item) -> None:
        """Deliver one element to ``site_id`` and do bookkeeping."""
        site = self.sites[site_id]
        site.on_element(item)
        self.elements_processed += 1
        # Cheap per-event sample of the receiving site, full sweep rarely.
        self.space.record_site(site_id, site.space_words())
        if self.elements_processed % self.space_sample_interval == 0:
            self.sample_space()

    def run(
        self,
        stream: Iterable,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[["Simulation", int], None]] = None,
    ) -> None:
        """Process an iterable of ``(site_id, item)`` pairs.

        ``on_checkpoint(sim, elements_processed)`` is invoked every
        ``checkpoint_every`` elements — used by accuracy experiments to
        compare the coordinator's estimate against ground truth mid-stream.
        """
        for site_id, item in stream:
            self.process(site_id, item)
            if (
                checkpoint_every
                and on_checkpoint is not None
                and self.elements_processed % checkpoint_every == 0
            ):
                on_checkpoint(self, self.elements_processed)

    def run_batched(self, site_ids, items=None) -> None:
        """Batched fast path over an ordered event batch.

        ``site_ids`` (numpy array or sequence of ints) and ``items``
        (same length, or None for the unit item) describe the same stream
        ``run`` would consume as ``zip(site_ids, items)``.  The batch is
        delivered through :meth:`Site.on_elements` by the shared driver
        (:func:`~repro.exec.dispatch.drive_batch`: per-site slices inside
        quiet stretches, arrival-order runs otherwise), so protocol
        messages and estimates are *identical* to per-event driving with
        the same seed.  Space is sampled at run ends, every
        ``space_sample_interval`` elements, instead of once per event —
        high-water marks are therefore lower bounds of the per-event
        ledger, which is a measurement knob, not protocol state.
        """
        drive_batch(
            self, SiteBatch(site_ids, items), self.space_sample_interval
        )

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """A flat dict of cost metrics, for table rows."""
        self.sample_space()
        out = self.comm.snapshot()
        out["max_site_space_words"] = self.space.max_site_words
        out["mean_site_space_words"] = self.space.mean_site_words
        out["coordinator_space_words"] = self.space.coordinator_max_words
        out["elements"] = self.elements_processed
        return out

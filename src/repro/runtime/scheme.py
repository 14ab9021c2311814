"""Scheme interface: a factory pairing a coordinator with its sites.

A *tracking scheme* bundles everything needed to instantiate one protocol:
given a network, the number of sites ``k`` and a root seed, it constructs
the coordinator and the per-site state machines.  :class:`Simulation` then
wires them together and drives the stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..persistence.codec import PersistableState
from .coordinator import Coordinator
from .network import Network
from .site import Site

__all__ = ["TrackingScheme"]


class TrackingScheme(PersistableState, ABC):
    """Factory for one (coordinator, sites) protocol instance.

    Subclasses carry the protocol parameters (``epsilon`` etc.) and create
    fresh, independent state machines on each ``make_*`` call.
    ``state_dict()`` captures those parameters (including inner schemes)
    as the recipe from which recovery rebuilds an equivalent factory.
    """

    #: short human-readable identifier used in tables
    name: str = "scheme"

    @abstractmethod
    def make_coordinator(self, network: Network, k: int, seed: int) -> Coordinator:
        """Create the coordinator for a ``k``-site deployment."""

    @abstractmethod
    def make_site(self, network: Network, site_id: int, k: int, seed: int) -> Site:
        """Create the state machine for site ``site_id``."""

    #: set False for schemes that need downlink traffic (two-way
    #: protocols); relaxed dispatch on the site-actor plane
    #: (``Cluster(relaxed=True)``) runs only schemes that set True
    one_way_capable: bool = False

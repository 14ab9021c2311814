"""Distributed-tracking runtime: sites, coordinator, network, simulation.

This package is the substrate on which every protocol in the library runs.
It implements the paper's model of computation: ``k`` sites receiving
streams, a coordinator with a two-way channel to each site, instant
synchronous message delivery, and communication measured in messages and
words (a broadcast costs ``k`` messages).
"""

from .batching import SiteBatch, batch_from_stream, decompose_runs
from .coordinator import Coordinator
from .metrics import CommStats, SpaceStats
from .network import HorizonViolation, Network, OneWayViolation
from .protocol import BROADCAST, DOWNLINK, UPLINK, Message
from .rng import coin, derive_rng, derive_seed, geometric_failures, trailing_level
from .scheme import TrackingScheme
from .simulation import Simulation
from .site import Site
from .trace import TranscriptRecorder

__all__ = [
    "Coordinator",
    "CommStats",
    "SpaceStats",
    "Network",
    "OneWayViolation",
    "HorizonViolation",
    "Message",
    "UPLINK",
    "DOWNLINK",
    "BROADCAST",
    "batch_from_stream",
    "coin",
    "decompose_runs",
    "derive_rng",
    "derive_seed",
    "geometric_failures",
    "trailing_level",
    "TrackingScheme",
    "TranscriptRecorder",
    "Simulation",
    "Site",
    "SiteBatch",
]

"""repro — Randomized distributed tracking of counts, frequencies, ranks.

A production-quality reproduction of Huang, Yi, Zhang, *Randomized
Algorithms for Tracking Distributed Count, Frequencies, and Ranks*
(PODS 2012).  The public API:

* :class:`Simulation` — drive any tracking scheme over a stream of
  ``(site_id, item)`` events with exact communication/space accounting.
* :class:`TrackingService` — multiplex many named tracking jobs over one
  shared site fleet with batched ingestion (:mod:`repro.service`), with
  optional durability: write-ahead logging, snapshots and
  crash-recovery via ``checkpoint_dir`` (:mod:`repro.persistence`).
  It is the engine of each shard hub.
* :class:`ShardedTrackingService` — the public service: the same surface
  over N shard-local hubs (one inline hub by default) with
  hash-partitioned ingest and a cross-shard query merge plane
  (:mod:`repro.shard`); scales ingest with cores/machines.
* Count: :class:`RandomizedCountScheme` (Theorem 2.1),
  :class:`DeterministicCountScheme` (the trivial optimum).
* Frequency: :class:`RandomizedFrequencyScheme` (Theorem 3.1),
  :class:`DeterministicFrequencyScheme` ([29] baseline).
* Rank: :class:`RandomizedRankScheme` (Theorem 4.1),
  :class:`DeterministicRankScheme`, :class:`Cormode05RankScheme`.
* :class:`DistributedSamplingScheme` — the [9] sampling baseline.
* :class:`MedianBoostedScheme` — the 1-delta whole-horizon booster.
* :mod:`repro.workloads` — arrival patterns and adversarial inputs.
* :mod:`repro.lowerbounds` — the paper's lower-bound experiments.
* :mod:`repro.analysis` — theory formulas and accuracy harnesses.

Quickstart::

    from repro import RandomizedCountScheme, Simulation
    from repro.workloads import uniform_sites

    sim = Simulation(RandomizedCountScheme(epsilon=0.05), num_sites=25)
    sim.run(uniform_sites(n=100_000, k=25))
    print(sim.coordinator.estimate(), sim.comm.total_messages)
"""

from .core import (
    Cormode05RankScheme,
    DeterministicCountScheme,
    DeterministicFrequencyScheme,
    DeterministicRankScheme,
    DistributedSamplingScheme,
    MedianBoostedScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    RandomizedRankScheme,
    WindowedCountScheme,
    copies_for_confidence,
)
from .runtime import Simulation, TrackingScheme
from .service import TrackingService
from .shard import ShardedTrackingService

__version__ = "1.2.0"

__all__ = [
    "Cormode05RankScheme",
    "DeterministicCountScheme",
    "DeterministicFrequencyScheme",
    "DeterministicRankScheme",
    "DistributedSamplingScheme",
    "MedianBoostedScheme",
    "RandomizedCountScheme",
    "RandomizedFrequencyScheme",
    "RandomizedRankScheme",
    "WindowedCountScheme",
    "copies_for_confidence",
    "ShardedTrackingService",
    "Simulation",
    "TrackingScheme",
    "TrackingService",
    "__version__",
]

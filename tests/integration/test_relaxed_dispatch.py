"""Pipelined (relaxed) dispatch: latency-mode semantics, pinned.

The contract (docs/relaxed-mode.md):

* ``relaxed=False`` is untouched — the lockstep cluster stays
  byte-identical to the in-process simulator (the seed transcripts).
* Relaxed mode never changes a *site's* local stream: per-connection
  FIFO preserves per-site event order exactly.
* On the site-actor plane relaxed dispatch runs one-way schemes only
  (``one_way_capable``): sites report, the coordinator never answers
  and folds each site's reports on its own, so every such scheme
  answers *identically* to the simulator at every batch boundary.
  A two-way scheme is refused before any thread starts.
* The sharded facade's relaxed mode reorders nothing at all (each hub
  still sees its slice in order), so sharded answers are identical.
"""

import threading

import pytest

from repro import (
    DeterministicCountScheme,
    MedianBoostedScheme,
    RandomizedCountScheme,
    RandomizedRankScheme,
    ShardedTrackingService,
    WindowedCountScheme,
)
from repro.lowerbounds import OneWayThresholdScheme
from repro.net import Cluster, RemoteActorError
from repro.runtime import Simulation, batch_from_stream
from repro.service.job import resolve_query
from repro.service.jobspec import SCHEMES
from repro.workloads import bursty_sites

K = 8
N = 12_000
SEED = 17

#: one instance of every scheme the service offers, plus windowed
#: count, the one-way threshold trackers and a median-boosted scheme
EVERY_SCHEME = [
    factory(0.05)
    for factory in dict.fromkeys(
        factory for table in SCHEMES.values() for factory in table.values()
    )
] + [
    WindowedCountScheme(2000, 0.05),
    OneWayThresholdScheme(0.05),
    OneWayThresholdScheme(0.05, jitter=True),
    MedianBoostedScheme(RandomizedCountScheme(0.05), 3),
]
ONE_WAY = [s for s in EVERY_SCHEME if s.one_way_capable]
TWO_WAY = [s for s in EVERY_SCHEME if not s.one_way_capable]


@pytest.fixture(scope="module")
def stream():
    return batch_from_stream(bursty_sites(N, K, burst=96, seed=SEED))


class TestLockstepStaysExact:
    def test_lockstep_transcript_byte_identical_to_simulation(self, stream):
        site_ids, items = stream
        sim = Simulation(RandomizedCountScheme(0.05), K, seed=SEED)
        from repro.runtime import TranscriptRecorder

        recorder = TranscriptRecorder().attach(sim.network)
        sim.run_batched(site_ids, items)
        with Cluster(
            RandomizedCountScheme(0.05), K, seed=SEED, relaxed=False
        ) as cluster:
            cluster.ingest(site_ids, items)
            assert cluster.transcript_bytes() == recorder.to_bytes()
            assert cluster.query() == sim.coordinator.estimate()


class TestRelaxedCluster:
    @pytest.mark.parametrize(
        "scheme", ONE_WAY, ids=[s.name for s in ONE_WAY]
    )
    def test_order_insensitive_scheme_is_exact(self, stream, scheme):
        site_ids, _ = stream
        # arrival positions: the non-decreasing timestamps windowed
        # count needs, and plain items for every other scheme
        items = list(range(N))
        sim = Simulation(scheme, K, seed=SEED)
        with Cluster(
            scheme, K, seed=SEED, relaxed=True, record_transcript=False,
        ) as cluster:
            for start in range(0, N, 3000):
                batch = (site_ids[start:start + 3000],
                         items[start:start + 3000])
                sim.run_batched(*batch)
                cluster.ingest(*batch)
                answer = resolve_query(sim.coordinator, None)()
                assert cluster.query() == answer
                assert cluster.comm.snapshot() == sim.comm.snapshot()
                assert cluster.elements_processed == sim.elements_processed

    @pytest.mark.parametrize(
        "scheme", TWO_WAY, ids=[s.name for s in TWO_WAY]
    )
    def test_two_way_scheme_is_refused(self, scheme):
        threads = threading.active_count()
        with pytest.raises(ValueError, match="one-way schemes only"):
            Cluster(scheme, K, seed=SEED, relaxed=True)
        assert threading.active_count() == threads

    def test_relaxed_over_tcp_matches_loopback_for_deterministic(
        self, stream
    ):
        site_ids, items = stream
        answers = {}
        for transport in ("loopback", "tcp"):
            with Cluster(
                DeterministicCountScheme(0.02), K, seed=SEED, relaxed=True,
                transport=transport, record_transcript=False,
            ) as cluster:
                cluster.ingest(site_ids, items)
                answers[transport] = (
                    cluster.query(), cluster.comm.total_messages
                )
        assert answers["loopback"] == answers["tcp"]

    def test_checkpoint_after_a_failed_batch(self, tmp_path):
        # The failed batch leaves uplinks in flight, the first site's
        # included, while the snapshot engages one site at a time.
        directory = str(tmp_path / "cluster")
        ids = [i % 4 for i in range(4000)]
        with Cluster(
            WindowedCountScheme(100_000, 0.05), 4, seed=SEED, relaxed=True,
            checkpoint_dir=directory, record_transcript=False,
        ) as cluster:
            cluster.ingest(ids, [float(i) for i in range(4000)])
            hostile = [
                None if site == 3 else float(4000 + i)
                for i, site in enumerate(ids)
            ]
            with pytest.raises(RemoteActorError):
                cluster.ingest(ids, hostile)
            cluster.checkpoint()
            answer = cluster.query()
        with Cluster.restore(directory) as restored:
            assert restored.query() == answer

    def test_multiple_relaxed_batches_accumulate(self, stream):
        site_ids, items = stream
        with Cluster(
            DeterministicCountScheme(0.02), K, seed=SEED, relaxed=True,
            record_transcript=False,
        ) as cluster:
            for start in range(0, N, 2048):
                cluster.ingest(
                    site_ids[start:start + 2048], items[start:start + 2048]
                )
            assert cluster.elements_processed == N
            assert cluster.query() > 0


class TestRelaxedShardedFacade:
    @pytest.mark.parametrize("executor", ["inline", "thread"])
    def test_answers_identical_to_lockstep(self, stream, executor):
        site_ids, items = stream
        lockstep = ShardedTrackingService(
            num_sites=K, num_shards=4, seed=SEED, executor=executor
        )
        relaxed = ShardedTrackingService(
            num_sites=K, num_shards=4, seed=SEED, executor=executor,
            relaxed=True,
        )
        for service in (lockstep, relaxed):
            service.register("c", RandomizedCountScheme(0.05))
            service.register("m", RandomizedRankScheme(0.05))
        for start in range(0, N, 1024):
            lockstep.ingest(site_ids[start:start + 1024],
                            items[start:start + 1024])
            relaxed.ingest(site_ids[start:start + 1024],
                           items[start:start + 1024])
        assert relaxed.elements_processed == lockstep.elements_processed
        assert relaxed.query("c") == lockstep.query("c")
        assert relaxed.query("m", "estimate_total") == lockstep.query(
            "m", "estimate_total"
        )
        assert relaxed.status()["relaxed"] is True
        lockstep.close()
        relaxed.close()

    def test_fence_is_explicit_and_implicit(self, stream):
        site_ids, items = stream
        service = ShardedTrackingService(
            num_sites=K, num_shards=2, seed=SEED, executor="thread",
            relaxed=True,
        )
        service.register("c", DeterministicCountScheme(0.02))
        service.ingest(site_ids[:4096], items[:4096])
        service.fence()  # explicit drain
        assert service._group.pending == 0
        service.ingest(site_ids[4096:8192], items[4096:8192])
        # a read fences implicitly
        assert service.query("c") > 0
        assert service._group.pending == 0
        service.close()

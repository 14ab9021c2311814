"""Pipelined (relaxed) dispatch: latency-mode semantics, pinned.

The contract (docs/relaxed-mode.md):

* ``relaxed=False`` is untouched — the lockstep cluster stays
  byte-identical to the in-process simulator (the seed transcripts).
* Relaxed mode never changes a *site's* local stream: per-connection
  FIFO preserves per-site event order exactly.
* Order-insensitive protocols (deterministic count: sites report local
  threshold crossings, the coordinator sums) therefore answer
  *identically* under relaxed dispatch.
* Order-sensitive protocols (randomized count's coordinator rounds)
  may drift, but stay within the scheme's ``eps * n`` error bound.
* The sharded facade's relaxed mode reorders nothing at all (each hub
  still sees its slice in order), so sharded answers are identical.
"""

import statistics

import pytest

from repro import (
    DeterministicCountScheme,
    RandomizedCountScheme,
    RandomizedRankScheme,
    ShardedTrackingService,
)
from repro.net import Cluster
from repro.runtime import Simulation, batch_from_stream
from repro.workloads import bursty_sites

K = 8
N = 12_000
SEED = 17


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
    def test_order_insensitive_scheme_is_exact(self, stream):
        site_ids, items = stream
        sim = Simulation(DeterministicCountScheme(0.02), K, seed=SEED)
        sim.run_batched(site_ids, items)
        with Cluster(
            DeterministicCountScheme(0.02), K, seed=SEED, relaxed=True,
            record_transcript=False,
        ) as cluster:
            cluster.ingest(site_ids, items)
            assert cluster.query() == sim.coordinator.estimate()
            assert cluster.comm.total_messages == sim.comm.total_messages
            assert cluster.elements_processed == N

    def test_randomized_count_within_error_bound(self, stream):
        site_ids, items = stream
        eps = 0.05
        with Cluster(
            RandomizedCountScheme(eps), K, seed=SEED, relaxed=True,
            record_transcript=False,
        ) as cluster:
            cluster.ingest(site_ids, items)
            estimate = cluster.query()
        assert abs(estimate - N) <= eps * N

    def test_rank_scheme_within_error_bound(self, stream):
        site_ids, _ = stream
        eps = 0.05
        values = list(range(N))
        errors = []
        for seed in range(SEED, SEED + 5):
            with Cluster(
                RandomizedRankScheme(eps), K, seed=seed, relaxed=True,
                record_transcript=False,
            ) as cluster:
                cluster.ingest(site_ids, values)
                rank = cluster.query("estimate_rank", N // 2)
            errors.append(abs(rank - N // 2))
        # The scheme's eps*n guarantee is with-constant-probability, not
        # worst-case, and under relaxed dispatch each run is one draw
        # from (seed x thread schedule): a single run outside the 2x
        # envelope is expected now and then.  The median of independent
        # runs is the paper's own boosting argument — it leaves the
        # envelope only if most of them do.
        assert statistics.median(errors) <= 2 * eps * N

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

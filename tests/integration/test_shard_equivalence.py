"""Sharded vs unsharded equivalence: merged answers meet composed bounds.

The contract of :mod:`repro.shard`:

* a **one-shard** facade is the identity partition with pass-through
  seeds — byte-identical answers to an unsharded ``TrackingService``
  for every scheme and every query;
* **deterministic merge paths** (deterministic count, window count —
  whose sites depend only on their local stream) merge *exactly* at any
  shard count: the merged answer equals the unsharded answer;
* **randomized / k-dependent schemes** merge within the composed error
  bound ``eps * n`` (per-shard full-epsilon budgets; additive errors
  sum to ``eps * n``, independent variances compose — see
  :func:`repro.shard.merge.composed_error_bound`);
* executors are interchangeable: inline, thread and process backends
  produce identical answers for identical seeds, and hubs placed on
  ``repro hub`` TCP hosts match inline hubs for every scheme the
  site-actor plane covers.
"""

import bisect
import os
import shutil

import pytest

from repro import (
    Cormode05RankScheme,
    DeterministicCountScheme,
    DeterministicFrequencyScheme,
    DeterministicRankScheme,
    DistributedSamplingScheme,
    MedianBoostedScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    RandomizedRankScheme,
    ShardedTrackingService,
    TrackingService,
    WindowedCountScheme,
)
from repro.exec.remote import ExecHost, LoopThread
from repro.net.transport import TcpTransport
from repro.shard import UnmergeableQueryError, composed_error_bound
from repro.workloads import uniform_sites, with_items, zipf_items

K = 16
N = 30_000
SEED = 11


@pytest.fixture(scope="module")
def stream():
    pairs = list(
        with_items(
            uniform_sites(N, K, seed=SEED),
            zipf_items(300, alpha=1.2, seed=SEED + 1),
        )
    )
    return [s for s, _ in pairs], [v for _, v in pairs]


JOB_SPECS = (
    ("count-r", RandomizedCountScheme, 0.02),
    ("count-d", DeterministicCountScheme, 0.02),
    ("freq-r", RandomizedFrequencyScheme, 0.05),
    ("freq-d", DeterministicFrequencyScheme, 0.05),
    ("rank-r", RandomizedRankScheme, 0.05),
    ("rank-c", Cormode05RankScheme, 0.05),
    ("sample", DistributedSamplingScheme, 0.1),
)


def build(service):
    for name, factory, eps in JOB_SPECS:
        service.register(name, factory(eps))
    return service


@pytest.fixture(scope="module")
def reference(stream):
    service = build(TrackingService(num_sites=K, seed=SEED))
    service.ingest(*stream)
    yield service
    service.close()


@pytest.fixture(scope="module")
def sharded4(stream):
    service = build(
        ShardedTrackingService(num_sites=K, num_shards=4, seed=SEED)
    )
    service.ingest(*stream)
    yield service
    service.close()


QUERIES = (
    ("count-r", None, ()),
    ("count-d", None, ()),
    ("freq-r", "estimate_frequency", (1,)),
    ("freq-d", "estimate_frequency", (1,)),
    ("freq-d", "top_items", (5,)),
    ("freq-d", "heavy_hitters", (0.05,)),
    ("rank-r", "estimate_total", ()),
    ("rank-r", "estimate_rank", (10,)),
    ("rank-r", "quantile", (0.5,)),
    ("rank-c", "quantile", (0.9,)),
    ("sample", None, ()),
    ("sample", "quantile", (0.5,)),
    ("sample", "heavy_hitters", (0.2,)),
)


class TestSingleShardIdentity:
    """One shard == the unsharded service, transcript-identically."""

    def test_every_query_matches_exactly(self, stream, reference):
        sharded = build(
            ShardedTrackingService(num_sites=K, num_shards=1, seed=SEED)
        )
        sharded.ingest(*stream)
        for job, method, args in QUERIES:
            assert sharded.query(job, method, *args) == reference.query(
                job, method, *args
            ), (job, method, args)
        sharded.close()


class TestDeterministicMergePaths:
    """Seed-independent schemes merge exactly at any shard count."""

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_deterministic_count_exact(self, stream, reference, shards):
        sharded = ShardedTrackingService(
            num_sites=K, num_shards=shards, seed=SEED
        )
        sharded.register("count-d", DeterministicCountScheme(0.02))
        sharded.ingest(*stream)
        assert sharded.query("count-d") == reference.query("count-d")
        sharded.close()

    def test_window_count_exact(self):
        unsharded = TrackingService(num_sites=8, seed=SEED)
        sharded = ShardedTrackingService(
            num_sites=8, num_shards=4, seed=SEED
        )
        for service in (unsharded, sharded):
            service.register("win", WindowedCountScheme(500, 0.1))
        events = [(i % 8, float(i)) for i in range(4_000)]
        site_ids = [s for s, _ in events]
        stamps = [t for _, t in events]
        unsharded.ingest(site_ids, stamps)
        sharded.ingest(site_ids, stamps)
        # Explicit and implicit clocks both merge exactly: per-site EH
        # mirrors are independent of fleet grouping.
        assert sharded.query("win") == unsharded.query("win")
        assert sharded.query(
            "win", "estimate", 3_999.0
        ) == unsharded.query("win", "estimate", 3_999.0)
        unsharded.close()
        sharded.close()


class TestComposedBounds:
    """Merged answers stay within eps * n of the truth at 4 shards."""

    def test_count_within_bound(self, stream, sharded4):
        bound = sharded4.error_bound("count-r")
        assert bound["bound"] == pytest.approx(0.02 * N)
        assert abs(sharded4.query("count-r") - N) <= bound["bound"]

    def test_frequency_within_bound(self, stream, sharded4):
        site_ids, items = stream
        for item in (0, 1, 2, 7):
            truth = items.count(item)
            for job in ("freq-r", "freq-d"):
                merged = sharded4.query(job, "estimate_frequency", item)
                assert abs(merged - truth) <= 0.05 * N, (job, item)

    def test_rank_and_quantile_within_bound(self, stream, sharded4):
        site_ids, items = stream
        ordered = sorted(items)
        probe = ordered[len(ordered) // 2]
        truth = bisect.bisect_left(ordered, probe)
        merged = sharded4.query("rank-r", "estimate_rank", probe)
        assert abs(merged - truth) <= 2 * 0.05 * N
        for phi in (0.25, 0.5, 0.9):
            q = sharded4.query("rank-r", "quantile", phi)
            lo = bisect.bisect_left(ordered, q)
            hi = bisect.bisect_right(ordered, q)
            # q's value interval must cover phi*n to within the bound.
            assert lo - 2 * 0.05 * N <= phi * N <= hi + 2 * 0.05 * N

    def test_heavy_hitters_cover_true_hitters(self, stream, sharded4):
        site_ids, items = stream
        counts = {}
        for v in items:
            counts[v] = counts.get(v, 0) + 1
        phi, eps = 0.05, 0.05
        merged = sharded4.query("freq-d", "heavy_hitters", phi)
        for item, c in counts.items():
            if c >= (phi + eps) * N:
                assert item in merged, item

    def test_top_items_agree_with_reference_counts(self, stream, sharded4):
        site_ids, items = stream
        counts = {}
        for v in items:
            counts[v] = counts.get(v, 0) + 1
        top_true = sorted(counts, key=counts.get, reverse=True)[:3]
        top_merged = [j for j, _ in sharded4.query("freq-d", "top_items", 3)]
        assert top_merged[0] == top_true[0]
        assert set(top_merged) == set(top_true)


class TestExecutorEquivalence:
    """inline == thread == process for identical seeds."""

    def test_backends_agree_exactly(self, stream, sharded4):
        for executor in ("thread", "process"):
            other = build(
                ShardedTrackingService(
                    num_sites=K, num_shards=4, seed=SEED, executor=executor
                )
            )
            other.ingest(*stream)
            for job, method, args in QUERIES:
                assert other.query(job, method, *args) == sharded4.query(
                    job, method, *args
                ), (executor, job, method)
            other.close()


#: every scheme the site-actor plane's equivalence suite covers, with
#: the queries to compare: merged where a merge rule exists, per shard
#: (``query_shard``) for the boosted job, whose median does not merge
HUB_PLANE_CASES = [
    pytest.param(
        lambda: RandomizedCountScheme(0.05), [(None,), ("estimate",)], [],
        id="count-randomized",
    ),
    pytest.param(
        lambda: DeterministicCountScheme(0.05), [("estimate",)], [],
        id="count-deterministic",
    ),
    pytest.param(
        lambda: RandomizedFrequencyScheme(0.1),
        [("top_items", 3), ("estimate_frequency", 1),
         ("heavy_hitters", 0.05)], [],
        id="frequency-randomized",
    ),
    pytest.param(
        lambda: DeterministicFrequencyScheme(0.1),
        [("top_items", 3), ("estimate_frequency", 1),
         ("heavy_hitters", 0.05)], [],
        id="frequency-deterministic",
    ),
    pytest.param(
        lambda: RandomizedRankScheme(0.15),
        [("estimate_rank", 10), ("estimate_total",), ("quantile", 0.5)], [],
        id="rank-randomized",
    ),
    pytest.param(
        lambda: DeterministicRankScheme(0.15),
        [("estimate_rank", 10), ("quantile", 0.5)], [],
        id="rank-deterministic",
    ),
    pytest.param(
        lambda: Cormode05RankScheme(0.15),
        [("estimate_rank", 10), ("quantile", 0.9)], [],
        id="rank-cormode05",
    ),
    pytest.param(
        lambda: DistributedSamplingScheme(0.2),
        [("estimate",), ("estimate_rank", 10), ("quantile", 0.5),
         ("heavy_hitters", 0.2)], [],
        id="sampling-level",
    ),
    pytest.param(
        lambda: MedianBoostedScheme(RandomizedCountScheme(0.1), 3),
        [], [("estimate",)],
        id="count-boosted-median3",
    ),
    pytest.param(
        lambda: WindowedCountScheme(2_000, 0.2),
        [(None,), ("estimate", float(N - 1))], [],
        id="window-count",
    ),
]


@pytest.fixture(scope="module")
def hub_hosts():
    loop = LoopThread()
    hosts = [
        loop.call(ExecHost(TcpTransport(), "127.0.0.1:0").start())
        for _ in range(2)
    ]
    yield [host.address for host in hosts]
    for host in hosts:
        loop.call(host.close())
    loop.close()


class TestClusterHubEquivalence:
    """Two hubs on TCP hosts == two inline hubs, for every scheme."""

    @pytest.mark.parametrize(
        "make_scheme, queries, shard_queries", HUB_PLANE_CASES
    )
    def test_cluster_hubs_match_inline_hubs(
        self, stream, hub_hosts, make_scheme, queries, shard_queries
    ):
        site_ids, items = stream
        scheme = make_scheme()
        if scheme.name.startswith("window/"):
            items = [float(i) for i in range(N)]  # arrival timestamps
        observed = []
        for placement in (
            {"executor": "inline"},
            {"executor": "cluster", "hub_addresses": hub_hosts},
        ):
            service = ShardedTrackingService(
                num_sites=K, num_shards=2, seed=SEED, **placement
            )
            try:
                service.register("job", scheme)
                service.ingest(site_ids, items)
                observed.append(
                    {
                        "comm": service.status()["jobs"]["job"]["comm"],
                        "answers": [
                            service.query("job", *query)
                            for query in queries
                        ],
                        "per_shard": [
                            service.query_shard(shard, "job", *query)
                            for query in shard_queries
                            for shard in range(2)
                        ],
                    }
                )
            finally:
                service.close()
        inline, cluster = observed
        assert inline["comm"]["total_messages"] > 0
        assert cluster == inline


class TestEdgeCases:
    def test_empty_shards_merge_cleanly(self):
        # 8 sites over 8 shards, but only two sites ever receive events:
        # six shard hubs stay completely empty.
        service = ShardedTrackingService(num_sites=8, num_shards=8, seed=3)
        service.register("count", DeterministicCountScheme(0.05))
        service.register("rank", RandomizedRankScheme(0.1))
        service.register("freq", DeterministicFrequencyScheme(0.1))
        site_ids = [0, 5] * 500
        items = [1 + (i % 7) for i in range(1_000)]
        service.ingest(site_ids, items)
        assert service.query("count") >= 1_000 / 1.05
        assert service.query("freq", "top_items", 2)
        q = service.query("rank", "quantile", 0.5)
        assert 1 <= q <= 7
        assert service.query("freq", "heavy_hitters", 0.9) == {}
        service.close()

    def test_unmergeable_method_raises(self, sharded4):
        with pytest.raises(UnmergeableQueryError):
            sharded4.query("rank-r", "rank_table")
        # ... but the per-shard surface stays reachable.
        values, ranks, total = sharded4.query_shard(
            0, "rank-r", "rank_table"
        )
        assert len(ranks) == len(values) + 1 and total > 0

    def test_composed_error_bound_accounting(self):
        accounting = composed_error_bound(0.05, [100, 0, 300])
        assert accounting["bound"] == pytest.approx(0.05 * 400)
        assert accounting["per_shard_bounds"] == [5.0, 0.0, 15.0]


class TestSingleServiceCheckpointResume:
    """A ``TrackingService`` checkpoint directory (snapshot + WAL tail,
    no ``shards.json``) resumes into the facade as its one shard, with
    the answers, ledgers and element count ``TrackingService.restore``
    gives — before and after one more batch."""

    SPLIT, RESUMED, EXTRA = 6_000, 12_000, 15_000
    GRID = [i / 10 for i in range(1, 10)]

    @staticmethod
    def observed(service):
        sample = service.metrics_sample()
        return {
            "count": service.query("count"),
            "quantiles": [
                service.query("rank", "quantile", phi)
                for phi in TestSingleServiceCheckpointResume.GRID
            ],
            "hitters": service.query("freq", "heavy_hitters", 0.01),
            "comm": sample["comm"],
            "job_comm": {
                name: job["comm"] for name, job in sample["jobs"].items()
            },
            "elements": service.elements_processed,
        }

    @pytest.mark.parametrize(
        "executor, relaxed", [("inline", False), ("thread", True)]
    )
    def test_facade_resumes_a_service_checkpoint(
        self, tmp_path, stream, executor, relaxed
    ):
        ids, items = stream
        written = str(tmp_path / "written")
        writer = TrackingService(
            num_sites=K, seed=SEED, checkpoint_dir=written
        )
        writer.register("count", RandomizedCountScheme(0.02))
        writer.register("rank", RandomizedRankScheme(0.05))
        writer.register("freq", RandomizedFrequencyScheme(0.05))
        writer.ingest(ids[: self.SPLIT], items[: self.SPLIT])
        writer.checkpoint()
        writer.ingest(  # the WAL tail past the snapshot
            ids[self.SPLIT: self.RESUMED], items[self.SPLIT: self.RESUMED]
        )
        writer.close()
        reference_dir = str(tmp_path / "reference")
        facade_dir = str(tmp_path / "facade")
        shutil.copytree(written, reference_dir)
        shutil.copytree(written, facade_dir)

        reference = TrackingService.restore(reference_dir)
        facade = ShardedTrackingService.restore(
            facade_dir, executor=executor, relaxed=relaxed
        )
        try:
            assert facade.num_shards == 1 and facade.num_sites == K
            assert facade.elements_processed == self.RESUMED
            assert self.observed(facade) == self.observed(reference)
            tail = slice(self.RESUMED, self.EXTRA)
            reference.ingest(ids[tail], items[tail])
            facade.ingest(ids[tail], items[tail])
            assert self.observed(facade) == self.observed(reference)
        finally:
            facade.close()
            reference.close()
        # read in place: the directory stays a single-service bundle
        assert not os.path.exists(os.path.join(facade_dir, "shards.json"))
        again = TrackingService.restore(facade_dir)
        assert again.elements_processed == self.EXTRA
        again.close()

"""Round complexity of merged reads: a fixed number of fan-outs each.

A fan-out round is one ``ExecGroup.map`` — one command posted to every
shard hub, then a collect that drains (fences) each of them — so on
placed hubs it is one round trip per hub.  These tests count the rounds
each merged query costs and pin that the count is a property of the
query kind, not of how much the hubs hold; the merged answers themselves
are pinned by ``test_merge_golden.py``.

They also cover jobs the merge plane cannot answer: a median-boosted
coordinator has no merge hooks, and the facade must say so as an
:class:`UnmergeableQueryError` (HTTP 400) instead of leaking the hub's
``AttributeError`` (which the gateway maps to 404).
"""

import random

import pytest

from repro import (
    MedianBoostedScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    RandomizedRankScheme,
    ShardedTrackingService,
    WindowedCountScheme,
)
from repro.shard import MERGEABLE_METHODS, UnmergeableQueryError

K = 16

# benchmarks/ladder/workloads.py: MIXED_JOBS and MIXED_PANEL, one
# dashboard refresh of the mixed-uniform and read-write workloads.
MIXED_JOBS = (
    ("total", RandomizedCountScheme, 0.01),
    ("hot", RandomizedFrequencyScheme, 0.02),
    ("p99", RandomizedRankScheme, 0.02),
)
MIXED_PANEL = (
    ("total", None, ()),
    ("p99", "quantile", (0.5,)),
    ("p99", "quantile", (0.99,)),
    ("hot", "top_items", (10,)),
    ("hot", "heavy_hitters", (0.05,)),
)


def mixed_service(n, shards=2, seed=5, **kwargs):
    rng = random.Random(seed)
    service = ShardedTrackingService(
        num_sites=K, num_shards=shards, seed=seed, **kwargs
    )
    for name, factory, eps in MIXED_JOBS:
        service.register(name, factory(eps))
    # Half skewed (heavy hitters exist), half spread over the domain
    # (the quantile candidate union grows with n).
    service.ingest(
        [rng.randrange(K) for _ in range(n)],
        [
            int(rng.paretovariate(1.2)) % 5000
            if rng.random() < 0.5 else rng.randrange(5000)
            for _ in range(n)
        ],
    )
    return service


def count_rounds(service, queries) -> int:
    """``ExecGroup.map`` calls the given merged queries cost."""
    group = service._group
    real_map = group.map
    calls = []

    def counting_map(*args, **kwargs):
        calls.append(args[0])
        return real_map(*args, **kwargs)

    group.map = counting_map
    try:
        for name, method, args in queries:
            service.query(name, method, *args)
    finally:
        del group.map
    return len(calls)


class TestFanoutBudget:
    @pytest.fixture(scope="class")
    def service(self):
        service = mixed_service(20_000)
        yield service
        service.close()

    @pytest.mark.parametrize(
        "query,budget",
        [
            (("p99", "quantile", (0.5,)), 1),
            (("p99", "quantile", (0.99,)), 1),
            (("hot", "heavy_hitters", (0.05,)), 2),
            (("hot", "top_items", (10,)), 2),
            (("total", None, ()), 1),
            (("p99", None, ()), 1),
            (("p99", "estimate_rank", (100,)), 1),
            (("hot", "estimate_frequency", (1,)), 1),
        ],
        ids=lambda v: str(v),
    )
    def test_rounds_per_query(self, service, query, budget):
        assert count_rounds(service, [query]) == budget

    def test_whole_panel_within_seven_rounds(self, service):
        # 31 at the parent commit: 1 + 13 + 12 + 2 + 3.
        assert count_rounds(service, MIXED_PANEL) <= 7

    def test_heavy_hitters_without_candidates_is_one_round(self, service):
        assert service.query("hot", "heavy_hitters", 0.999) == {}
        assert count_rounds(service, [("hot", "heavy_hitters", (0.999,))]) == 1

    def test_rounds_do_not_grow_with_the_candidate_union(self):
        sizes = []
        for n in (300, 30_000):
            service = mixed_service(n, shards=4)
            try:
                assert count_rounds(service, MIXED_PANEL) <= 7
                before = service.merge_candidates.sum
                assert count_rounds(
                    service, [("p99", "quantile", (0.5,))]
                ) == 1
                sizes.append(service.merge_candidates.sum - before)
            finally:
                service.close()
        assert sizes[1] > 4 * sizes[0]

    def test_windowed_default_takes_its_two_rounds(self):
        # The shards' newest timestamps must be merged before any
        # mirror can be evaluated at the global one.
        service = ShardedTrackingService(num_sites=4, num_shards=2, seed=1)
        service.register("recent", WindowedCountScheme(50, 0.1))
        service.ingest([0, 1, 2, 3] * 25, list(range(100)))
        try:
            assert count_rounds(service, [("recent", None, ())]) == 2
        finally:
            service.close()

    def test_rounds_are_observable(self, service):
        before = service.merge_fanouts.count, service.merge_fanouts.sum
        service.query("p99", "quantile", 0.5)
        service.query("hot", "top_items", 3)
        assert service.merge_fanouts.count == before[0] + 2
        assert service.merge_fanouts.sum == before[1] + 1 + 2
        merges = [s for s in service.spans.dump() if s["name"] == "merge"]
        assert [s["attrs"]["fanouts"] for s in merges[-2:]] == [1, 2]
        assert merges[-2]["attrs"]["candidates"] >= 1


class TestUnmergeableJobs:
    """Median-boosted coordinators answer additive queries only."""

    @pytest.fixture(params=["inline", "process"])
    def boosted(self, request):
        rng = random.Random(9)
        service = ShardedTrackingService(
            num_sites=8, num_shards=2, seed=2, executor=request.param
        )
        service.register(
            "r", MedianBoostedScheme(RandomizedRankScheme(0.1), copies=3)
        )
        service.register(
            "f", MedianBoostedScheme(RandomizedFrequencyScheme(0.1), copies=3)
        )
        service.ingest(
            [rng.randrange(8) for _ in range(2000)],
            [rng.randrange(50) for _ in range(2000)],
        )
        yield service
        service.close()

    @pytest.mark.parametrize(
        "job,method,arg",
        [
            ("r", "quantile", 0.5),
            ("f", "top_items", 3),
            ("f", "heavy_hitters", 0.1),
        ],
    )
    def test_candidate_set_queries_name_the_way_out(
        self, boosted, job, method, arg
    ):
        with pytest.raises(UnmergeableQueryError) as caught:
            boosted.query(job, method, arg)
        message = str(caught.value)
        assert repr(job) in message
        assert boosted.job(job).scheme.name in message
        assert str(list(MERGEABLE_METHODS)) in message

    def test_additive_queries_keep_working(self, boosted):
        assert boosted.query("r", "estimate_rank", 25) == pytest.approx(
            1000, abs=400
        )
        assert boosted.query("f", "estimate_frequency", 7) == pytest.approx(
            40, abs=200
        )
        # ... and the pipe is still aligned after the refused queries.
        with pytest.raises(UnmergeableQueryError):
            boosted.query("r", "quantile", 0.5)
        assert boosted.query("r", "estimate_rank", 25) > 0

    def test_a_missing_method_is_still_an_attribute_error(self, boosted):
        with pytest.raises(AttributeError):
            boosted.query("r", "estimate_frequency", 1)

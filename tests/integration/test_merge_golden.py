"""Golden merged answers for the cross-shard candidate-set queries.

``merge_golden.json`` was generated at the commit *before* merged reads
moved from one ``estimate_rank`` fan-out per binary-search step to one
shipped rank table per hub (``python tests/integration/
test_merge_golden.py`` rewrites it).  It pins, per seeded stream and shard
count, the merged ``quantile`` at seven phis on every rank coordinator
(the Section 4 tracker, both snapshot baselines and the level sampler),
and the merged ``heavy_hitters`` / ``top_items`` on every frequency
coordinator.  Answers are compared by ``repr`` — ``1`` and ``1.0`` are
different answers here — so the pick among equal candidates of mixed
type, the order of ``top_items`` and every summed frequency must be what
the per-step merge produced.

Streams: a skewed integer domain (heavy hitters, many ties), a wide one
(thousands of distinct values), mixed int/float ties, an all-equal
stream, and 8 shards of which 6 never see an event.
"""

import json
import os
import random

import pytest

from repro import (
    Cormode05RankScheme,
    DeterministicFrequencyScheme,
    DeterministicRankScheme,
    DistributedSamplingScheme,
    RandomizedFrequencyScheme,
    RandomizedRankScheme,
    ShardedTrackingService,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "merge_golden.json")

K = 16
SEEDS = (3, 17, 41)
SHARDS = (2, 4, 8)
PHIS = (0, 0.01, 0.25, 0.5, 0.9, 0.99, 1)

RANK_JOBS = (
    ("rank-r", RandomizedRankScheme, 0.05),
    ("rank-c", Cormode05RankScheme, 0.05),
    ("rank-d", DeterministicRankScheme, 0.1),
    ("sample", DistributedSamplingScheme, 0.1),
)
FREQUENCY_JOBS = (
    ("freq-r", RandomizedFrequencyScheme, 0.05),
    ("freq-d", DeterministicFrequencyScheme, 0.05),
)


def _skewed(rng):
    n = 5000
    sites = [rng.randrange(K) for _ in range(n)]
    items = [int(rng.paretovariate(1.2)) % 300 for _ in range(n)]
    return K, sites, items


def _wide(rng):
    n = 5000
    sites = [rng.randrange(K) for _ in range(n)]
    return K, sites, [round(rng.gauss(5000, 1500)) for _ in range(n)]


def _mixed_ties(rng):
    n = 4000
    sites = [rng.randrange(K) for _ in range(n)]
    items = [
        float(v) if rng.random() < 0.5 else v
        for v in (rng.randrange(40) for _ in range(n))
    ]
    return K, sites, items


def _all_equal(rng):
    n = 3000
    return K, [rng.randrange(K) for _ in range(n)], [7] * n


def _sparse(rng):
    # 8 sites over 8 shards, two sites ever receive events: six hubs
    # stay completely empty.
    n = 2000
    sites = [rng.choice((0, 5)) for _ in range(n)]
    return 8, sites, [1 + rng.randrange(9) for _ in range(n)]


STREAMS = {
    "skewed": (_skewed, SHARDS),
    "wide": (_wide, SHARDS),
    "mixed-ties": (_mixed_ties, SHARDS),
    "all-equal": (_all_equal, SHARDS),
    "8-shards-6-empty": (_sparse, (8,)),
}
CASES = [
    (stream, shards, seed)
    for stream, (_, shard_counts) in STREAMS.items()
    for shards in shard_counts
    for seed in SEEDS
]


def case_id(stream, shards, seed) -> str:
    return f"{stream}/S{shards}/seed{seed}"


def merged_answers(stream, shards, seed) -> dict:
    """Every pinned answer of one case, as ``repr`` strings."""
    make, _ = STREAMS[stream]
    num_sites, sites, items = make(random.Random(seed))
    service = ShardedTrackingService(
        num_sites=num_sites, num_shards=shards, seed=seed
    )
    try:
        for name, factory, eps in RANK_JOBS + FREQUENCY_JOBS:
            service.register(name, factory(eps))
        for lo in range(0, len(sites), 997):
            service.ingest(sites[lo : lo + 997], items[lo : lo + 997])
        answers = {}
        for name, _, _ in RANK_JOBS:
            for phi in PHIS:
                answers[f"{name}.quantile({phi})"] = repr(
                    service.query(name, "quantile", phi)
                )
        for name in ("freq-r", "freq-d", "sample"):
            hitters = service.query(name, "heavy_hitters", 0.05)
            answers[f"{name}.heavy_hitters(0.05)"] = repr(
                sorted(hitters.items(), key=repr)
            )
            answers[f"{name}.top_items(5)"] = repr(
                service.query(name, "top_items", 5)
            )
        return answers
    finally:
        service.close()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("stream,shards,seed", CASES, ids=lambda v: str(v))
def test_merged_answers_match_golden(golden, stream, shards, seed):
    assert merged_answers(stream, shards, seed) == golden[
        case_id(stream, shards, seed)
    ]


if __name__ == "__main__":
    table = {case_id(*case): merged_answers(*case) for case in CASES}
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} cases, "
          f"{sum(len(v) for v in table.values())} answers to {GOLDEN_PATH}")

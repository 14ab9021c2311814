"""Property-based tests for the rank coordinators' ``rank_table`` hook.

A rank table is the coordinator's ``estimate_rank`` written down whole
(see :mod:`repro.core.rank.util`); the cross-shard merge plane and each
coordinator's own ``quantile`` search tables instead of calling
``estimate_rank``, so on every run the table must *be* that function:
at every stored value, between them, and below and above all of them.
"""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Cormode05RankScheme,
    DeterministicRankScheme,
    DistributedSamplingScheme,
    RandomizedRankScheme,
    ShardedTrackingService,
    Simulation,
)

K = 5
SCHEMES = {
    "rank/randomized": lambda: RandomizedRankScheme(0.1),
    "rank/randomized-flat": lambda: RandomizedRankScheme(0.2, flat_tree=True),
    "rank/cormode05": lambda: Cormode05RankScheme(0.1),
    "rank/deterministic": lambda: DeterministicRankScheme(0.2),
    "sampling/level": lambda: DistributedSamplingScheme(0.3),
}

# (site, value) arrivals: a small value alphabet for ties, ints and the
# floats equal to them, and enough arrivals for several rounds, shipped
# summaries, frozen residual samples (p < 1) and sampler level raises.
values = st.one_of(
    st.integers(min_value=-20, max_value=60),
    st.integers(min_value=-20, max_value=60).map(float),
    st.floats(min_value=-20, max_value=60, allow_nan=False),
)
streams = st.lists(
    st.tuples(st.integers(min_value=0, max_value=K - 1), values),
    min_size=1,
    max_size=1500,
)


def close(a, b) -> bool:
    return a == pytest.approx(b, rel=1e-9, abs=1e-9)


def table_rank(table, x) -> float:
    stored, ranks, _ = table
    return ranks[bisect_left(stored, x)]


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestRankTable:
    @given(stream=streams, seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_table_is_the_rank_function(self, scheme, stream, seed):
        sim = Simulation(SCHEMES[scheme](), K, seed=seed)
        sim.run(stream)
        coordinator = sim.coordinator
        table = coordinator.rank_table()
        stored, ranks, total = table

        assert all(a < b for a, b in zip(stored, stored[1:]))
        assert len(ranks) == len(stored) + 1
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert close(total, coordinator.estimate_total())
        for value, rank in zip(stored, ranks):
            assert close(rank, coordinator.estimate_rank(value))

        probes = [stored[0] - 1, stored[-1] + 1] if len(stored) else [0]
        probes += [(a + b) / 2 for a, b in zip(stored, stored[1:])]
        for probe in probes:
            assert close(
                table_rank(table, probe), coordinator.estimate_rank(probe)
            )

    @given(
        stream=streams,
        seed=st.integers(min_value=0, max_value=20),
        phi=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=25, deadline=None)
    def test_quantile_is_a_stored_value_at_the_target(
        self, scheme, stream, seed, phi
    ):
        sim = Simulation(SCHEMES[scheme](), K, seed=seed)
        sim.run(stream)
        coordinator = sim.coordinator
        stored, ranks, total = coordinator.rank_table()
        stored = list(stored)  # a typed column for numeric values
        if not stored:
            with pytest.raises(ValueError, match="no candidate values"):
                coordinator.quantile(phi)
            return
        answer = coordinator.quantile(phi)
        index = stored.index(answer)
        # The smallest stored value whose mass, itself included,
        # reaches the target (the last one if none does).
        target = phi * total
        assert ranks[index + 1] >= target or index == len(stored) - 1
        assert index == 0 or ranks[index] < target

    def test_empty_coordinator_yields_an_empty_table(self, scheme):
        sim = Simulation(SCHEMES[scheme](), K, seed=0)
        assert sim.coordinator.rank_table() == ([], [0.0], 0.0)
        with pytest.raises(ValueError, match="no candidate values"):
            sim.coordinator.quantile(0.5)

    def test_merged_quantile_on_empty_tables_raises(self, scheme):
        service = ShardedTrackingService(num_sites=K, num_shards=2, seed=0)
        service.register("rank", SCHEMES[scheme]())
        try:
            with pytest.raises(ValueError, match="no candidate values"):
                service.query("rank", "quantile", 0.5)
        finally:
            service.close()

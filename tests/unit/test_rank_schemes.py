"""Unit tests for the rank-tracking protocols (Section 4)."""

import math
import statistics

import pytest

from repro import (
    Cormode05RankScheme,
    DeterministicRankScheme,
    RandomizedRankScheme,
    Simulation,
)
from repro.core.rank.randomized import RoundGeometry
from repro.workloads import (
    random_permutation_values,
    sorted_values,
    uniform_sites,
)

from ..conftest import run_rank, true_rank


class TestRoundGeometry:
    def test_block_is_power_of_two(self):
        g = RoundGeometry(50_000, k=16, eps=0.05)
        assert g.block & (g.block - 1) == 0

    def test_block_tracks_formula(self):
        k, eps, n_bar = 16, 0.05, 50_000
        g = RoundGeometry(n_bar, k, eps)
        raw = eps * n_bar / math.sqrt(k)
        assert raw <= g.block < 2 * raw

    def test_chunk_covers_n_bar_over_k(self):
        g = RoundGeometry(50_000, k=16, eps=0.05)
        assert g.chunk >= 50_000 // 16

    def test_tree_height_consistent(self):
        g = RoundGeometry(100_000, k=16, eps=0.01)
        assert g.blocks_per_chunk == 1 << g.height
        assert g.chunk == g.blocks_per_chunk * g.block

    def test_sampling_probability(self):
        g = RoundGeometry(80_000, k=16, eps=0.05)
        assert g.p == pytest.approx(math.sqrt(16) / (0.05 * 80_000))

    def test_tiny_n_bar_degenerates(self):
        g = RoundGeometry(1, k=16, eps=0.05)
        assert g.block == 1
        assert g.p == 1.0

    def test_node_elements(self):
        g = RoundGeometry(50_000, k=16, eps=0.05)
        assert g.node_elements(0) == g.block
        assert g.node_elements(2) == 4 * g.block

    def test_flat_mode_single_level(self):
        g = RoundGeometry(50_000, k=16, eps=0.05, flat=True)
        assert g.height == 0


class TestRandomizedRank:
    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            RandomizedRankScheme(0.0)

    def test_rank_accuracy_random_order(self):
        eps, n, k = 0.05, 40_000, 16
        values = random_permutation_values(n, seed=3)
        sim, svals = run_rank(RandomizedRankScheme(eps), values, k)
        for q in range(0, n, n // 10):
            err = abs(sim.coordinator.estimate_rank(q) - true_rank(svals, q))
            assert err <= 3 * eps * n

    def test_rank_accuracy_sorted_order(self):
        eps, n, k = 0.05, 30_000, 16
        sim, svals = run_rank(RandomizedRankScheme(eps), sorted_values(n), k)
        for q in range(0, n, n // 10):
            err = abs(sim.coordinator.estimate_rank(q) - true_rank(svals, q))
            assert err <= 3 * eps * n

    def test_estimate_total_close(self):
        eps, n, k = 0.05, 30_000, 16
        values = random_permutation_values(n, seed=4)
        sim, _ = run_rank(RandomizedRankScheme(eps), values, k)
        assert abs(sim.coordinator.estimate_total() - n) <= 3 * eps * n

    def test_quantile_query(self):
        eps, n, k = 0.05, 30_000, 16
        values = random_permutation_values(n, seed=5)
        sim, _ = run_rank(RandomizedRankScheme(eps), values, k)
        for phi in (0.25, 0.5, 0.9):
            q = sim.coordinator.quantile(phi)
            # Values are 0..n-1 so value == its rank.
            assert abs(q - phi * n) <= 4 * eps * n

    def test_rank_unbiased_across_seeds(self):
        eps, n, k, runs = 0.1, 8_000, 9, 30
        values = random_permutation_values(n, seed=6)
        x = n // 3
        estimates = []
        for seed in range(runs):
            sim, svals = run_rank(
                RandomizedRankScheme(eps), values, k, seed=seed, stream_seed=7
            )
            estimates.append(sim.coordinator.estimate_rank(x))
        mean = statistics.mean(estimates)
        sem = statistics.stdev(estimates) / math.sqrt(runs)
        assert abs(mean - x) <= 4 * sem + 0.02 * n

    def test_site_space_modest(self):
        eps, n, k = 0.05, 50_000, 16
        values = random_permutation_values(n, seed=8)
        sim, _ = run_rank(RandomizedRankScheme(eps), values, k)
        # Theory space/site is ~1/(eps sqrt(k)) * polylog = tens of words.
        assert sim.space.max_site_words < 1000

    def test_site_space_counts_the_shared_intake_once(self):
        # The paper's per-site space claim must not regress behind the
        # ingest kernel: a site holds a chunk's open buffers once (the
        # shared intake), which is never more than the one-open-buffer-
        # per-level layout it replaced — 205 words at its peak on this
        # stream, against 196 now.
        eps, n, k = 0.05, 50_000, 16
        values = random_permutation_values(n, seed=8)
        sites = [s for s, _ in uniform_sites(n, k, seed=1)]
        sim = Simulation(RandomizedRankScheme(eps), k, seed=0)
        for position, (site_id, value) in enumerate(zip(sites, values)):
            sim.process(site_id, value)
            if position % 97 == 0:
                tree = sim.sites[site_id].tree
                # What each level would hold in an open buffer of its own.
                per_level = sum(
                    tree._backlog(level) for level in range(len(tree.builders))
                )
                assert len(tree.intake) <= per_level
                assert len(tree.intake) < max(b.m for b in tree.builders)
        assert sim.summary()["max_site_space_words"] == 196

    def test_canonical_decomposition_compact(self):
        eps, n, k = 0.05, 50_000, 16
        values = random_permutation_values(n, seed=9)
        sim, _ = run_rank(RandomizedRankScheme(eps), values, k)
        coord = sim.coordinator
        for (rnd, site, chunk), chunk_summaries in coord.chunks.items():
            geometry_height_bound = 20
            assert len(chunk_summaries.nodes) <= geometry_height_bound

    def test_flat_tree_ablation_blows_up_coordinator_state(self):
        # Ablation (DESIGN.md #5): without the binary tree there is no
        # canonical decomposition — the coordinator must retain every
        # leaf block of a chunk (B of them) instead of <= h+1 maximal
        # nodes, so its per-chunk state and per-query work grow by
        # ~B/log B.  (At laptop scale the designed variance penalty is
        # masked by the minimum buffer size, so state is the observable.)
        eps, n, k = 0.02, 30_000, 16
        values = random_permutation_values(n, seed=10)

        def max_nodes_per_chunk(scheme):
            sim, svals = run_rank(scheme, values, k, seed=1, stream_seed=11)
            x = n // 2
            assert abs(
                sim.coordinator.estimate_rank(x) - true_rank(svals, x)
            ) <= 3 * eps * n
            geometry = sim.coordinator.geometry
            full = [
                len(c.nodes)
                for c in sim.coordinator.chunks.values()
            ]
            return max(full), geometry

        tree_nodes, tree_geometry = max_nodes_per_chunk(RandomizedRankScheme(eps))
        flat_nodes, flat_geometry = max_nodes_per_chunk(
            RandomizedRankScheme(eps, flat_tree=True)
        )
        assert tree_nodes <= tree_geometry.height + 1
        assert flat_nodes > tree_nodes


class TestDeterministicRankBaselines:
    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            DeterministicRankScheme(0.0)
        with pytest.raises(ValueError):
            Cormode05RankScheme(0.0)

    @pytest.mark.parametrize("scheme_cls", [DeterministicRankScheme, Cormode05RankScheme])
    def test_rank_accuracy(self, scheme_cls):
        eps, n, k = 0.05, 20_000, 9
        values = random_permutation_values(n, seed=12)
        sim, svals = run_rank(scheme_cls(eps), values, k)
        for q in range(0, n, n // 10):
            err = abs(sim.coordinator.estimate_rank(q) - true_rank(svals, q))
            assert err <= 2 * eps * n

    def test_quantile_query(self):
        eps, n, k = 0.05, 20_000, 9
        values = random_permutation_values(n, seed=13)
        sim, _ = run_rank(DeterministicRankScheme(eps), values, k)
        q = sim.coordinator.quantile(0.5)
        assert abs(q - 0.5 * n) <= 3 * eps * n

    def test_randomized_cheaper_in_words(self):
        eps, n, k = 0.05, 40_000, 16
        values = random_permutation_values(n, seed=14)
        rand, _ = run_rank(RandomizedRankScheme(eps), values, k)
        det, _ = run_rank(DeterministicRankScheme(eps), values, k)
        assert rand.comm.total_words < det.comm.total_words / 4

    def test_snapshot_total_estimate(self):
        eps, n, k = 0.05, 20_000, 9
        values = random_permutation_values(n, seed=15)
        sim, _ = run_rank(DeterministicRankScheme(eps), values, k)
        total = sim.coordinator.estimate_total()
        # Snapshots lag by at most Delta per site.
        assert n - total <= n * eps + k

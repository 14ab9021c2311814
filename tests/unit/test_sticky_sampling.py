"""Unit tests for the sticky sampler (Manku–Motwani counter list)."""

import pytest

from repro.runtime.rng import derive_rng
from repro.sketch import StickySampler


class TestBasics:
    def test_rejects_bad_p(self):
        rng = derive_rng(0, "ss")
        with pytest.raises(ValueError):
            StickySampler(0.0, rng)
        with pytest.raises(ValueError):
            StickySampler(1.5, rng)

    def test_p_one_counts_exactly(self):
        s = StickySampler(1.0, derive_rng(0, "ss1"))
        for item in "aabab":
            s.add(item)
        assert s.count("a") == 3
        assert s.count("b") == 2
        assert s.count("z") == 0

    def test_created_flag(self):
        s = StickySampler(1.0, derive_rng(0, "ss2"))
        created, count = s.add("x")
        assert created and count == 1
        created, count = s.add("x")
        assert not created and count == 2

    def test_existing_counter_always_increments(self):
        s = StickySampler(0.01, derive_rng(0, "ss3"))
        s.counters["x"] = 1  # force-track
        for _ in range(50):
            s.add("x")
        assert s.count("x") == 51

    def test_clear(self):
        s = StickySampler(1.0, derive_rng(0, "ss4"))
        s.add("a")
        s.clear()
        assert s.count("a") == 0
        assert s.n == 0


class TestSamplingBehaviour:
    def test_expected_counter_count(self):
        # All-distinct stream: each item creates a counter with prob p,
        # so E[#counters] = p * n.
        p, n = 0.05, 10_000
        s = StickySampler(p, derive_rng(0, "ss5"))
        for i in range(n):
            s.add(i)
        expected = p * n
        assert 0.6 * expected <= len(s.counters) <= 1.5 * expected

    def test_count_undershoots_by_geometric_misses(self):
        # For a single hot item, count = f - (misses before creation);
        # misses ~ Geometric(p), so f - count has mean about (1-p)/p.
        p, f, trials = 0.2, 500, 300
        total_gap = 0
        for t in range(trials):
            s = StickySampler(p, derive_rng(t, "ss6"))
            for _ in range(f):
                s.add("hot")
            assert s.count("hot") <= f
            total_gap += f - s.count("hot")
        mean_gap = total_gap / trials
        assert abs(mean_gap - (1 - p) / p) < 1.0

    def test_space_words(self):
        s = StickySampler(1.0, derive_rng(0, "ss7"))
        s.add("a")
        s.add("b")
        assert s.space_words() == 2 * 2 + 2

    def test_untracked_arrival_reports_zero(self):
        s = StickySampler(1e-12, derive_rng(0, "ss8"))
        for _ in range(20):
            assert s.add("x") == (False, 0)
        assert s.count("x") == 0
        assert s.n == 20
        assert s.counters == {}

    def test_counts_restart_after_clear(self):
        s = StickySampler(1.0, derive_rng(0, "ss9"))
        for item in "aaab":
            s.add(item)
        s.clear()
        assert s.add("a") == (True, 1)
        assert s.count("a") == 1 and s.count("b") == 0
        assert s.n == 1

    def test_same_seed_same_counters(self):
        stream = [i % 37 for i in range(2000)]
        runs = []
        for _ in range(2):
            s = StickySampler(0.1, derive_rng(11, "ss10"))
            for item in stream:
                s.add(item)
            runs.append(dict(s.counters))
        assert runs[0] == runs[1]

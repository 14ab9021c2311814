"""Unit tests for the exponential histogram and windowed count tracking."""

import pytest

from repro.core.window import WindowedCountScheme
from repro.runtime import Simulation
from repro.sketch.exponential_histogram import ExponentialHistogram


class TestExponentialHistogram:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            ExponentialHistogram(0, 0.1)
        with pytest.raises(ValueError):
            ExponentialHistogram(10, 0.0)

    def test_rejects_time_travel(self):
        eh = ExponentialHistogram(10, 0.1)
        eh.add(5)
        with pytest.raises(ValueError):
            eh.add(4)

    def test_empty_estimate(self):
        eh = ExponentialHistogram(10, 0.1)
        assert eh.estimate() == 0.0
        assert eh.estimate(100) == 0.0

    def test_exact_for_small_counts(self):
        eh = ExponentialHistogram(100, 0.2)
        for t in range(5):
            eh.add(t)
        # With few events, buckets are all size 1 except maybe merging;
        # the estimate stays within the eps bound trivially.
        assert 4.0 <= eh.estimate(4) <= 5.0

    def test_relative_error_bound(self):
        window, eps = 500, 0.1
        eh = ExponentialHistogram(window, eps)
        for t in range(5_000):
            eh.add(t)
            if t >= window and t % 97 == 0:
                estimate = eh.estimate(t)
                # True window count is exactly `window`.
                assert abs(estimate - window) <= 2 * eps * window

    def test_full_expiry(self):
        eh = ExponentialHistogram(10, 0.2)
        for t in range(20):
            eh.add(t)
        assert eh.estimate(100) == 0.0

    def test_partial_expiry_decay(self):
        eh = ExponentialHistogram(100, 0.1)
        for t in range(100):
            eh.add(t)
        full = eh.estimate(99)
        later = eh.estimate(149)  # half the window has aged out
        assert later < full
        assert abs(later - 50) <= 20

    def test_bucket_count_logarithmic(self):
        eps = 0.1
        eh = ExponentialHistogram(10_000, eps)
        for t in range(10_000):
            eh.add(t)
        import math

        bound = (math.ceil(1 / eps) + 1) * (math.log2(10_000) + 2)
        assert len(eh.buckets) <= bound

    def test_snapshot_evaluation_matches_live(self):
        eh = ExponentialHistogram(200, 0.1)
        for t in range(400):
            eh.add(t)
        snap = eh.snapshot()
        for now in (399, 450, 500, 700):
            assert ExponentialHistogram.estimate_from_snapshot(
                snap, now, 200
            ) == pytest.approx(eh.estimate(now))

    def test_bursty_gaps(self):
        eh = ExponentialHistogram(50, 0.1)
        for t in list(range(10)) + list(range(100, 140)):
            eh.add(t)
        # At t=139 the window (89, 139] holds exactly the 40 burst events.
        assert abs(eh.estimate(139) - 40) <= 8

    def test_rejects_eps_at_least_one(self):
        with pytest.raises(ValueError):
            ExponentialHistogram(10, 1.0)

    def test_equal_timestamps_all_count(self):
        eh = ExponentialHistogram(10, 0.5)
        for _ in range(7):
            eh.add(3)
        assert sum(size for _, size in eh.buckets) == 7
        assert eh.estimate(3) >= 7 * (1 - 0.5)
        assert eh.estimate(13) == 0.0

    def test_snapshot_is_a_frozen_copy(self):
        eh = ExponentialHistogram(100, 0.2)
        for t in range(30):
            eh.add(t)
        snap = eh.snapshot()
        before = ExponentialHistogram.estimate_from_snapshot(snap, 29, 100)
        for t in range(30, 60):
            eh.add(t)
        assert ExponentialHistogram.estimate_from_snapshot(snap, 29, 100) == before
        assert sum(s for _, s in snap) == 30

    def test_space_words_tracks_buckets(self):
        eh = ExponentialHistogram(1000, 0.25)
        assert eh.space_words() == 3
        for t in range(100):
            eh.add(t)
        assert eh.space_words() == 2 * len(eh.buckets) + 3


class TestWindowedCountScheme:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            WindowedCountScheme(0, 0.1)
        with pytest.raises(ValueError):
            WindowedCountScheme(100, 1.5)

    def _run(self, timestamps_by_site, window, eps=0.1, k=4):
        sim = Simulation(WindowedCountScheme(window, eps), k, seed=0)
        merged = sorted(
            (t, s) for s, ts in enumerate(timestamps_by_site) for t in ts
        )
        for t, s in merged:
            sim.process(s, t)
        return sim

    def test_steady_state_accuracy(self):
        window, k = 1_000, 4
        # One event per time unit, round-robin across sites.
        sim = Simulation(WindowedCountScheme(window, 0.1), k, seed=0)
        for t in range(10_000):
            sim.process(t % k, t)
        estimate = sim.coordinator.estimate(9_999)
        assert abs(estimate - window) <= 0.25 * window

    def test_decay_without_arrivals(self):
        window, k = 500, 3
        sim = Simulation(WindowedCountScheme(window, 0.1), k, seed=0)
        for t in range(1_000):
            sim.process(t % k, t)
        at_end = sim.coordinator.estimate(999)
        faded = sim.coordinator.estimate(999 + window // 2)
        gone = sim.coordinator.estimate(999 + 2 * window)
        assert faded < at_end
        assert gone == 0.0

    def test_decay_costs_no_messages(self):
        window, k = 500, 3
        sim = Simulation(WindowedCountScheme(window, 0.1), k, seed=0)
        for t in range(1_000):
            sim.process(t % k, t)
        before = sim.comm.total_messages
        sim.coordinator.estimate(999 + window)
        assert sim.comm.total_messages == before

    def test_one_way_capable(self):
        sim = Simulation(WindowedCountScheme(100, 0.1), 3, seed=0, one_way=True)
        for t in range(500):
            sim.process(t % 3, t)
        assert sim.comm.downlink_messages == 0
        assert sim.comm.broadcast_messages == 0

    def test_communication_logarithmic_in_growth(self):
        # Reports fire on (1+eps/2) growth of the window count, which
        # saturates once the window is full: messages stay modest.
        window, k = 1_000, 4
        sim = Simulation(WindowedCountScheme(window, 0.1), k, seed=0)
        for t in range(20_000):
            sim.process(t % k, t)
        # Snapshot ships: O(k * log(window)/eps)-ish, far below n.
        assert sim.comm.uplink_messages < 2_000

    def test_skewed_sites(self):
        window = 400
        sim = Simulation(WindowedCountScheme(window, 0.1), 4, seed=0)
        for t in range(4_000):
            sim.process(0 if t % 4 else 1, t)  # sites 2,3 idle
        estimate = sim.coordinator.estimate(3_999)
        assert abs(estimate - window) <= 0.3 * window

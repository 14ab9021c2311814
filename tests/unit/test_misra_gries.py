"""Unit tests for the Misra–Gries summary."""

import pytest

from repro.sketch import MisraGries


class TestBasics:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MisraGries(0)

    def test_rejects_nonpositive_count(self):
        mg = MisraGries(2)
        with pytest.raises(ValueError):
            mg.add("a", 0)

    def test_exact_when_under_capacity(self):
        mg = MisraGries(10)
        for item in "aabbbcc":
            mg.add(item)
        assert mg.estimate("a") == 2
        assert mg.estimate("b") == 3
        assert mg.estimate("c") == 2
        assert mg.estimate("z") == 0

    def test_counter_limit_respected(self):
        mg = MisraGries(3)
        for item in range(100):
            mg.add(item)
        assert len(mg.counters) <= 3

    def test_batch_add(self):
        mg = MisraGries(4)
        mg.add("a", 10)
        mg.add("b", 5)
        assert mg.estimate("a") == 10
        assert mg.n == 15


class TestGuarantees:
    def test_never_overcounts(self):
        mg = MisraGries(5)
        truth = {}
        stream = [i % 13 for i in range(1000)]
        for item in stream:
            mg.add(item)
            truth[item] = truth.get(item, 0) + 1
        for item, count in truth.items():
            assert mg.estimate(item) <= count

    def test_undercount_bound(self):
        capacity = 9
        mg = MisraGries(capacity)
        truth = {}
        # Skewed stream: item 0 is heavy.
        stream = [0 if i % 3 else i % 50 for i in range(3000)]
        for item in stream:
            mg.add(item)
            truth[item] = truth.get(item, 0) + 1
            for j, c in truth.items():
                assert c - mg.estimate(j) <= mg.n / (capacity + 1) + 1e-9

    def test_heavy_hitters_no_false_negatives(self):
        mg = MisraGries(19)
        stream = [0] * 500 + [1] * 300 + list(range(2, 202))
        for item in stream:
            mg.add(item)
        threshold = 0.2 * mg.n
        hh = mg.heavy_hitters(threshold)
        assert 0 in hh
        assert 1 in hh

    def test_error_bound_value(self):
        mg = MisraGries(9)
        for i in range(100):
            mg.add(i)
        assert mg.error_bound() == 100 / 10

    def test_space_words_tracks_counters(self):
        mg = MisraGries(5)
        for i in range(3):
            mg.add(i)
        assert mg.space_words() == 2 * 3 + 2


class TestDecrementBatching:
    def test_large_batch_absorbed(self):
        mg = MisraGries(2)
        mg.add("a", 100)
        mg.add("b", 50)
        mg.add("c", 80)  # evicts through decrements
        # a survived with decremented count; never overcounts.
        assert mg.estimate("a") <= 100
        assert mg.n == 230

    def test_decrements_bounded_by_stream(self):
        mg = MisraGries(4)
        for i in range(500):
            mg.add(i % 29)
        # Every decrement round removes capacity+1 stream units at once;
        # total decremented mass is at most n / (capacity + 1) per item slot.
        assert mg.decrements <= mg.n / (mg.capacity + 1) + 1


class TestAccounting:
    def test_empty_summary(self):
        mg = MisraGries(3)
        assert mg.estimate("a") == 0
        assert mg.error_bound() == 0.0
        assert mg.heavy_hitters(1) == {}
        assert mg.space_words() == 2

    def test_mass_conservation(self):
        # Each decrement round removes one unit from each of the
        # `capacity` counters and from the arriving item.
        mg = MisraGries(4)
        for i in range(1000):
            mg.add(i % 11, 1 + i % 3)
        assert sum(mg.counters.values()) + (mg.capacity + 1) * mg.decrements == mg.n

    def test_undercount_at_most_decrements(self):
        mg = MisraGries(3)
        truth = {}
        for i in range(600):
            item = i % 7 if i % 4 else 0
            mg.add(item)
            truth[item] = truth.get(item, 0) + 1
        for item, count in truth.items():
            assert 0 <= count - mg.estimate(item) <= mg.decrements

    def test_full_summary_evicts_minimum_counters(self):
        mg = MisraGries(3)
        for item, count in [("a", 5), ("b", 1), ("c", 2)]:
            mg.add(item, count)
        mg.add("d")  # one decrement round: b drops out, d is absorbed
        assert mg.counters == {"a": 4, "c": 1}
        assert mg.decrements == 1
        mg.add("d")  # now there is room
        assert mg.counters == {"a": 4, "c": 1, "d": 1}

    def test_heavy_hitters_filters_by_upper_bound(self):
        mg = MisraGries(10)
        mg.add("big", 60)
        mg.add("mid", 30)
        mg.add("small", 10)
        assert mg.error_bound() == 100 / 11
        assert set(mg.heavy_hitters(35)) == {"big", "mid"}
        assert set(mg.heavy_hitters(50)) == {"big"}

"""Unit tests for the unbiased random-merge quantile summary."""

import math
import random
import statistics

import pytest

from repro.runtime.rng import derive_rng
from repro.sketch import QuantileSketchBuilder, QuantileSummary


class TestQuantileSummary:
    def test_rank_counts_weight_below(self):
        s = QuantileSummary([1, 3, 5], [2.0, 4.0, 8.0])
        assert s.rank(0) == 0
        assert s.rank(2) == 2.0
        assert s.rank(4) == 6.0
        assert s.rank(10) == 14.0

    def test_rank_strictly_below_semantics(self):
        s = QuantileSummary([5], [3.0])
        assert s.rank(5) == 0.0
        assert s.rank(5.0001) == 3.0

    def test_total_weight(self):
        s = QuantileSummary([1, 2], [1.5, 2.5])
        assert s.total_weight == 4.0

    def test_quantile(self):
        s = QuantileSummary(list(range(10)), [1.0] * 10)
        assert s.quantile(0.0) == 0
        assert s.quantile(0.45) == 4
        assert s.quantile(1.0) == 9

    def test_quantile_empty_raises(self):
        with pytest.raises(ValueError):
            QuantileSummary([], []).quantile(0.5)

    def test_size_words(self):
        s = QuantileSummary([1, 2, 3], [1, 1, 1])
        assert s.size_words() == 5


class TestBuilderExactSmall:
    def test_under_one_buffer_is_exact(self):
        b = QuantileSketchBuilder(100, derive_rng(0, "mq"))
        for v in [5, 1, 9, 3]:
            b.add(v)
        s = b.finalize()
        assert s.rank(4) == 2.0
        assert s.total_weight == 4.0

    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError):
            QuantileSketchBuilder(0, derive_rng(0, "mq"))

    def test_builder_rank_matches_finalized(self):
        b = QuantileSketchBuilder(8, derive_rng(0, "mq2"))
        for v in range(100):
            b.add(v)
        s = b.finalize()
        for q in [0, 25, 50, 99]:
            assert b.rank(q) == s.rank(q)


class TestBuilderWeights:
    def test_total_weight_preserved(self):
        # Weights always sum to n exactly, whatever the merge pattern.
        for m in [4, 7, 16]:
            b = QuantileSketchBuilder(m, derive_rng(m, "mq3"))
            n = 533
            for v in range(n):
                b.add(v)
            assert b.finalize().total_weight == n

    def test_power_of_two_consolidation(self):
        # n = m * 2^s leaves exactly one buffer => summary size ~ m.
        m, s = 16, 6
        b = QuantileSketchBuilder(m, derive_rng(0, "mq4"))
        for v in range(m << s):
            b.add(v)
        summary = b.finalize()
        assert len(summary) == m

    def test_space_words_bounded(self):
        m = 32
        b = QuantileSketchBuilder(m, derive_rng(0, "mq5"))
        for v in range(10_000):
            b.add(v)
        # At most one buffer per level plus the partial.
        levels = math.ceil(math.log2(10_000 / m)) + 1
        assert b.space_words() <= m * (levels + 1) + m + 3


class TestUnbiasedness:
    def test_rank_unbiased(self):
        # Mean over independent sketches approaches the true rank.
        n, m, trials = 1024, 8, 400
        values = list(range(n))
        x = 317  # true rank = 317
        estimates = []
        for t in range(trials):
            rng = derive_rng(t, "mq6")
            order = values[:]
            rng.shuffle(order)
            b = QuantileSketchBuilder(m, rng)
            for v in order:
                b.add(v)
            estimates.append(b.finalize().rank(x))
        mean = statistics.mean(estimates)
        sem = statistics.stdev(estimates) / math.sqrt(trials)
        assert abs(mean - 317) <= 4 * sem + 1e-9

    def test_std_error_calibration(self):
        # for_error should deliver std error at most ~the target.
        n, target = 4096, 150.0
        trials = 200
        errors = []
        for t in range(trials):
            rng = derive_rng(t, "mq7")
            b = QuantileSketchBuilder.for_error(n, target, rng)
            for v in range(n):
                b.add(v)
            errors.append(b.finalize().rank(n // 2) - n // 2)
        std = statistics.pstdev(errors)
        assert std <= 1.3 * target
        mean = statistics.mean(errors)
        assert abs(mean) <= 4 * std / math.sqrt(trials) + 1e-9

    def test_for_error_exact_when_loose(self):
        rng = derive_rng(0, "mq8")
        b = QuantileSketchBuilder.for_error(10, 100.0, rng)
        for v in range(10):
            b.add(v)
        # Loose error on a tiny stream: summary is lossless.
        assert b.finalize().rank(5) == 5.0

    def test_for_error_rejects_bad_error(self):
        with pytest.raises(ValueError):
            QuantileSketchBuilder.for_error(100, 0.0, derive_rng(0, "mq9"))


class TestBuilderEdges:
    def test_empty_builder_ranks_zero(self):
        b = QuantileSketchBuilder(8, derive_rng(0, "mq10"))
        assert b.rank(5) == 0.0
        s = b.finalize()
        assert s.rank(5) == 0.0
        assert s.total_weight == 0.0
        with pytest.raises(ValueError):
            s.quantile(0.5)

    def test_single_element(self):
        b = QuantileSketchBuilder(8, derive_rng(0, "mq11"))
        b.add(42)
        s = b.finalize()
        assert s.quantile(0.0) == s.quantile(0.5) == s.quantile(1.0) == 42
        assert s.rank(42) == 0.0
        assert s.rank(43) == 1.0

    def test_extreme_ranks_are_exact(self):
        # Weights always sum to n and every kept value is a stream value,
        # so rank below the minimum is 0 and above the maximum is n.
        n = 3000
        b = QuantileSketchBuilder(16, derive_rng(0, "mq12"))
        values = list(range(n))
        random.Random(5).shuffle(values)
        b.extend(values)
        s = b.finalize()
        assert s.rank(0) == 0.0
        assert s.rank(n) == float(n)
        assert s.quantile(0.0) >= 0 and s.quantile(1.0) <= n - 1

    def test_add_buffer_rejects_wrong_length(self):
        b = QuantileSketchBuilder(4, derive_rng(0, "mq13"))
        with pytest.raises(ValueError):
            b.add_buffer([1, 2, 3])
        with pytest.raises(ValueError):
            b.add_buffer([1, 2, 3, 4, 5])
        assert b.n == 0

    def test_holding_rejects_values_that_fill_a_buffer(self):
        b = QuantileSketchBuilder(4, derive_rng(0, "mq14"))
        b.extend([7, 8])
        with pytest.raises(ValueError):
            b.holding([1, 2])
        assert b.holding([1]).n == 3
        assert b.n == 2

    def test_release_returns_partial_and_rolls_back_n(self):
        b = QuantileSketchBuilder(4, derive_rng(0, "mq15"))
        b.extend([9, 3, 5, 1, 8, 2])
        assert b.release() == [8, 2]
        assert b.n == 4
        assert b.release() == []
        assert b.finalize().total_weight == 4.0


class TestAccuracy:
    """Rank and quantile error of a :meth:`QuantileSketchBuilder.for_error`
    builder, on fixed seeds, against the exact answer."""

    N, TARGET = 4000, 40.0

    @pytest.mark.parametrize("order", ["sorted", "reversed", "random"])
    def test_rank_error_within_four_std_errors(self, order):
        values = list(range(self.N))
        if order == "reversed":
            values.reverse()
        elif order == "random":
            random.Random(7).shuffle(values)
        b = QuantileSketchBuilder.for_error(
            self.N, self.TARGET, derive_rng(0, "acc-" + order)
        )
        for v in values:
            b.add(v)
        s = b.finalize()
        # Values are 0..N-1, so the true rank of q is q.
        for q in range(0, self.N, 50):
            assert abs(s.rank(q) - q) <= 4 * self.TARGET

    def test_quantile_error_within_four_std_errors(self):
        values = list(range(self.N))
        random.Random(3).shuffle(values)
        b = QuantileSketchBuilder.for_error(
            self.N, self.TARGET, derive_rng(3, "acc-q")
        )
        b.extend(values)
        s = b.finalize()
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9]:
            assert abs(s.quantile(phi) - phi * self.N) <= 4 * self.TARGET

    def test_duplicates_handled(self):
        b = QuantileSketchBuilder(8, derive_rng(0, "dup"))
        b.extend([5] * 100 + [10] * 100)
        s = b.finalize()
        assert s.rank(5) == 0.0
        assert s.rank(11) == 200.0
        # std error about n / (2.8 m) ~ 9
        assert s.rank(7) == pytest.approx(100, abs=40)

    def test_space_sublinear(self):
        n = 20_000
        b = QuantileSketchBuilder.for_error(n, 200.0, derive_rng(0, "acc-s"))
        for v in range(n):
            b.add(v)
        assert b.space_words() < n / 10
        assert len(b.finalize()) < n / 10

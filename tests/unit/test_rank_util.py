"""Unit tests for the shared quantile binary-search helper."""

import pytest

from repro.core.rank.util import (
    quantile_from_rank_fn,
    quantile_from_rank_tables,
    step_table,
)


def make_rank_fn(sorted_values):
    import bisect

    return lambda x: float(bisect.bisect_left(sorted_values, x))


class TestQuantileFromRankFn:
    def test_empty_candidates_raise(self):
        with pytest.raises(ValueError):
            quantile_from_rank_fn([], lambda x: 0.0, 1.0)

    def test_exact_median(self):
        values = list(range(100))
        rank = make_rank_fn(values)
        assert quantile_from_rank_fn(values, rank, 50) == 49

    def test_first_and_last(self):
        values = [10, 20, 30]
        rank = make_rank_fn(values)
        assert quantile_from_rank_fn(values, rank, 0) == 10
        assert quantile_from_rank_fn(values, rank, 3) == 30

    def test_target_beyond_mass_returns_max(self):
        values = [1, 2, 3]
        rank = make_rank_fn(values)
        assert quantile_from_rank_fn(values, rank, 100) == 3

    def test_with_duplicates(self):
        values = [5, 5, 5, 9]
        rank = make_rank_fn(values)
        assert quantile_from_rank_fn(values, rank, 2) == 5
        assert quantile_from_rank_fn(values, rank, 4) == 9

    def test_weighted_rank_fn(self):
        # Works with fractional/weighted estimators too.
        candidates = [1.0, 2.0, 3.0]
        rank = lambda x: 10.0 * sum(1 for v in candidates if v < x)
        assert quantile_from_rank_fn(candidates, rank, 15.0) == 2.0


class TestStepTable:
    def test_ranks_are_the_weight_strictly_below(self):
        values, ranks = step_table([3, 1, 2, 1], [4.0, 1.0, 2.0, 0.5])
        assert values == [1, 2, 3]
        assert ranks == [0.0, 1.5, 3.5, 7.5]

    def test_of_equal_values_the_first_given_is_kept(self):
        values, _ = step_table([2.0, 1, 2, 1.0], [1.0] * 4)
        assert [repr(v) for v in values] == ["1", "2.0"]

    def test_empty(self):
        assert step_table([], []) == ([], [0.0])


class TestQuantileFromRankTables:
    def test_one_table_is_its_own_quantile(self):
        table = (*step_table([10, 20, 30], [1.0, 1.0, 2.0]), 4.0)
        answers = [
            quantile_from_rank_tables(table[0], [table], phi)
            for phi in (0, 0.25, 0.5, 0.75, 1, 7)
        ]
        assert answers == [10, 10, 20, 30, 30, 30]

    def test_tables_sum_where_one_has_nothing_stored(self):
        a = (*step_table([1, 5], [10.0, 10.0]), 20.0)
        b = (*step_table([3], [30.0]), 30.0)
        empty = ([], [0.0], 0.0)
        tables = [a, empty, b]
        assert quantile_from_rank_tables([1, 3, 5], tables, 0.2) == 1
        assert quantile_from_rank_tables([1, 3, 5], tables, 0.5) == 3
        assert quantile_from_rank_tables([1, 3, 5], tables, 0.9) == 5

    def test_no_candidates_raise(self):
        with pytest.raises(ValueError, match="no candidate values"):
            quantile_from_rank_tables([], [([], [0.0], 0.0)], 0.5)


class TestTypedTables:
    """A typed column's table and quantiles are the list loop's, bit for
    bit: the loop version is the reference."""

    @pytest.mark.parametrize("dtype", ["int", "float"])
    @pytest.mark.parametrize("seed", range(5))
    def test_typed_table_and_quantiles_equal_the_loop(self, dtype, seed):
        import random

        import numpy as np

        rng = random.Random(seed)
        tables_typed, tables_list = [], []
        for _ in range(3):
            n = rng.randrange(1, 300)
            if dtype == "int":
                values = [rng.randrange(-50, 50) for _ in range(n)]
            else:
                values = [rng.choice([0.5, -0.0, 1e-300, 3.25]) * rng.random()
                          for _ in range(n)]
            weights = [rng.choice([1, 2.5, 1 / 3, 7]) for _ in range(n)]
            column = np.asarray(values)
            typed = step_table(column, weights)
            plain = step_table(values, weights)
            assert type(typed[0]) is np.ndarray
            assert typed[0].tolist() == plain[0]
            assert [repr(v) for v in typed[0].tolist()] == [
                repr(v) for v in plain[0]
            ]
            assert typed[1].tolist() == plain[1]  # exact, not approx
            total = float(sum(weights))
            tables_typed.append((*typed, total))
            tables_list.append((*plain, total))
        candidates = np.unique(np.concatenate([t[0] for t in tables_typed]))
        ordered = sorted(set().union(*(t[0] for t in tables_list)))
        for phi in (0, 0.01, 0.25, 0.5, 0.75, 0.99, 1):
            got = quantile_from_rank_tables(candidates, tables_typed, phi)
            want = quantile_from_rank_tables(ordered, tables_list, phi)
            assert repr(got) == repr(want), phi

    def test_nan_values_keep_the_loop_order(self):
        import numpy as np

        values = [2.0, float("nan"), 1.0, 2.0]
        typed = step_table(np.asarray(values), [1.0] * 4)
        plain = step_table(values, [1.0] * 4)
        assert repr(typed) == repr(plain)

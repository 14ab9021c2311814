"""The count merge of the cross-shard query plane.

Counts sum (:func:`repro.shard.merge.merge_counts`), including the
empty- and single-input edge cases shards produce in practice.  The
frequency and quantile merges combine per-shard candidate answers and
rank functions, not summaries; ``test_merge_golden.py`` freezes them.
"""

from repro.shard.merge import merge_counts


class TestMergeCounts:
    def test_sums(self):
        assert merge_counts([3.0, 4.0, 5.5]) == 12.5

    def test_empty_is_zero(self):
        assert merge_counts([]) == 0.0

    def test_single_value_passes_through(self):
        assert merge_counts([41.0]) == 41.0

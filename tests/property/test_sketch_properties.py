"""Property-based tests (hypothesis) for the streaming sketches."""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.rng import derive_rng
from repro.sketch import (
    GKSummary,
    MisraGries,
    QuantileSketchBuilder,
    SpaceSaving,
    StickySampler,
)

small_streams = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300)
capacities = st.integers(min_value=1, max_value=20)


class TestMisraGriesProperties:
    @given(stream=small_streams, capacity=capacities)
    @settings(max_examples=60, deadline=None)
    def test_undercount_invariant(self, stream, capacity):
        mg = MisraGries(capacity)
        truth = {}
        for item in stream:
            mg.add(item)
            truth[item] = truth.get(item, 0) + 1
        for item, count in truth.items():
            est = mg.estimate(item)
            assert est <= count
            assert count - est <= len(stream) / (capacity + 1)

    @given(stream=small_streams, capacity=capacities)
    @settings(max_examples=60, deadline=None)
    def test_counter_budget(self, stream, capacity):
        mg = MisraGries(capacity)
        for item in stream:
            mg.add(item)
            assert len(mg.counters) <= capacity
            assert all(c > 0 for c in mg.counters.values())

    @given(stream=small_streams, capacity=capacities)
    @settings(max_examples=40, deadline=None)
    def test_n_tracks_stream_length(self, stream, capacity):
        mg = MisraGries(capacity)
        for item in stream:
            mg.add(item)
        assert mg.n == len(stream)


class TestSpaceSavingProperties:
    @given(stream=small_streams, capacity=capacities)
    @settings(max_examples=60, deadline=None)
    def test_overcount_invariant(self, stream, capacity):
        ss = SpaceSaving(capacity)
        truth = {}
        for item in stream:
            ss.add(item)
            truth[item] = truth.get(item, 0) + 1
        for item in ss.counts:
            assert ss.estimate(item) >= truth[item]
            assert ss.estimate(item) - truth[item] <= ss.error_bound()
            assert ss.guaranteed_count(item) <= truth[item]

    @given(stream=small_streams, capacity=capacities)
    @settings(max_examples=40, deadline=None)
    def test_total_count_conserved(self, stream, capacity):
        # Sum of stored counts >= stream length (overestimates only),
        # and is exactly n when nothing was evicted.
        ss = SpaceSaving(capacity)
        for item in stream:
            ss.add(item)
        if len(set(stream)) <= capacity:
            assert sum(ss.counts.values()) == len(stream)
        else:
            assert sum(ss.counts.values()) >= 0


class TestGKProperties:
    @given(
        values=st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=400,
        ),
        eps=st.sampled_from([0.05, 0.1, 0.2]),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_error_bound(self, values, eps):
        gk = GKSummary(eps)
        for v in values:
            gk.add(v)
        svals = sorted(values)
        n = len(values)
        for x in {svals[0], svals[n // 2], svals[-1], svals[-1] + 1}:
            true = bisect.bisect_left(svals, x)
            assert abs(gk.rank(x) - true) <= eps * n + 1

    @given(
        values=st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_g_sums_to_n(self, values):
        gk = GKSummary(0.1)
        for v in values:
            gk.add(v)
        assert sum(gk.g) == len(values)
        assert gk.values == sorted(gk.values)


class TestQuantileSketchProperties:
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=500,
        ),
        m=st.sampled_from([4, 8, 16]),
        seed=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_weight_conservation(self, values, m, seed):
        b = QuantileSketchBuilder(m, derive_rng(seed, "prop"))
        for v in values:
            b.add(v)
        summary = b.finalize()
        assert summary.total_weight == len(values)
        assert summary.values == sorted(summary.values)

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=200
        ),
        seed=st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_monotone(self, values, seed):
        b = QuantileSketchBuilder(8, derive_rng(seed, "prop2"))
        for v in values:
            b.add(v)
        s = b.finalize()
        ranks = [s.rank(x) for x in range(0, 102)]
        assert ranks == sorted(ranks)
        assert ranks[-1] == len(values)

    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=1000), min_size=1, max_size=300
        ),
        split=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_weight_conservation(self, values, split, seed):
        split = min(split, len(values))
        a = QuantileSketchBuilder(8, derive_rng(seed, "pa"))
        b = QuantileSketchBuilder(8, derive_rng(seed, "pb"))
        for v in values[:split]:
            a.add(v)
        for v in values[split:]:
            b.add(v)
        a.merge_from(b)
        assert a.finalize().total_weight == len(values)


class _LoopBuilder:
    """The builder as first written — one ``add`` per element, a
    hand-rolled two-pointer merge, odd/even halving — kept as the
    reference the C-speed primitives must match state for state."""

    def __init__(self, m, rng):
        self.m, self.rng, self.n = m, rng, 0
        self._partial, self._buffers = [], {}

    def add(self, value):
        self.n += 1
        self._partial.append(value)
        if len(self._partial) >= self.m:
            self._partial.sort()
            self._push(0, self._partial)
            self._partial = []

    def _push(self, level, buf):
        while True:
            stack = self._buffers.setdefault(level, [])
            if not stack:
                stack.append(buf)
                return
            a, merged, i, j = stack.pop(), [], 0, 0
            while i < len(a) and j < len(buf):
                if a[i] <= buf[j]:
                    merged.append(a[i])
                    i += 1
                else:
                    merged.append(buf[j])
                    j += 1
            merged.extend(a[i:])
            merged.extend(buf[j:])
            buf = merged[1 if self.rng.random() < 0.5 else 0 :: 2]
            level += 1


def _state(builder):
    # repr, not ==: 3 and 3.0 tie in every comparison, and which of the
    # two survives a halving is exactly what merge stability decides.
    return (
        repr(builder._buffers),
        repr(builder._partial),
        builder.n,
        builder.rng.getstate(),
    )


#: heavy ties, and int/float twins that compare equal but print apart
tied_values = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12).map(float),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=400,
)


class TestQuantileSketchDeliveryIndependence:
    @given(
        values=tied_values,
        m=st.integers(min_value=1, max_value=20),
        cuts=st.lists(st.integers(min_value=0, max_value=400), max_size=12),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_extend_and_add_buffer_equal_repeated_add(
        self, values, m, cuts, seed
    ):
        reference = _LoopBuilder(m, derive_rng(seed, "delivery"))
        one_by_one = QuantileSketchBuilder(m, derive_rng(seed, "delivery"))
        for v in values:
            reference.add(v)
            one_by_one.add(v)
        assert _state(one_by_one) == _state(reference)

        chunked = QuantileSketchBuilder(m, derive_rng(seed, "delivery"))
        bounds = sorted({0, len(values), *(c % (len(values) + 1) for c in cuts)})
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo == m and chunked.n % m == 0:
                chunked.add_buffer(sorted(values[lo:hi]))
            else:
                chunked.extend(values[lo:hi])
        assert _state(chunked) == _state(reference)
        assert repr(chunked.finalize().values) == repr(
            one_by_one.finalize().values
        )

    @given(
        values=tied_values,
        split=st.integers(min_value=0, max_value=400),
        m=st.sampled_from([1, 3, 4, 8]),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_from_matches_the_loop_merge(self, values, split, m, seed):
        split = min(split, len(values))

        def build(cls, label, part):
            builder = cls(m, derive_rng(seed, label))
            for v in part:
                builder.add(v)
            return builder

        a = build(QuantileSketchBuilder, "left", values[:split])
        b = build(QuantileSketchBuilder, "right", values[split:])
        a.merge_from(b)

        # merge_from as first written: buffers level by level, then the
        # partial element by element, all on the absorbing side's RNG.
        ref = build(_LoopBuilder, "left", values[:split])
        other = build(_LoopBuilder, "right", values[split:])
        ref.n += other.n - len(other._partial)
        for level in sorted(other._buffers):
            for buf in other._buffers[level]:
                ref._push(level, list(buf))
        for v in other._partial:
            ref.add(v)
        assert _state(a) == _state(ref)

    @given(
        values=tied_values,
        m=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_holding_and_release_are_inverse_and_draw_nothing(
        self, values, m, seed
    ):
        builder = QuantileSketchBuilder(m, derive_rng(seed, "hold"))
        full = len(values) - len(values) % m
        builder.extend(values[:full])
        before = _state(builder)
        twin = builder.holding(values[full:])
        assert _state(builder) == before
        assert twin.n == len(values) and twin.rng is builder.rng
        assert twin.release() == values[full:]
        assert _state(twin) == before


class TestStickyProperties:
    @given(
        stream=small_streams,
        p=st.sampled_from([0.1, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_counts_never_exceed_truth(self, stream, p, seed):
        s = StickySampler(p, derive_rng(seed, "sticky"))
        truth = {}
        for item in stream:
            s.add(item)
            truth[item] = truth.get(item, 0) + 1
            assert s.count(item) <= truth[item]

    @given(stream=small_streams, seed=st.integers(min_value=0, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_p_one_is_exact(self, stream, seed):
        s = StickySampler(1.0, derive_rng(seed, "sticky1"))
        truth = {}
        for item in stream:
            s.add(item)
            truth[item] = truth.get(item, 0) + 1
        assert all(s.count(j) == c for j, c in truth.items())

"""Property-based tests (hypothesis) for the streaming sketches."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.rng import derive_rng
from repro.sketch import MisraGries, QuantileSketchBuilder, StickySampler

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

    @given(stream=small_streams, capacity=capacities)
    @settings(max_examples=60, deadline=None)
    def test_mass_conservation(self, stream, capacity):
        # A decrement round takes one unit from each of the `capacity`
        # counters and one from the arriving item: nothing else is lost.
        mg = MisraGries(capacity)
        for item in stream:
            mg.add(item)
            assert (
                sum(mg.counters.values()) + (capacity + 1) * mg.decrements
                == mg.n
            )

    @given(
        batches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=60,
        ),
        capacity=capacities,
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_add_equals_repeated_add(self, batches, capacity):
        batched, single = MisraGries(capacity), MisraGries(capacity)
        for item, count in batches:
            batched.add(item, count)
            for _ in range(count):
                single.add(item)
        assert batched.counters == single.counters
        assert (batched.n, batched.decrements) == (single.n, single.decrements)

    @given(stream=small_streams, capacity=capacities)
    @settings(max_examples=60, deadline=None)
    def test_heavy_hitters_have_no_false_negatives(self, stream, capacity):
        mg = MisraGries(capacity)
        truth = {}
        for item in stream:
            mg.add(item)
            truth[item] = truth.get(item, 0) + 1
        threshold = len(stream) / 4
        hh = mg.heavy_hitters(threshold)
        for item, count in truth.items():
            if count >= threshold + mg.error_bound():
                assert item in hh


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

    @given(
        stream=small_streams,
        p=st.sampled_from([0.1, 0.5, 1.0]),
        seed=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_add_reports_creation_and_count(self, stream, p, seed):
        s = StickySampler(p, derive_rng(seed, "sticky2"))
        for item in stream:
            tracked_before = item in s.counters
            created, count = s.add(item)
            assert created == (not tracked_before and item in s.counters)
            assert count == s.count(item)
        assert s.n == len(stream)
        assert s.space_words() == 2 * len(s.counters) + 2

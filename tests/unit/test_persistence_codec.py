"""Unit tests for the snapshot codec (encode/decode/merge semantics)."""

import json
import random

import pytest

from repro.persistence.codec import (
    StateCodecError,
    StateDecoder,
    StateEncoder,
    decode_value,
    encode_value,
    load_object_state,
    object_state,
)
from repro.runtime.rng import derive_rng
from repro.sketch.exponential_histogram import ExponentialHistogram
from repro.sketch.mergeable_quantile import QuantileSketchBuilder
from repro.sketch.misra_gries import MisraGries
from repro.sketch.sticky_sampling import StickySampler


def roundtrip(value):
    """Encode, force through JSON, decode."""
    return decode_value(json.loads(json.dumps(encode_value(value))))


class TestValueRoundtrip:
    def test_scalars(self):
        for value in (None, True, False, 0, -7, 2**80, "x", 1.5, -0.0):
            assert roundtrip(value) == value
            assert type(roundtrip(value)) is type(value)

    def test_non_finite_floats(self):
        assert roundtrip(float("inf")) == float("inf")
        assert roundtrip(float("-inf")) == float("-inf")
        assert roundtrip(float("nan")) != roundtrip(float("nan"))  # nan

    def test_containers(self):
        value = {
            (3, "a"): [1, 2, (4, 5)],
            7: {"nested": {0: 1.25}},
            "plain": None,
        }
        out = roundtrip(value)
        assert out == value
        assert isinstance(list(out)[0], tuple)

    def test_dict_insertion_order_preserved(self):
        value = {"b": 1, "a": 2, "c": 3}
        assert list(roundtrip(value)) == ["b", "a", "c"]

    def test_tuple_keys_stay_hashable(self):
        out = roundtrip({("t0", 42): 1})
        assert out[("t0", 42)] == 1

    def test_rng_stream_continues_identically(self):
        rng = derive_rng(7, "codec-test")
        rng.random()  # advance past the seed state
        twin = roundtrip(rng)
        assert [twin.random() for _ in range(5)] == [
            rng.random() for _ in range(5)
        ]

    def test_unencodable_type_raises(self):
        with pytest.raises(StateCodecError):
            encode_value(object())


class TestSharedReferences:
    def test_shared_rng_alias_survives(self):
        rng = random.Random(3)
        out = roundtrip([rng, rng])
        assert out[0] is out[1]
        assert out[0].random() == random.Random(3).random()

    def test_shared_object_alias_survives(self):
        mg = MisraGries(4)
        mg.add("a")
        out = roundtrip({"x": mg, "y": mg})
        assert out["x"] is out["y"]
        assert out["x"].counters == {"a": 1}

    def test_merge_resolves_ref_to_live_target(self):
        # A site-like object sharing its rng with a nested helper must
        # keep the aliasing when merged into fresh instances.
        sampler = StickySampler(1.0, random.Random(5))
        blob = json.loads(json.dumps(encode_value([sampler, sampler.rng])))
        fresh = StickySampler(1.0, random.Random(0))
        merged = StateDecoder().merge([fresh, fresh.rng], blob)
        assert merged[0] is fresh
        assert merged[1] is fresh.rng  # ref resolved to the merged target


SKETCHES = [
    ("misra-gries", lambda: MisraGries(5), lambda s: [s.add(x) for x in "abcabca"]),
    (
        "misra-gries-decremented",
        lambda: MisraGries(2),
        lambda s: [s.add(i % 5, 1 + i % 3) for i in range(40)],
    ),
    (
        "eh",
        lambda: ExponentialHistogram(50, 0.25),
        lambda s: [s.add(t) for t in range(0, 120, 3)],
    ),
    (
        "sticky",
        lambda: StickySampler(0.5, random.Random(2)),
        lambda s: [s.add(i % 9) for i in range(50)],
    ),
    (
        "quantile-builder",
        lambda: QuantileSketchBuilder(8, random.Random(4)),
        lambda s: [s.add(i * 31 % 257) for i in range(300)],
    ),
]


class TestSketchHooks:
    @pytest.mark.parametrize(
        "factory,feed",
        [(f, feed) for _, f, feed in SKETCHES],
        ids=[name for name, _, _ in SKETCHES],
    )
    def test_state_dict_roundtrip_is_deep_equal(self, factory, feed):
        sketch = factory()
        feed(sketch)
        state = json.loads(json.dumps(sketch.state_dict()))
        twin = factory()
        twin.load_state_dict(state)
        # Deep equality of the re-encoded state is the strongest check:
        # every counter, buffer and RNG word survived the round trip.
        assert twin.state_dict() == sketch.state_dict()

    def test_quantile_builder_restored_answers_identical_queries(self):
        builder = QuantileSketchBuilder(16, random.Random(6))
        for i in range(500):
            builder.add((i * 7919) % 1000)
        twin = QuantileSketchBuilder(16, random.Random(0))
        twin.load_state_dict(builder.state_dict())
        assert twin.n == builder.n
        assert twin.finalize().values == builder.finalize().values
        assert [twin.rank(x) for x in range(0, 1001, 50)] == [
            builder.rank(x) for x in range(0, 1001, 50)
        ]
        # the random-halving stream continues where it left off
        assert twin.rng.random() == builder.rng.random()

    def test_misra_gries_restored_answers_identical_queries(self):
        mg = MisraGries(3)
        for i in range(300):
            mg.add(i % 7 if i % 3 else 0)
        twin = MisraGries(3)
        twin.load_state_dict(json.loads(json.dumps(mg.state_dict())))
        assert twin.counters == mg.counters
        assert (twin.n, twin.decrements) == (mg.n, mg.decrements)
        assert twin.heavy_hitters(50) == mg.heavy_hitters(50)
        for i in range(50):
            mg.add(i % 4)
            twin.add(i % 4)
        assert twin.counters == mg.counters

    def test_sticky_restored_continues_the_same_coin_stream(self):
        s = StickySampler(0.3, random.Random(8))
        for i in range(200):
            s.add(i % 23)
        twin = StickySampler(0.3, random.Random(0))
        twin.load_state_dict(json.loads(json.dumps(s.state_dict())))
        for i in range(200):
            assert twin.add(i % 41) == s.add(i % 41)
        assert twin.counters == s.counters

    def test_eh_restored_estimates_identical(self):
        eh = ExponentialHistogram(60, 0.2)
        for t in range(0, 300, 2):
            eh.add(t)
        twin = ExponentialHistogram(60, 0.2)
        twin.load_state_dict(json.loads(json.dumps(eh.state_dict())))
        for now in (298, 320, 350, 400):
            assert twin.estimate(now) == eh.estimate(now)

    def test_load_rejects_wrong_type(self):
        mg = MisraGries(4)
        with pytest.raises(StateCodecError):
            load_object_state(StickySampler(0.5, random.Random(0)),
                              mg.state_dict())

    def test_refuses_non_repro_types_on_decode(self):
        blob = {"__obj__": "os.path:join", "id": 0, "state": {}}
        with pytest.raises(StateCodecError):
            decode_value(blob)


class TestObjectState:
    def test_transient_attrs_are_excluded(self):
        from repro.runtime import Network
        from repro.core.count.deterministic import DeterministicCountSite

        network = Network(2)
        site = DeterministicCountSite(0, network, 0.1)
        state = object_state(site)
        assert "network" not in state["state"]

    def test_network_state_keeps_ledger_and_drop_rng(self):
        from repro.runtime import Network
        from repro.runtime.protocol import Message

        class _Sink:
            def on_message(self, site_id, message):
                pass

        network = Network(2, uplink_drop_rate=0.5, drop_seed=11)
        network.bind(_Sink(), [_stub_site(network, 0), _stub_site(network, 1)])
        for _ in range(50):
            network.send_to_coordinator(0, Message("m", None, 1))
        twin = Network(2, uplink_drop_rate=0.5, drop_seed=11)
        twin.bind(_Sink(), [_stub_site(twin, 0), _stub_site(twin, 1)])
        twin.load_state_dict(json.loads(json.dumps(network.state_dict())))
        assert twin.stats.snapshot() == network.stats.snapshot()
        assert twin.dropped_uplink_messages == network.dropped_uplink_messages
        # Future drop decisions continue the same stream.
        for _ in range(50):
            network.send_to_coordinator(0, Message("m", None, 1))
            twin.send_to_coordinator(0, Message("m", None, 1))
        assert twin.dropped_uplink_messages == network.dropped_uplink_messages


def _stub_site(network, site_id):
    from repro.runtime import Site

    class _StubSite(Site):
        def on_element(self, item):
            pass

        def space_words(self):
            return 0

    return _StubSite(site_id, network)

"""Item carriers through the cluster wire: every column type, every size.

An ingested column travels from the facade to its shard hubs either as
a typed numpy array (all Python ``int`` within int64, or all ``float``)
or as the plain list it arrived as (bools, mixed int/float, ints beyond
int64, strings, tuples).  Whatever the carrier, a 2-hub
``executor="cluster"`` facade must answer exactly like the inline one,
with identical communication ledgers, and every item a site sees must
be a plain Python value — never a numpy scalar.

The walk counter pins the cost model: one n-event ingest through
``ClusterBackend`` runs the snapshot codec (``StateEncoder.encode`` /
``StateDecoder.merge``) a number of times, and hands the frame codec's
walker (``frames._pack_walk``) a number of list elements, that does not
grow with n.
"""

import threading

import pytest

from repro import (
    DeterministicFrequencyScheme,
    RandomizedCountScheme,
    RandomizedRankScheme,
    ShardedTrackingService,
)
from repro.core.frequency.deterministic import DeterministicFrequencySite
from repro.core.rank.randomized import RandomizedRankSite
from repro.exec.remote import ExecHost, LoopThread
from repro.net import frames
from repro.net.transport import TcpTransport
from repro.persistence.codec import StateDecoder, StateEncoder

K = 8
SEED = 41
PLAIN_TYPES = {int, float, bool, str, tuple}


def column(kind, n):
    if kind == "int":
        return [(i * 7919) % 211 for i in range(n)]
    if kind == "float":
        return [((i * 7919) % 211) / 8.0 + 0.1 for i in range(n)]
    if kind == "mixed":
        return [i % 97 if i % 2 else (i % 97) + 0.5 for i in range(n)]
    if kind == "bool":
        return [i % 3 == 0 for i in range(n)]
    if kind == "bigint":
        return [2**70 + (i * 31) % 57 for i in range(n)]
    if kind == "str":
        return [f"s{(i * 31) % 57}" for i in range(n)]
    if kind == "tuple":
        return [("t", (i * 31) % 57) for i in range(n)]
    raise ValueError(kind)


KINDS = ("int", "float", "mixed", "bool", "bigint", "str", "tuple")
SIZES = (0, 1, 4096)


def site_ids(n):
    # bursts of 3 so runs, stretches and shard splits all show up
    return [((i // 3) * 5) % K for i in range(n)]


@pytest.fixture(scope="module")
def hub_hosts():
    loop = LoopThread()
    hosts = [
        loop.call(ExecHost(TcpTransport(), "127.0.0.1:0").start())
        for _ in range(2)
    ]
    yield [host.address for host in hosts]
    for host in hosts:
        loop.call(host.close())
    loop.close()


@pytest.fixture
def seen_types(monkeypatch):
    """Record the type of every item a frequency or rank site is handed."""
    seen = set()
    lock = threading.Lock()

    def recording(method):
        def wrapper(self, items):
            with lock:
                seen.update(map(type, items))
            return method(self, items)

        return wrapper

    def recording_one(method):
        def wrapper(self, item):
            with lock:
                seen.add(type(item))
            return method(self, item)

        return wrapper

    for cls in (DeterministicFrequencySite, RandomizedRankSite):
        monkeypatch.setattr(cls, "on_elements", recording(cls.on_elements))
        monkeypatch.setattr(cls, "on_element", recording_one(cls.on_element))
    return seen


def build(service):
    service.register("total", RandomizedCountScheme(0.05))
    service.register("hot", DeterministicFrequencyScheme(0.05))
    service.register("med", RandomizedRankScheme(0.05))
    return service


def answers(service, probe):
    out = []
    for job, method, args in (
        ("total", None, ()),
        ("hot", "top_items", (5,)),
        ("hot", "estimate_frequency", (probe,)),
        ("med", "estimate_rank", (probe,)),
        ("med", "quantile", (0.5,)),
    ):
        try:
            value = service.query(job, method, *args)
        except Exception as exc:  # compared like an answer
            value = (type(exc).__name__, str(exc))
        out.append((job, method, repr(value)))
    return out, service.status()["comm"]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", KINDS)
def test_cluster_matches_inline_for_every_carrier(
    kind, n, hub_hosts, seen_types
):
    ids, items = site_ids(n), column(kind, n)
    probe = items[0] if items else column(kind, 1)[0]
    inline = build(
        ShardedTrackingService(num_sites=K, num_shards=2, seed=SEED)
    )
    cluster = build(
        ShardedTrackingService(
            num_sites=K, num_shards=2, seed=SEED,
            executor="cluster", hub_addresses=hub_hosts,
        )
    )
    try:
        assert inline.ingest(ids, items) == n
        want = answers(inline, probe)
        inline_types = set(seen_types)
        seen_types.clear()
        assert cluster.ingest(list(ids), list(items)) == n
        assert answers(cluster, probe) == want
    finally:
        cluster.close()
        inline.close()
    expected = set(map(type, items))
    assert inline_types == expected
    assert seen_types == expected
    assert seen_types <= PLAIN_TYPES


@pytest.fixture
def walks(monkeypatch):
    """Count snapshot-codec calls and the list elements the frame codec
    walks (both process-wide: the self-hosted hub shares it)."""
    counts = {"encode": 0, "merge": 0, "walked": 0}
    encode, merge = StateEncoder.encode, StateDecoder.merge
    pack_walk = frames._pack_walk

    def counting_encode(self, value):
        counts["encode"] += 1
        return encode(self, value)

    def counting_merge(self, target, encoded):
        counts["merge"] += 1
        return merge(self, target, encoded)

    def counting_pack_walk(obj, blobs):
        if isinstance(obj, (list, tuple)):  # a typed column is not walked
            counts["walked"] += len(obj)
        return pack_walk(obj, blobs)

    monkeypatch.setattr(StateEncoder, "encode", counting_encode)
    monkeypatch.setattr(StateDecoder, "merge", counting_merge)
    monkeypatch.setattr(frames, "_pack_walk", counting_pack_walk)
    return counts


@pytest.mark.parametrize("kind", ["unit", "int", "float"])
def test_cluster_ingest_walks_no_column(kind, walks):
    service = ShardedTrackingService(
        num_sites=K, num_shards=2, seed=SEED, executor="cluster"
    )
    service.register("total", RandomizedCountScheme(0.05))
    service.register("hot", DeterministicFrequencyScheme(0.05))

    def cost(n):
        items = None if kind == "unit" else column(kind, n)
        before = dict(walks)
        assert service.ingest(site_ids(n), items) == n
        return {key: walks[key] - before[key] for key in walks}

    try:
        cost(64)  # warm: first frames on fresh connections
        small, large = cost(64), cost(4096)
    finally:
        service.close()
    assert large == small

"""Property tests for quiet-stretch ingest (``repro.exec.dispatch.drive_batch``).

Whatever the arrival pattern and however the stream is cut into
batches, ``Simulation.run_batched`` and ``TrackingService.ingest`` must
leave a scheme exactly where one-call-per-run delivery in global arrival order leaves it —
transcript, RNG streams, comm ledger *and* the sampled space ledger —
and, space sampling cadence aside, where per-event ``process`` leaves
it.  That holds for every scheme that states a quiet horizon and for
one that states none; a scheme that overstates its horizon must be
caught, not obeyed.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DeterministicCountScheme,
    DeterministicFrequencyScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    RandomizedRankScheme,
    Simulation,
    TrackingService,
)
from repro.runtime import (
    Coordinator,
    HorizonViolation,
    Site,
    TrackingScheme,
    TranscriptRecorder,
    decompose_runs,
)

K = 5
SCHEMES = {
    "count/randomized": lambda: RandomizedCountScheme(0.2),
    "count/deterministic": lambda: DeterministicCountScheme(0.2),
    "frequency/randomized": lambda: RandomizedFrequencyScheme(0.2),
    "rank/randomized": lambda: RandomizedRankScheme(0.2),
    "frequency/deterministic": lambda: DeterministicFrequencyScheme(0.2),
}
QUIET = set(SCHEMES) - {"frequency/deterministic"}

events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=K - 1),
        st.integers(min_value=0, max_value=8),
    ),
    min_size=1,
    max_size=400,
)
cut_points = st.lists(st.integers(min_value=0, max_value=1200), max_size=6)


def batches(stream, cuts):
    """The stream as ``(site_ids, items)`` batches, cut at ``cuts``."""
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    for lo, hi in zip(bounds, bounds[1:]):
        yield [s for s, _ in stream[lo:hi]], [x for _, x in stream[lo:hi]]


def run_by_run(sim, site_ids, items):
    """The reference: one ``on_elements`` per arrival-order run, every
    send delivered at once; a space sweep at the first run end
    ``space_sample_interval`` elements after the last."""
    processed = sim.elements_processed
    next_sweep = processed + sim.space_sample_interval
    for site_id, chunk in decompose_runs(site_ids, items):
        sim.sites[site_id].on_elements(chunk)
        processed += len(chunk)
        if processed >= next_sweep:
            sim.elements_processed = processed
            sim.sample_space()
            next_sweep = processed + sim.space_sample_interval
    sim.elements_processed = processed


def drive(scheme, stream, cuts, seed, drop, interval, how):
    if how == "service":
        service = TrackingService(
            K, seed=seed, uplink_drop_rate=drop, space_sample_interval=interval
        )
        sim = service.register("job", scheme(), seed=seed)
    else:
        sim = Simulation(
            scheme(), K, seed=seed, uplink_drop_rate=drop,
            space_sample_interval=interval,
        )
    recorder = TranscriptRecorder().attach(sim.network)
    if how == "per-event":
        for site_id, item in stream:
            sim.process(site_id, item)
    else:
        for site_ids, items in batches(stream, cuts):
            if how == "run-by-run":
                run_by_run(sim, site_ids, items)
            elif how == "service":
                service.ingest(site_ids, items)
            else:
                sim.run_batched(site_ids, items)
    rngs = [
        rng.getstate()
        for site in sim.sites
        for rng in (
            getattr(site, "rng", None),
            getattr(getattr(site, "sticky", None), "rng", None),
        )
        if rng is not None
    ]
    protocol = (
        recorder.to_bytes(), rngs, sim.comm.snapshot(),
        sim.network.dropped_uplink_messages, sim.elements_processed,
    )
    space = (sim.space.max_words_per_site, sim.space.coordinator_max_words)
    return protocol, space


@pytest.mark.parametrize("name", SCHEMES)
@given(
    stream=events,
    cuts=cut_points,
    seed=st.integers(min_value=0, max_value=50),
    drop=st.sampled_from([0.0, 0.2]),
    interval=st.sampled_from([1, 7, 64]),
    burst=st.sampled_from([1, 1, 5, 40]),
)
@settings(max_examples=40, deadline=None)
def test_any_split_equals_arrival_order_delivery(
    name, stream, cuts, seed, drop, interval, burst
):
    # Long runs take the driver's run-by-run side whatever the scheme.
    stream = [event for event in stream for _ in range(burst)][:1200]
    if name == "rank/randomized":
        drop = 0.0  # the rank site cannot start without its first round
    args = (SCHEMES[name], stream, cuts, seed, drop, interval)
    batched = drive(*args, "batched")
    assert batched == drive(*args, "run-by-run")
    assert batched == drive(*args, "service")
    assert batched[0] == drive(*args, "per-event")[0]


@pytest.mark.parametrize("name", SCHEMES)
def test_only_the_schemes_that_say_so_get_per_site_slices(name):
    """Round-robin arrivals: every run has length 1, so fewer site calls
    than events means sites were handed whole slices."""
    service = TrackingService(K, seed=3)
    service.register("job", SCHEMES[name]())
    n = 2000
    service.ingest([i % K for i in range(n)], [i % 9 for i in range(n)])
    assert service.engine.stats["events"] == n
    if name in QUIET:
        assert service.engine.stats["site_calls"] < n // 4
    else:
        assert service.engine.stats["site_calls"] == n


# -- a scheme that overstates its horizon -----------------------------------


class _LyingSite(Site):
    """Claims the coordinator never answers; it answers every uplink."""

    def __init__(self, site_id, network):
        super().__init__(site_id, network)
        self.n_local = 0
        self.heard = 0

    def on_element(self, item) -> None:
        self.n_local += 1
        self.send("ping", self.n_local)

    def on_message(self, message) -> None:
        self.heard += 1

    def quiet_horizon(self) -> int:
        return sys.maxsize

    def space_words(self) -> int:
        return 2


class _ChattyCoordinator(Coordinator):
    def on_message(self, site_id, message) -> None:
        self.broadcast("pong")


class _LyingScheme(TrackingScheme):
    name = "test/lying"

    def make_coordinator(self, network, k, seed):
        return _ChattyCoordinator(network)

    def make_site(self, network, site_id, k, seed):
        return _LyingSite(site_id, network)


def test_a_site_that_overstates_its_horizon_is_refused():
    sim = Simulation(_LyingScheme(), 3)
    with pytest.raises(HorizonViolation, match="test/lying"):
        sim.run_batched([0, 1, 2, 0, 1, 2])
    # Nothing was delivered behind the sites' backs ...
    assert [site.heard for site in sim.sites] == [0, 0, 0]
    assert sim.comm.broadcast_messages == 0
    # ... and driven live the same scheme is a legal two-way protocol.
    live = Simulation(_LyingScheme(), 3)
    for site_id in [0, 1, 2, 0, 1, 2]:
        live.process(site_id, 1)
    assert [site.heard for site in live.sites] == [6, 6, 6]

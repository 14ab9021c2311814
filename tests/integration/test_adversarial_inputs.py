"""Trackers under the paper's adversarial input constructions.

The Theorem 2.4 stream embeds a fresh 1-bit instance per subround: in
round i, s = k/2 +- sqrt(k) random sites receive 2^i elements each.  An
*upper-bound* algorithm must stay accurate on this input too — the
construction is hard for communication, not for correctness — and its
message count must stay near the sqrt(k)/eps * log N shape.
"""

import math

import pytest

from repro import (
    DeterministicCountScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    Simulation,
)
from repro.workloads import theorem22_distribution, theorem24_stream


class TestTheorem24Stream:
    def test_randomized_tracker_stays_accurate(self):
        k, eps, rounds = 16, 0.05, 8
        stream, history = theorem24_stream(k, eps, rounds, seed=42)
        sim = Simulation(RandomizedCountScheme(eps), k, seed=1)
        truth = 0
        failures = 0
        checks = 0
        for idx, (site, item) in enumerate(stream):
            sim.process(site, item)
            truth += 1
            if idx % max(1, len(stream) // 100) == 0 and truth > 100:
                checks += 1
                if abs(sim.coordinator.estimate() - truth) > 2 * eps * truth:
                    failures += 1
        assert checks >= 50
        # Single copy: constant success probability per check.
        assert failures / checks <= 0.25

    def test_randomized_cheaper_than_det_on_adversarial_input(self):
        k, eps, rounds = 64, 0.01, 6
        stream, _ = theorem24_stream(k, eps, rounds, seed=7)
        rand = Simulation(RandomizedCountScheme(eps), k, seed=2)
        rand.run(stream)
        det = Simulation(DeterministicCountScheme(eps), k, seed=2)
        det.run(stream)
        assert rand.comm.total_messages < det.comm.total_messages

    def test_subround_structure_visible_to_tracker(self):
        # Each subround delivers s * 2^i elements; the tracker's final
        # estimate covers the full stream.
        k, eps, rounds = 16, 0.1, 5
        stream, history = theorem24_stream(k, eps, rounds, seed=3)
        n = len(stream)
        sim = Simulation(RandomizedCountScheme(eps), k, seed=4)
        sim.run(stream)
        assert abs(sim.coordinator.estimate() - n) <= 3 * eps * n


class TestTheorem22Distribution:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_trackers_accurate_on_mu_draws(self, seed):
        k, eps, n = 16, 0.05, 20_000
        stream = list(theorem22_distribution(n, k, seed=seed))
        for scheme in (RandomizedCountScheme(eps), DeterministicCountScheme(eps)):
            sim = Simulation(scheme, k, seed=seed + 10)
            sim.run(stream)
            assert abs(sim.coordinator.estimate() - n) <= 3 * eps * n


class TestUnhashableItemMidBatch:
    """A hostile payload in the middle of an interleaved batch.

    The frequency tracker keys a dict by item, so a list item raises
    inside ``on_elements`` — mid-slice, while the network is holding the
    quiet stretch's uplinks.  The error must surface, the write-ahead
    record must go, and what the sites sent before the failure must be
    on the coordinator's ledger, so the stacks stay usable."""

    K = 4
    EPS = 0.1

    @staticmethod
    def batch(n, offset=0):
        site_ids = [(7 * i + i // 5) % 4 for i in range(offset, offset + n)]
        items = [i % 13 for i in range(offset, offset + n)]
        return site_ids, items

    def register(self, service):
        service.register("total", RandomizedCountScheme(self.EPS))
        service.register("hot", RandomizedFrequencyScheme(self.EPS))

    @staticmethod
    def count_sends(jobs):
        """Wrap every site's ``send``; returns ``{job name: [sent]}``."""
        sent = {}
        for name, job in jobs.items():
            sent[name] = counter = [0]
            for site in job.sites:
                def send(kind, payload=None, words=1, _send=site.send,
                         _counter=counter):
                    _counter[0] += 1
                    _send(kind, payload, words)
                site.send = send
        return sent

    def drive(self, service, hubs):
        """Warm up, fail, recover; ``hubs`` are the plain services whose
        jobs hold the protocol stacks."""
        sent = [self.count_sends(hub.jobs) for hub in hubs]

        def assert_ledgers_match():
            for hub, counters in zip(hubs, sent):
                for name, job in hub.jobs.items():
                    assert job.comm.uplink_messages == counters[name][0]

        assert service.ingest(*self.batch(600)) == 600
        site_ids, items = self.batch(200, offset=600)
        items[100] = [1, 2]  # unhashable
        with pytest.raises(TypeError, match="unhashable"):
            service.ingest(site_ids, items)
        assert_ledgers_match()
        assert service.elements_processed == 600
        assert service.ingest(*self.batch(400, offset=800)) == 400
        assert_ledgers_match()
        assert service.elements_processed == 1000
        # The count job saw the whole bad batch before "hot" raised.
        assert service.query("total") == pytest.approx(1200, rel=3 * self.EPS)
        # Item 0 arrived 1 time in 13; "hot" lost part of one batch.
        assert service.query("hot", "estimate_frequency", 0) == pytest.approx(
            1100 / 13, abs=3 * self.EPS * 1100
        )

    def test_service_rolls_back_and_carries_on(self, tmp_path):
        from repro import TrackingService

        directory = str(tmp_path / "ckpt")
        service = TrackingService(self.K, seed=5, checkpoint_dir=directory)
        self.register(service)
        self.drive(service, [service])
        service.close()
        recovered = TrackingService.restore(directory)
        assert recovered.elements_processed == 1000
        recovered.close()

    def test_sharded_facade_rolls_back_and_carries_on(self, tmp_path):
        from repro.shard import ShardedTrackingService

        directory = str(tmp_path / "ckpt")
        facade = ShardedTrackingService(
            self.K, 2, seed=5, checkpoint_dir=directory
        )
        try:
            self.register(facade)
            hubs = [backend._worker for backend in facade.backends]
            self.drive(facade, hubs)
            applied = [hub.elements_processed for hub in hubs]
        finally:
            facade.close()
        # The hub that raised rolled its sub-batch back; the other had
        # applied and logged its own before the error surfaced.
        bad_ids = self.batch(200, offset=600)[0]
        failed = facade.router.shard_of(bad_ids[100])
        kept = sum(facade.router.shard_of(s) != failed for s in bad_ids)
        assert 0 < kept < 200 and sum(applied) == 1000 + kept
        recovered = ShardedTrackingService.restore(directory)
        try:
            shards = recovered.metrics_sample()["shards"]
            assert [shard["elements"] for shard in shards] == applied
        finally:
            recovered.close()

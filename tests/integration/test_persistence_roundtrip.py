"""Round-trip determinism: checkpoint mid-stream == never stopped.

The durability acceptance bar: for EVERY tracking scheme, snapshotting a
service mid-stream, restoring it (through JSON, like the on-disk path)
and replaying the remainder must yield a service indistinguishable from
one that ingested the whole stream uninterrupted — same communication
ledger (message-for-message costs), same RNG positions, same query
answers, and byte-identical re-encoded state.

A second family covers the crash path proper: snapshot + WAL tail via
``TrackingService.restore`` after abandoning a durable service without a
final checkpoint.
"""

import json

import pytest

from repro import (
    Cormode05RankScheme,
    DeterministicCountScheme,
    DeterministicFrequencyScheme,
    DeterministicRankScheme,
    DistributedSamplingScheme,
    MedianBoostedScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    RandomizedRankScheme,
    TrackingService,
    WindowedCountScheme,
)
from repro.persistence import StateCodecError
from repro.runtime import TranscriptRecorder, batch_from_stream
from repro.workloads import multi_tenant, timestamped

K = 7
N = 6_000
BATCH = 512
SEED = 31


def tenant_batch(n=N, labeled=True):
    return batch_from_stream(
        multi_tenant(n, K, tenants=3, burst=16, seed=4, labeled=labeled)
    )


def timestamp_batch(n=N):
    stream = timestamped(
        multi_tenant(n, K, tenants=3, burst=16, seed=4, labeled=False),
        seed=9,
        period=n / 3,
    )
    return batch_from_stream(stream)


def drive(service, site_ids, items, start, stop):
    for lo in range(start, min(stop, len(site_ids)), BATCH):
        service.ingest(site_ids[lo : lo + BATCH], items[lo : lo + BATCH])


def service_with(scheme_factory, **service_kwargs):
    service = TrackingService(num_sites=K, seed=SEED, **service_kwargs)
    service.register("job", scheme_factory())
    return service


#: (scheme factory, stream builder, [(query method, args), ...])
SCHEME_CASES = [
    ("count/deterministic", lambda: DeterministicCountScheme(0.05),
     tenant_batch, [("estimate", ())]),
    ("count/randomized", lambda: RandomizedCountScheme(0.05),
     tenant_batch, [("estimate", ())]),
    ("frequency/deterministic", lambda: DeterministicFrequencyScheme(0.1),
     tenant_batch, [("top_items", (5,)), ("heavy_hitters", (0.05,))]),
    ("frequency/randomized", lambda: RandomizedFrequencyScheme(0.1),
     tenant_batch, [("top_items", (5,)), ("heavy_hitters", (0.05,))]),
    ("rank/deterministic", lambda: DeterministicRankScheme(0.1),
     lambda: tenant_batch(labeled=False),
     [("quantile", (0.5,)), ("estimate_total", ())]),
    ("rank/cormode05", lambda: Cormode05RankScheme(0.1),
     lambda: tenant_batch(labeled=False),
     [("quantile", (0.5,)), ("estimate_total", ())]),
    ("rank/randomized", lambda: RandomizedRankScheme(0.1),
     lambda: tenant_batch(labeled=False),
     [("quantile", (0.5,)), ("estimate_rank", (500,))]),
    ("sampling/level", lambda: DistributedSamplingScheme(0.1),
     lambda: tenant_batch(labeled=False),
     [("estimate", ()), ("quantile", (0.5,))]),
    ("window/count", lambda: WindowedCountScheme(1500, 0.1),
     timestamp_batch, [("estimate", ())]),
    ("boosted-count", lambda: MedianBoostedScheme(
        RandomizedCountScheme(0.1), 3),
     tenant_batch, [("estimate", ())]),
]


class TestSchemeRoundtrip:
    @pytest.mark.parametrize(
        "factory,make_stream,queries",
        [case[1:] for case in SCHEME_CASES],
        ids=[case[0] for case in SCHEME_CASES],
    )
    def test_checkpoint_restore_replay_matches_uninterrupted(
        self, factory, make_stream, queries
    ):
        site_ids, items = make_stream()
        half = (len(site_ids) // (2 * BATCH)) * BATCH

        interrupted = service_with(factory)
        drive(interrupted, site_ids, items, 0, half)
        # Through JSON: exactly what the snapshot file layer sees.
        state = json.loads(json.dumps(interrupted.state_dict()))
        restored = TrackingService.from_state(state)

        uninterrupted = service_with(factory)
        drive(uninterrupted, site_ids, items, 0, half)

        for service in (restored, uninterrupted):
            drive(service, site_ids, items, half, len(site_ids))

        # Transcript identity: the communication ledger counts every
        # message and word in both directions.
        assert (
            restored.comm.snapshot() == uninterrupted.comm.snapshot()
        )
        assert (
            restored.elements_processed == uninterrupted.elements_processed
        )
        # Query identity, including randomized estimators.
        for method, args in queries:
            assert restored.query("job", method, *args) == uninterrupted.query(
                "job", method, *args
            ), method
        # Deep-state identity: every counter, sketch and RNG position.
        assert restored.state_dict() == uninterrupted.state_dict()

    def test_restore_rejects_mismatched_scheme(self):
        site_ids, items = tenant_batch()
        service = service_with(lambda: RandomizedCountScheme(0.05))
        drive(service, site_ids, items, 0, BATCH)
        state = service.state_dict()
        # Corrupt the job's scheme type in the snapshot.
        state["jobs"][0]["scheme"]["__obj__"] = (
            "repro.core.count.deterministic:DeterministicCountScheme"
        )
        with pytest.raises(Exception):
            TrackingService.from_state(state)


class TestServiceRoundtrip:
    def build(self, **kwargs):
        service = TrackingService(
            num_sites=K, seed=SEED, uplink_drop_rate=0.02, **kwargs
        )
        service.register("total", RandomizedCountScheme(0.05))
        service.register("hh", RandomizedFrequencyScheme(0.1))
        service.register("p50", RandomizedRankScheme(0.1))
        return service

    def queries(self, service):
        return (
            service.query("total"),
            service.query("hh", "top_items", 5),
            service.query("p50", "quantile", 0.5),
        )

    def test_multijob_service_with_faults_roundtrips(self):
        site_ids, items = tenant_batch(labeled=False)
        half = (len(site_ids) // (2 * BATCH)) * BATCH
        a = self.build()
        drive(a, site_ids, items, 0, half)
        b = TrackingService.from_state(
            json.loads(json.dumps(a.state_dict()))
        )
        for service in (a, b):
            drive(service, site_ids, items, half, len(site_ids))
        assert self.queries(a) == self.queries(b)
        assert a.comm.snapshot() == b.comm.snapshot()
        # Fault injection replays identically (drop RNG restored).
        assert (
            a.job("total").network.dropped_uplink_messages
            == b.job("total").network.dropped_uplink_messages
        )
        assert a.state_dict() == b.state_dict()

    def test_crash_recovery_from_wal_tail(self, tmp_path):
        site_ids, items = tenant_batch(labeled=False)
        third = (len(site_ids) // (3 * BATCH)) * BATCH

        durable = self.build(checkpoint_dir=str(tmp_path / "ckpt"))
        drive(durable, site_ids, items, 0, third)
        durable.checkpoint()
        drive(durable, site_ids, items, third, 2 * third)  # WAL-only tail
        durable.close()
        del durable  # crash: no final checkpoint

        reference = self.build()
        drive(reference, site_ids, items, 0, 2 * third)

        recovered = TrackingService.restore(str(tmp_path / "ckpt"))
        assert recovered.elements_processed == reference.elements_processed
        assert self.queries(recovered) == self.queries(reference)
        assert recovered.comm.snapshot() == reference.comm.snapshot()

        # The recovered service keeps logging durably: continue, crash
        # again immediately (no checkpoint), recover again.
        drive(recovered, site_ids, items, 2 * third, len(site_ids))
        final_queries = self.queries(recovered)
        recovered.close()
        del recovered

        drive(reference, site_ids, items, 2 * third, len(site_ids))
        recovered2 = TrackingService.restore(str(tmp_path / "ckpt"))
        assert self.queries(recovered2) == final_queries
        assert self.queries(recovered2) == self.queries(reference)
        recovered2.close()

    def test_mid_stream_registration_replays_in_order(self, tmp_path):
        site_ids, items = tenant_batch(labeled=True)
        durable = TrackingService(
            num_sites=K, seed=SEED, checkpoint_dir=str(tmp_path / "ckpt")
        )
        durable.register("early", RandomizedCountScheme(0.05))
        drive(durable, site_ids, items, 0, 2 * BATCH)
        durable.register("late", RandomizedFrequencyScheme(0.1))
        durable.register("doomed", DeterministicCountScheme(0.1))
        drive(durable, site_ids, items, 2 * BATCH, 4 * BATCH)
        durable.unregister("doomed")
        drive(durable, site_ids, items, 4 * BATCH, 6 * BATCH)
        durable.close()
        del durable  # crash with everything in the WAL (initial snapshot only)

        reference = TrackingService(num_sites=K, seed=SEED)
        reference.register("early", RandomizedCountScheme(0.05))
        drive(reference, site_ids, items, 0, 2 * BATCH)
        reference.register("late", RandomizedFrequencyScheme(0.1))
        reference.register("doomed", DeterministicCountScheme(0.1))
        drive(reference, site_ids, items, 2 * BATCH, 4 * BATCH)
        reference.unregister("doomed")
        drive(reference, site_ids, items, 4 * BATCH, 6 * BATCH)

        recovered = TrackingService.restore(str(tmp_path / "ckpt"))
        assert sorted(recovered.jobs) == ["early", "late"]
        assert recovered.query("early") == reference.query("early")
        assert recovered.query("late", "top_items", 3) == reference.query(
            "late", "top_items", 3
        )
        assert recovered.comm.snapshot() == reference.comm.snapshot()
        recovered.close()

    def test_seq_numbering_survives_full_truncation(self, tmp_path):
        # checkpoint (truncates the whole WAL) -> close -> restore ->
        # ingest -> crash without checkpointing: the second recovery
        # must see the post-restore WAL tail, and a later checkpoint
        # must sort as the newest snapshot.
        site_ids, items = tenant_batch(labeled=False)
        first = self.build(checkpoint_dir=str(tmp_path / "ckpt"))
        drive(first, site_ids, items, 0, 2 * BATCH)
        first.checkpoint()  # covers everything; WAL becomes empty
        first.close()

        second = TrackingService.restore(str(tmp_path / "ckpt"))
        drive(second, site_ids, items, 2 * BATCH, 4 * BATCH)  # WAL only
        second.close()
        del second  # crash, no checkpoint

        third = TrackingService.restore(str(tmp_path / "ckpt"))
        assert third.elements_processed == 4 * BATCH
        third.checkpoint()
        third.close()

        final = TrackingService.restore(str(tmp_path / "ckpt"))
        assert final.elements_processed == 4 * BATCH
        reference = self.build()
        drive(reference, site_ids, items, 0, 4 * BATCH)
        assert self.queries(final) == self.queries(reference)
        final.close()

    def test_failed_ingest_does_not_poison_the_wal(self, tmp_path):
        site_ids, items = tenant_batch(labeled=False)
        durable = self.build(checkpoint_dir=str(tmp_path / "ckpt"))
        drive(durable, site_ids, items, 0, BATCH)
        with pytest.raises(IndexError):
            durable.ingest([10 ** 6], [1])  # site id outside the fleet
        # The write-ahead record of the unappliable batch was rolled
        # back, so recovery replays only the good prefix.
        durable.close()
        recovered = TrackingService.restore(str(tmp_path / "ckpt"))
        assert recovered.elements_processed == BATCH
        recovered.close()

    def test_fresh_checkpoint_dir_must_be_empty(self, tmp_path):
        service = self.build(checkpoint_dir=str(tmp_path / "ckpt"))
        service.close()
        with pytest.raises(ValueError, match="already holds state"):
            TrackingService(num_sites=K, checkpoint_dir=str(tmp_path / "ckpt"))

    def test_restore_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TrackingService.restore(str(tmp_path / "nothing-here"))
        # Inspecting a mistyped path must not conjure state directories.
        assert not (tmp_path / "nothing-here").exists()

    def test_query_api_cannot_reach_state_hooks(self):
        service = self.build()
        for method in ("state_dict", "load_state_dict"):
            with pytest.raises(AttributeError):
                service.query("total", method)


class TestRankMidBlockCheckpoint:
    """The rank tracker holds a chunk's open buffers once, as a shared
    intake; snapshots keep the per-level partial-buffer layout.  Stopping
    where the intake is non-empty must lose nothing, and a snapshot whose
    levels disagree must be refused, not loaded."""

    K = 4
    STOP = 5000  # leaves every site a multiple of no level's buffer size

    def build(self):
        service = TrackingService(num_sites=self.K, seed=SEED)
        service.register("p50", RandomizedRankScheme(0.02))
        return service

    def stream(self):
        site_ids, items = batch_from_stream(
            multi_tenant(9_000, self.K, tenants=3, burst=5, seed=6, labeled=False)
        )
        return site_ids, items

    def encoded_trees(self, state):
        return [
            site["state"]["tree"]["state"]
            for site in state["jobs"][0]["sites"]
        ]

    def test_snapshot_with_open_intake_resumes_the_exact_transcript(self):
        site_ids, items = self.stream()
        interrupted = self.build()
        interrupted.ingest(site_ids[: self.STOP], items[: self.STOP])
        trees = [site.tree for site in interrupted.job("p50").sites]
        assert all(tree.intake for tree in trees)
        assert all(
            tree.count % builder.m for tree in trees for builder in tree.builders
        )

        state = json.loads(json.dumps(interrupted.state_dict()))
        # Encoded per level: every builder carries its own open buffer.
        for tree, encoded in zip(trees, self.encoded_trees(state)):
            assert "intake" not in encoded
            partials = [b["state"]["_partial"] for b in encoded["builders"]]
            assert max(partials, key=len) == tree.intake
            assert all(partials)
        restored = TrackingService.from_state(state)

        uninterrupted = self.build()
        uninterrupted.ingest(site_ids[: self.STOP], items[: self.STOP])
        # Taking the snapshot did not disturb the service it was taken of.
        assert interrupted.state_dict() == uninterrupted.state_dict()

        tails = []
        for service in (restored, uninterrupted):
            recorder = TranscriptRecorder().attach(service.job("p50").network)
            drive(service, site_ids, items, self.STOP, len(site_ids))
            tails.append(recorder.to_bytes())
        assert tails[0] == tails[1] and tails[0]
        for method, args in [
            ("quantile", (0.5,)),
            ("estimate_rank", (500,)),
            ("estimate_total", ()),
        ]:
            assert restored.query("p50", method, *args) == uninterrupted.query(
                "p50", method, *args
            )
        assert restored.comm.snapshot() == uninterrupted.comm.snapshot()
        assert restored.state_dict() == uninterrupted.state_dict()

    def corrupt(self, edit):
        site_ids, items = self.stream()
        service = self.build()
        service.ingest(site_ids[: self.STOP], items[: self.STOP])
        state = json.loads(json.dumps(service.state_dict()))
        builders = self.encoded_trees(state)[0]["builders"]
        edit([b["state"] for b in builders])
        return state

    def test_snapshot_whose_levels_hold_different_elements_is_refused(self):
        def edit(builders):
            builders[0]["_partial"][-1] += 1

        with pytest.raises(StateCodecError, match="chunk-tree snapshot.*per-level layout"):
            TrackingService.from_state(self.corrupt(edit))

    def test_snapshot_whose_levels_disagree_on_the_count_is_refused(self):
        def edit(builders):
            builders[1]["_partial"].pop(0)
            builders[1]["n"] -= 1

        with pytest.raises(StateCodecError, match="chunk-tree snapshot: level 1.*per-level layout"):
            TrackingService.from_state(self.corrupt(edit))

"""Shard subsystem units: router partition, facade surface, backends."""

import pytest

from repro import (
    DeterministicCountScheme,
    DeterministicFrequencyScheme,
    ShardedTrackingService,
)
from repro.service.errors import DuplicateJobError, UnknownJobError
from repro.shard import ShardRouter
from repro.shard.merge import UnmergeableQueryError


class TestShardRouter:
    def test_partition_is_balanced_and_total(self):
        router = ShardRouter(37, 5)
        sizes = router.shard_sizes
        assert sum(sizes) == 37
        assert max(sizes) - min(sizes) <= 1
        seen = set()
        for shard in range(5):
            members = router.members(shard)
            assert [router.local_id(s) for s in members] == list(
                range(len(members))
            )
            seen.update(members)
        assert seen == set(range(37))

    def test_single_shard_is_identity(self):
        router = ShardRouter(8, 1)
        assert [router.local_id(s) for s in range(8)] == list(range(8))
        assert router.shard_of(5) == 0

    def test_deterministic_across_instances(self):
        a, b = ShardRouter(64, 8), ShardRouter(64, 8)
        assert [a.shard_of(s) for s in range(64)] == [
            b.shard_of(s) for s in range(64)
        ]

    def test_split_preserves_order_and_pairs(self):
        router = ShardRouter(10, 3)
        site_ids = [3, 7, 3, 1, 9, 9, 0, 3]
        items = list("abcdefgh")
        rebuilt = {}
        for shard, local_ids, shard_items in router.split(site_ids, items):
            assert len(local_ids) == len(shard_items)
            for local, item in zip(local_ids, shard_items):
                rebuilt.setdefault(shard, []).append((local, item))
        # per-shard order must follow global arrival order
        flattened = [
            (router.shard_of(s), router.local_id(s), it)
            for s, it in zip(site_ids, items)
        ]
        for shard, pairs in rebuilt.items():
            expected = [(l, it) for sh, l, it in flattened if sh == shard]
            assert pairs == expected

    def test_split_unit_stream_keeps_none_items(self):
        router = ShardRouter(6, 2)
        for shard, local_ids, items in router.split([0, 1, 2, 3]):
            assert items is None
            assert len(local_ids)

    def test_split_rejects_bad_site_ids_atomically(self):
        router = ShardRouter(4, 2)
        with pytest.raises(ValueError):
            router.split([0, 1, 4], ["a", "b", "c"])
        with pytest.raises(ValueError):
            router.split([0, -1], None)

    def test_split_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ShardRouter(4, 2).split([0, 1], ["only-one"])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            ShardRouter(4, 5)  # more shards than sites
        with pytest.raises(ValueError):
            ShardRouter(4, 0)
        with pytest.raises(ValueError):
            ShardRouter(0, 1)

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    @pytest.mark.parametrize("with_items", [True, False])
    def test_split_matches_per_event_lookups(self, as_array, with_items):
        import numpy

        router = ShardRouter(12, 4)
        site_ids = [11, 0, 5, 5, 3, 8, 11, 2] * 9
        items = list(range(len(site_ids))) if with_items else None
        # the oracle never calls split(): one lookup per event
        expected = {}
        for position, site in enumerate(site_ids):
            local, sub = expected.setdefault(router.shard_of(site), ([], []))
            local.append(router.local_id(site))
            sub.append(position)
        want = [
            (shard, local, sub if with_items else None)
            for shard, (local, sub) in sorted(expected.items())
        ]
        if as_array:
            got = router.split(
                numpy.asarray(site_ids),
                numpy.asarray(items) if with_items else None,
            )
        else:
            got = router.split(site_ids, items)
        assert [
            (shard, local.tolist(), sub if type(sub) is not numpy.ndarray
             else sub.tolist())
            for shard, local, sub in got
        ] == want
        assert all(local.dtype == numpy.int64 for _, local, _ in got)


class TestShardedServiceSurface:
    def make(self, **kwargs):
        service = ShardedTrackingService(num_sites=8, num_shards=4, seed=2,
                                         **kwargs)
        service.register("count", DeterministicCountScheme(0.05))
        return service

    def test_registry_errors_match_unsharded_semantics(self):
        service = self.make()
        with pytest.raises(DuplicateJobError):
            service.register("count", DeterministicCountScheme(0.05))
        with pytest.raises(UnknownJobError):
            service.query("missing")
        with pytest.raises(ValueError):
            service.register("", DeterministicCountScheme(0.05))
        assert "count" in service and len(service) == 1
        assert service["count"].scheme.name == "count/deterministic"
        service.unregister("count")
        assert "count" not in service
        with pytest.raises(UnknownJobError):
            service.unregister("count")
        service.close()

    def test_relaxed_post_owns_the_callers_arrays(self):
        """A relaxed post runs on the hub's thread after ``ingest``
        returned; the caller refilling its arrays then must not change
        what the hub ingests."""
        import threading

        import numpy as np

        def build(**kwargs):
            service = ShardedTrackingService(
                num_sites=8, num_shards=1, seed=3, **kwargs
            )
            service.register("hot", DeterministicFrequencyScheme(0.05))
            return service

        ids = np.array([i % 8 for i in range(2000)], dtype=np.int64)
        items = np.array([(i * 7) % 13 for i in range(2000)], dtype=np.int64)
        inline = build()
        inline.ingest(ids, items)
        relaxed = build(executor="thread", relaxed=True)
        held = threading.Event()
        relaxed._group.backends[0]._pool.submit(held.wait)  # hub busy
        try:
            assert relaxed.ingest(ids, items) == 2000
            ids[:] = 0
            items[:] = 99
            held.set()
            for probe in (0, 7, 99):
                assert relaxed.query(
                    "hot", "estimate_frequency", probe
                ) == inline.query("hot", "estimate_frequency", probe)
            assert relaxed.status()["comm"] == inline.status()["comm"]
        finally:
            held.set()
            relaxed.close()
            inline.close()

    def test_job_views_track_elements_from_registration(self):
        service = self.make()
        service.ingest([0, 1, 2, 3] * 25)
        service.register("late", DeterministicCountScheme(0.05))
        service.ingest([4, 5, 6, 7] * 25)
        assert service.elements_processed == 200
        assert service.job("count").elements_processed == 200
        assert service.job("late").elements_processed == 100
        service.close()

    def test_status_shape_and_aggregation(self):
        service = self.make()
        service.register("freq", DeterministicFrequencyScheme(0.1))
        service.ingest(
            [i % 8 for i in range(400)], [i % 3 for i in range(400)]
        )
        status = service.status()
        assert status["shards"] == 4 and status["sites"] == 8
        assert status["elements"] == 400
        assert len(status["shard_detail"]) == 4
        assert sum(d["elements"] for d in status["shard_detail"]) == 400
        job = status["jobs"]["count"]
        assert job["elements"] == 400
        assert job["comm"]["total_messages"] > 0
        assert status["comm"]["total_messages"] >= job["comm"]["total_messages"]
        service.close()

    def test_ingest_stream_batches(self):
        service = self.make()
        total = service.ingest_stream(
            ((i % 8, 1) for i in range(1_000)), batch_size=64
        )
        assert total == 1_000 and service.elements_processed == 1_000
        service.close()

    def test_space_budgets_and_overages(self):
        service = ShardedTrackingService(num_sites=8, num_shards=2, seed=0,
                                         space_sample_interval=16)
        assert not service.has_space_budgets()
        service.register(
            "hh", DeterministicFrequencyScheme(0.01), space_budget_words=4
        )
        assert service.has_space_budgets()
        service.ingest(
            [i % 8 for i in range(2_000)], list(range(2_000))
        )
        overages = service.space_overages()
        assert "hh" in overages
        assert overages["hh"]["used"] > overages["hh"]["budget"] == 4
        service.close()

    def test_unmergeable_raises_but_shard_query_works(self):
        service = self.make()
        service.ingest([0, 1, 2, 3])
        with pytest.raises(UnmergeableQueryError):
            service.query("count", "space_words")
        assert service.query_shard(0, "count") >= 0
        with pytest.raises(ValueError):
            service.query_shard(9, "count")
        service.close()

    def test_error_bound_requires_epsilon_scheme(self):
        service = self.make()
        service.ingest([0, 1] * 10)
        accounting = service.error_bound("count")
        assert accounting["bound"] == pytest.approx(0.05 * 20)
        assert len(accounting["per_shard_bounds"]) == 4
        service.close()

    def test_dead_worker_fails_cleanly_without_pipe_desync(self):
        from repro.exec import ExecWorkerError, ProcessBackend

        service = ShardedTrackingService(
            num_sites=8, num_shards=4, seed=4, executor="process"
        )
        service.register("count", DeterministicCountScheme(0.05))
        service.ingest([i % 8 for i in range(200)])
        backend = service._group.backends[2]
        assert isinstance(backend, ProcessBackend)
        backend._proc.kill()
        backend._proc.join(timeout=10)
        with pytest.raises(ExecWorkerError):
            service.ingest([i % 8 for i in range(200)])
        # surviving shards' reply streams must stay aligned: the next
        # fan-out still fails loudly (dead shard) but never returns
        # garbage
        with pytest.raises(ExecWorkerError):
            service.status()
        service.close()

    def test_dead_worker_collect_phase_fails_cleanly(self):
        # The collect-phase dead-pipe path: the worker accepts the
        # command, then dies without replying ("crash" is the hub
        # command table's failure-injection hook).
        from repro.exec import ExecWorkerError

        service = ShardedTrackingService(
            num_sites=8, num_shards=2, seed=4, executor="process"
        )
        service.register("count", DeterministicCountScheme(0.05))
        service.ingest([i % 8 for i in range(100)])
        service._group.backends[1].submit("crash")
        with pytest.raises(ExecWorkerError):
            service.ingest([i % 8 for i in range(100)])
        # the surviving shard still answers on its own
        assert service.query_shard(0, "count") >= 0
        service.close()

    def test_process_restore_after_worker_death_mid_ingest(self, tmp_path):
        from repro.exec import ExecWorkerError

        stream = [i % 8 for i in range(600)]
        reference = ShardedTrackingService(num_sites=8, num_shards=2, seed=4)
        reference.register("count", DeterministicCountScheme(0.05))
        reference.ingest(stream)
        expected = reference.query("count")
        reference.close()

        directory = str(tmp_path / "shards")
        service = ShardedTrackingService(
            num_sites=8, num_shards=2, seed=4, executor="process",
            checkpoint_dir=directory,
        )
        service.register("count", DeterministicCountScheme(0.05))
        service.ingest(stream[:400])
        # worker 1 dies mid-stream; the WAL already holds its batches
        service._group.backends[1]._proc.kill()
        service._group.backends[1]._proc.join(timeout=10)
        with pytest.raises(ExecWorkerError):
            service.ingest(stream[400:])
        service.close()

        restored = ShardedTrackingService.restore(directory, executor="process")
        # shard 0 applied the post-crash batch, shard 1 never acked it:
        # re-send only shard 1's slice is impossible at this surface, so
        # the documented contract is "re-send the failed batch's events
        # for the dead shard after recovery"; here we verify recovery
        # replays exactly what each hub acked durably, then top up the
        # missing slice through the same public ingest path.
        per_shard = restored.status()["shard_detail"]
        assert sum(d["elements"] for d in per_shard) == restored.elements_processed
        missing = [
            s for s in stream[400:]
            if restored.router.shard_of(s) == 1
        ]
        applied_batch = [
            s for s in stream[400:]
            if restored.router.shard_of(s) == 0
        ]
        # shard 0's slice of the failed batch survived in its own WAL
        # (per-hub WAL-ahead), shard 1's did not
        assert restored.status()["shard_detail"][0]["elements"] == sum(
            1 for s in stream if restored.router.shard_of(s) == 0
        )
        assert restored.status()["shard_detail"][1]["elements"] == sum(
            1 for s in stream[:400] if restored.router.shard_of(s) == 1
        )
        restored.ingest(missing)
        assert restored.query("count") == expected
        assert len(applied_batch) + len(missing) == len(stream[400:])
        restored.close()

    def test_backend_restore_revives_a_dead_worker(self, tmp_path):
        # Per-backend restore(): rebuild one dead shard hub from its
        # bundle without tearing down the facade.
        from repro.exec import ExecWorkerError

        directory = str(tmp_path / "shards")
        service = ShardedTrackingService(
            num_sites=8, num_shards=2, seed=4, executor="process",
            checkpoint_dir=directory,
        )
        service.register("count", DeterministicCountScheme(0.05))
        service.ingest([i % 8 for i in range(300)])
        before = service.query("count")
        backend = service._group.backends[1]
        backend._proc.kill()
        backend._proc.join(timeout=10)
        with pytest.raises(ExecWorkerError):
            service.status()
        backend.restore()
        assert service.query("count") == before
        service.close()

    def test_explicit_job_seed_reproduces(self):
        a = ShardedTrackingService(num_sites=8, num_shards=4, seed=1)
        b = ShardedTrackingService(num_sites=8, num_shards=4, seed=99)
        from repro import RandomizedCountScheme

        a.register("j", RandomizedCountScheme(0.05), seed=1234)
        b.register("j", RandomizedCountScheme(0.05), seed=1234)
        stream = [i % 8 for i in range(2_000)]
        a.ingest(stream)
        b.ingest(stream)
        # same explicit job seed => same per-shard derivations => same
        # transcript, independent of the service seeds
        assert a.query("j") == b.query("j")
        a.close()
        b.close()

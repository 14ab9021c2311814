"""The in-flight ledger as the facade and the hub use it.

`tests/unit/test_credit_window.py` pins `CreditWindow` alone; these pin
where its entries are removed:

* on the sharded facade an entry leaves the ledger wherever its reply
  is consumed — a fence, a stray ``dispatch_run`` on one backend (what
  the fleet heartbeat does), the credit loop's own oldest-first collect
  — so ``inflight_runs()`` is exact without any reconciliation, and a
  deferred ingest failure surfaces from that collect exactly once;
* on the coordinator hub a failed relaxed batch clears the ledger,
  completions of the abandoned batch are dropped by epoch, and a
  restore lands on the uninterrupted answer.
"""

import os
from itertools import groupby

import pytest

from repro import DeterministicCountScheme, ShardedTrackingService
from repro.exec import ExecWorkerError
from repro.net import Cluster, SiteUnavailableError

K = 8
SEED = 4


def sub_batch_runs(service, site_ids):
    """Per-shard run weight of one batch, as the facade will post it."""
    runs = [0] * service.num_shards
    for shard, local_ids, _ in service.router.split(site_ids, None):
        runs[shard] = sum(1 for _ in groupby(local_ids))
    return runs


class TestFacadeLedger:
    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_inflight_runs_is_exact_wherever_replies_are_consumed(
        self, executor
    ):
        first = [i % K for i in range(400)]
        second = [(3 * i) % K for i in range(200)]
        service = ShardedTrackingService(
            num_sites=K, num_shards=2, seed=SEED, executor=executor,
            relaxed=True, window=100_000,
        )
        try:
            service.register("count", DeterministicCountScheme(0.05))
            first_runs = sub_batch_runs(service, first)
            second_runs = sub_batch_runs(service, second)
            assert min(first_runs + second_runs) > 0

            service.ingest(first)
            assert service.inflight_runs() == sum(first_runs)
            assert service.pending_commands == 2
            # what the fleet heartbeat does between ingests: a lockstep
            # command on ONE backend, draining that hub's replies only
            service.backends[0].dispatch_run("hub_stats")
            assert service.inflight_runs() == first_runs[1]
            assert service.pending_commands == 1

            service.ingest(second)
            assert service.inflight_runs() == first_runs[1] + sum(second_runs)
            service.fence()
            assert service.inflight_runs() == 0
            assert service.pending_commands == 0
            stats = service.dispatch_stats()
            assert stats["frames_posted"] == 4
            assert stats["runs_posted"] == sum(first_runs + second_runs)
            assert stats["max_inflight_runs"] == (
                first_runs[1] + sum(second_runs)
            )
            assert stats["window_stalls"] == 0
            assert service.query("count") == pytest.approx(
                len(first) + len(second), rel=0.05
            )
        finally:
            service.close()

    def test_deferred_failure_surfaces_once_from_the_credit_reclaim(self):
        batch = [i % K for i in range(100)]
        service = ShardedTrackingService(
            num_sites=K, num_shards=2, seed=SEED, executor="process",
            relaxed=True, per_site_depth=1,
        )
        try:
            service.register("count", DeterministicCountScheme(0.05))
            service.ingest(batch)
            service.fence()
            victim = service.backends[1]
            victim._proc.kill()
            victim._proc.join(timeout=10)

            # posted into the dead pipe: the failure is deferred
            assert service.ingest(batch) == len(batch)
            assert service.pending_commands == 2
            # the next post to the dead hub is at depth; reclaiming its
            # oldest reply is where the failure surfaces
            with pytest.raises(ExecWorkerError):
                service.ingest(batch)
            # ... once: the failed reply was consumed, the post it was
            # making room for never went out, hub 0's is still in flight
            assert [b.pending for b in service.backends] == [1, 0]
            assert service.inflight_runs() == 1
            service.fence()
            assert service.inflight_runs() == 0
            assert service.pending_commands == 0
            assert service.query_shard(0, "count") > 0
        finally:
            service.close()


class TestHubLedger:
    FIRST = [i % K for i in range(800)]
    # three live sites' runs go out before the post to the dead one
    SECOND = [0] * 100 + [1] * 100 + [2] * 100 + [3] * 100

    def failed_batch(self, **kwargs):
        """A windowed relaxed cluster whose second batch died on site 3."""
        cluster = Cluster(
            DeterministicCountScheme(0.02), K, seed=SEED, relaxed=True,
            window=64, per_site_depth=2, record_transcript=False, **kwargs,
        )
        try:
            assert cluster.ingest(self.FIRST) == len(self.FIRST)
            cluster.kill_site(3)
            with pytest.raises(SiteUnavailableError):
                cluster.ingest(self.SECOND)
        except BaseException:
            cluster.close()
            raise
        return cluster

    def test_failed_batch_clears_ledger_and_stale_completions_drop(self):
        cluster = self.failed_batch()
        try:
            hub = cluster.hub
            assert (len(hub.ledger), hub.ledger.weight) == (0, 0)
            assert 0 < hub.dispatch_stats()["max_inflight_runs"] <= 64
            # completions of the abandoned batch may land during the
            # next one: it must count its own elements only
            live = [0] * 50 + [1] * 50
            assert cluster.ingest(live) == len(live)
            # ... and one injected for certain: dropped by epoch
            collected = hub._collected_n
            hub._note_run_done(
                0, {"t": "run_done", "e": hub._run_epoch - 1, "n": 99,
                    "space": 0},
            )
            assert hub._collected_n == collected
            assert (len(hub.ledger), hub.ledger.weight) == (0, 0)
        finally:
            cluster.close()

    def test_restore_after_failed_batch_equals_uninterrupted_run(
        self, tmp_path
    ):
        with Cluster(
            DeterministicCountScheme(0.02), K, seed=SEED,
            record_transcript=False,
        ) as reference:
            reference.ingest(self.FIRST)
            reference.ingest(self.SECOND)
            expected = reference.query()

        ckpt = os.path.join(str(tmp_path), "ckpt")
        self.failed_batch(checkpoint_dir=ckpt).close()
        restored = Cluster.restore(ckpt)
        try:
            # the failed batch was rolled back from the WAL: re-send it
            assert restored.ingest(self.SECOND) == len(self.SECOND)
            assert restored.query() == expected
            assert restored.elements_processed == (
                len(self.FIRST) + len(self.SECOND)
            )
        finally:
            restored.close()

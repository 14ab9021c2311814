"""ExecBackend conformance: one suite, all four placements.

The execution plane's contract is that a worker behaves identically
however it is placed — in the caller's process, behind a thread, in a
subprocess, or on a TCP exec host.  Every test here parametrizes over
all four backends and pins: identical answers for identical seeds,
identical error types, the submit/drain (relaxed) discipline, and the
checkpoint/restore lifecycle.
"""

import threading

import pytest

from repro import (
    DeterministicCountScheme,
    DeterministicFrequencyScheme,
    RandomizedCountScheme,
    ShardedTrackingService,
)
from repro.exec import EXECUTORS, ExecError, make_backend
from repro.exec.workers import hub_spec
from repro.obs.fleet import FleetMonitor
from repro.obs.tracing import trace_scope
from repro.service.errors import DuplicateJobError, UnknownJobError

K = 8
SEED = 3
STREAM = [i % K for i in range(600)]
ITEMS = [i % 17 for i in range(600)]


def hub_backend(executor, **config):
    config.setdefault("num_sites", K)
    config.setdefault("seed", SEED)
    return make_backend(executor, hub_spec(config))


def build_jobs(backend):
    backend.dispatch_run(
        "register", "count", RandomizedCountScheme(0.05), 11, None
    )
    backend.dispatch_run(
        "register", "hot", DeterministicFrequencyScheme(0.1), 12, None
    )


def observed_answers(backend):
    return (
        backend.query("count", None, (), {}),
        backend.query("hot", "top_items", (3,), {}),
        backend.dispatch_run("elements"),
    )


class TestHubConformance:
    def test_identical_answers_across_all_backends(self):
        answers = {}
        for executor in EXECUTORS:
            with hub_backend(executor) as backend:
                build_jobs(backend)
                assert backend.dispatch_batch(STREAM, ITEMS) == len(STREAM)
                answers[executor] = observed_answers(backend)
        reference = answers["inline"]
        assert reference[2] == len(STREAM)
        for executor, got in answers.items():
            assert got == reference, executor

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_error_types_survive_placement(self, executor):
        with hub_backend(executor) as backend:
            build_jobs(backend)
            with pytest.raises(UnknownJobError):
                backend.query("missing", None, (), {})
            with pytest.raises(DuplicateJobError):
                backend.dispatch_run(
                    "register", "count", RandomizedCountScheme(0.05), 1, None
                )
            with pytest.raises(AttributeError):
                backend.query("count", "definitely_not_a_query", (), {})
            # the worker keeps serving after reporting an error
            assert backend.dispatch_run("ping") is True

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_relaxed_submit_then_drain(self, executor):
        with hub_backend(executor) as backend:
            build_jobs(backend)
            posted = backend.dispatch_batch(STREAM, ITEMS, relaxed=True)
            posted += backend.dispatch_batch(STREAM, ITEMS, relaxed=True)
            assert posted == 2 * len(STREAM)
            assert backend.pending >= 1 or executor == "inline"
            # any collecting call fences the outstanding batches first
            assert backend.dispatch_run("elements") == 2 * len(STREAM)
            assert backend.pending == 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_deferred_errors_surface_at_drain(self, executor):
        with hub_backend(executor) as backend:
            build_jobs(backend)
            backend.submit("query", "missing", None, (), {})
            backend.submit("elements")
            with pytest.raises(UnknownJobError):
                backend.drain()
            # the drain consumed the good reply too; the pipe realigns
            assert backend.pending == 0
            assert backend.dispatch_run("elements") == 0

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_checkpoint_restore_roundtrip(self, executor, tmp_path):
        directory = str(tmp_path / f"hub-{executor}")
        with hub_backend(executor, checkpoint_dir=directory) as backend:
            build_jobs(backend)
            backend.dispatch_batch(STREAM, ITEMS)
            path = backend.checkpoint()
            assert isinstance(path, str)
            before = observed_answers(backend)
            backend.dispatch_batch(STREAM, ITEMS)  # post-checkpoint tail
            after = observed_answers(backend)
            backend.restore()
            # WAL-ahead ingest means the tail replays too: the restored
            # worker continues the exact transcript, not the snapshot
            assert observed_answers(backend) == after
            assert after != before

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_restored_facade_reports_its_dispatch_mode(
        self, executor, tmp_path
    ):
        directory = str(tmp_path / f"facade-{executor}")
        writer = ShardedTrackingService(
            K, num_shards=2, seed=SEED, executor=executor,
            checkpoint_dir=directory,
        )
        writer.register("count", RandomizedCountScheme(0.05))
        writer.ingest(STREAM, ITEMS)
        writer.checkpoint()
        writer.close()
        restored = ShardedTrackingService.restore(
            directory, executor=executor, relaxed=True, window=8,
            per_site_depth=2,
        )
        try:
            targets = restored.fleet_targets(threading.Lock())
            monitor = FleetMonitor(targets)
            monitor.poll_round()
            hubs = monitor.snapshot()["hubs"]
            assert [hub["dispatch_mode"] for hub in hubs] == [
                "windowed", "windowed"
            ]
            assert sum(hub["elements"] for hub in hubs) == len(STREAM)
        finally:
            restored.close()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_restore_without_durable_source_raises(self, executor):
        with hub_backend(executor) as backend:
            with pytest.raises(ExecError):
                backend.restore()

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_close_is_idempotent(self, executor):
        backend = hub_backend(executor)
        backend.dispatch_run("ping")
        backend.close()
        backend.close()


class TestUnknownWorkerKind:
    """Hub is the one worker kind; anything else fails at construction."""

    @pytest.mark.parametrize("executor", ["inline", "process"])
    def test_non_hub_kind_rejected_without_leaking_a_worker(self, executor):
        import multiprocessing

        spec = {
            "kind": "sim",
            "config": {
                "scheme": DeterministicCountScheme(0.05),
                "num_sites": K,
                "seed": SEED,
            },
        }
        before = set(multiprocessing.active_children())
        with pytest.raises(ExecError, match="unknown worker kind 'sim'"):
            make_backend(executor, spec)
        assert set(multiprocessing.active_children()) <= before


class TestGroupSemantics:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ExecError):
            make_backend("carrier-pigeon", hub_spec({"num_sites": 2}))

    def test_group_map_posts_all_then_collects(self):
        from repro.exec import make_group

        group = make_group(
            "thread",
            [hub_spec({"num_sites": 2, "seed": s}) for s in (1, 2, 3)],
        )
        try:
            group.map(
                "register",
                [("j", DeterministicCountScheme(0.05), s, None)
                 for s in (1, 2, 3)],
            )
            counts = group.map("ingest", [([0, 1, 0], None)] * 3)
            assert counts == [3, 3, 3]
            group.map("ingest", [([0], None)] * 3, collect=False)
            assert group.pending == 3
            assert group.collect() == [1, 1, 1]
            assert group.pending == 0
        finally:
            group.close()

    def test_group_collect_is_failure_safe(self):
        from repro.exec import make_group

        group = make_group(
            "inline", [hub_spec({"num_sites": 2, "seed": s}) for s in (1, 2)]
        )
        try:
            group.map(
                "register",
                [("j", DeterministicCountScheme(0.05), s, None)
                 for s in (1, 2)],
            )
            # one backend gets a failing command, the other a good one;
            # the good backend's reply must still be consumed
            group.backends[0].submit("query", "missing", None, (), {})
            group.backends[1].submit("elements")
            with pytest.raises(UnknownJobError):
                group.collect()
            assert group.pending == 0
            assert group.map("elements", [(), ()]) == [0, 0]
        finally:
            group.close()


class TestTracePropagation:
    """The caller's trace context rides every placement's envelope."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_submit_carries_trace_to_hub(self, executor):
        with hub_backend(executor) as backend:
            build_jobs(backend)
            with trace_scope({"trace_id": "t-exec", "span_id": "caller"}):
                backend.submit("ingest", STREAM, ITEMS)
            assert backend.drain() == [len(STREAM)]
            spans = backend.dispatch_run("collect_spans")
            ingests = [s for s in spans if s["name"] == "ingest"]
            assert len(ingests) == 1
            assert ingests[0]["trace_id"] == "t-exec"
            assert ingests[0]["parent_id"] == "caller"
            assert ingests[0]["attrs"]["events"] == len(STREAM)
            # collect_spans drains: a second read is empty
            assert backend.dispatch_run("collect_spans") == []

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_untraced_work_records_no_hub_span(self, executor):
        with hub_backend(executor) as backend:
            build_jobs(backend)
            backend.submit("ingest", STREAM, ITEMS)
            assert backend.drain() == [len(STREAM)]
            assert backend.dispatch_run("collect_spans") == []

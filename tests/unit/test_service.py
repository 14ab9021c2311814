"""Unit tests for the multi-tenant tracking service subsystem."""

import pytest

from repro import (
    DeterministicCountScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    TrackingService,
)
from repro.runtime import Simulation, batch_from_stream, decompose_runs
from repro.service import (
    BatchIngestEngine,
    DuplicateJobError,
    TrackingJob,
    UnknownJobError,
)
from repro.workloads import multi_tenant, uniform_sites

np = pytest.importorskip("numpy")


def make_service(k=8, **kwargs):
    return TrackingService(num_sites=k, seed=5, **kwargs)


class TestRegistry:
    def test_register_returns_job(self):
        service = make_service()
        job = service.register("total", RandomizedCountScheme(0.1))
        assert isinstance(job, TrackingJob)
        assert job.name == "total"
        assert service.job("total") is job
        assert service["total"] is job
        assert "total" in service
        assert len(service) == 1

    def test_duplicate_name_rejected(self):
        service = make_service()
        service.register("total", RandomizedCountScheme(0.1))
        with pytest.raises(DuplicateJobError):
            service.register("total", DeterministicCountScheme(0.1))

    def test_bad_names_rejected(self):
        service = make_service()
        with pytest.raises(ValueError):
            service.register("", RandomizedCountScheme(0.1))
        with pytest.raises(ValueError):
            service.register(None, RandomizedCountScheme(0.1))

    def test_unknown_job_raises(self):
        service = make_service()
        with pytest.raises(UnknownJobError):
            service.job("nope")
        with pytest.raises(UnknownJobError):
            service.unregister("nope")
        with pytest.raises(UnknownJobError):
            service.query("nope")

    def test_unregister_removes(self):
        service = make_service()
        job = service.register("x", RandomizedCountScheme(0.1))
        assert service.unregister("x") is job
        assert "x" not in service
        # Name is free again.
        service.register("x", RandomizedCountScheme(0.1))

    def test_distinct_default_seeds_per_job(self):
        service = make_service()
        a = service.register("a", RandomizedCountScheme(0.1))
        b = service.register("b", RandomizedCountScheme(0.1))
        assert a.seed != b.seed

    def test_jobs_view_is_copy(self):
        service = make_service()
        service.register("a", RandomizedCountScheme(0.1))
        view = service.jobs
        view.clear()
        assert "a" in service

    def test_late_registration_sees_only_later_events(self):
        service = make_service(k=4)
        service.register("early", DeterministicCountScheme(0.1))
        service.ingest([0, 1, 2, 3], None)
        late = service.register("late", DeterministicCountScheme(0.1))
        service.ingest([0, 1], None)
        assert service["early"].elements_processed == 6
        assert late.elements_processed == 2


class TestLedgerIsolation:
    def test_per_job_ledgers_and_aggregate(self):
        k, n = 6, 4000
        stream = list(uniform_sites(n, k, seed=2))
        sids, items = batch_from_stream(stream)
        service = make_service(k=k)
        service.register("rand", RandomizedCountScheme(0.1), seed=7)
        service.register("det", DeterministicCountScheme(0.1), seed=7)
        service.ingest(np.asarray(sids), items)

        # Each job's ledger matches the standalone simulation of the same
        # scheme with the same seed — fully isolated from its neighbour.
        for name, scheme in (
            ("rand", RandomizedCountScheme(0.1)),
            ("det", DeterministicCountScheme(0.1)),
        ):
            sim = Simulation(scheme, k, seed=7)
            sim.run(stream)
            assert service[name].comm.snapshot() == sim.comm.snapshot()

        # And the service aggregate is exactly their sum.
        agg = service.comm.snapshot()
        for key in ("uplink_messages", "uplink_words", "total_messages", "total_words"):
            assert agg[key] == (
                service["rand"].comm.snapshot()[key]
                + service["det"].comm.snapshot()[key]
            )

    def test_space_ledgers_are_per_job(self):
        k = 4
        service = make_service(k=k, space_sample_interval=16)
        service.register("freq", RandomizedFrequencyScheme(0.2))
        service.register("count", DeterministicCountScheme(0.2))
        stream = list(uniform_sites(500, k, seed=3))
        service.ingest(*batch_from_stream(stream))
        freq_space = service["freq"].space.max_site_words
        count_space = service["count"].space.max_site_words
        assert freq_space > 0 and count_space > 0
        # A frequency summary dwarfs the two-word count state.
        assert freq_space > count_space


class TestQueryApi:
    def test_default_query_dispatch(self):
        service = make_service(k=4)
        service.register("total", DeterministicCountScheme(0.1))
        service.ingest([0, 1, 2, 3] * 50, None)
        assert service.query("total") > 0

    def test_named_query_with_args(self):
        service = make_service(k=4)
        service.register("hh", RandomizedFrequencyScheme(0.2))
        sids = [i % 4 for i in range(400)]
        items = [i % 7 for i in range(400)]
        service.ingest(sids, items)
        top = service.query("hh", "top_items", 3)
        assert len(top) == 3

    def test_unknown_method_lists_alternatives(self):
        service = make_service(k=4)
        service.register("total", DeterministicCountScheme(0.1))
        with pytest.raises(AttributeError, match="estimate"):
            service.query("total", "quantile", 0.5)

    def test_private_method_rejected(self):
        service = make_service(k=4)
        service.register("total", DeterministicCountScheme(0.1))
        with pytest.raises(AttributeError):
            service.query("total", "_total")

    def test_status_shape(self):
        service = make_service(k=4, space_budget_words=1000)
        service.register("total", RandomizedCountScheme(0.1))
        service.ingest([0, 1, 2, 3] * 25, None)
        status = service.status()
        assert status["sites"] == 4
        assert status["elements"] == 100
        assert set(status["jobs"]) == {"total"}
        job = status["jobs"]["total"]
        # The pods-style resource triple.
        assert set(job["space"]) == {"total", "used", "available"}
        assert job["space"]["total"] == 1000
        used = job["space"]["used"]["max_site_words"]
        assert job["space"]["available"] == 1000 - used
        assert job["comm"]["total_messages"] > 0
        assert job["accuracy"]["epsilon"] == 0.1
        assert job["accuracy"]["estimate"] is not None

    def test_status_without_budget(self):
        service = make_service(k=4)
        service.register("total", RandomizedCountScheme(0.1))
        job = service.status()["jobs"]["total"]
        assert job["space"]["total"] is None
        assert job["space"]["available"] is None


class TestDecomposeRuns:
    def test_runs_preserve_order_and_content(self):
        sids = [0, 0, 1, 1, 1, 0, 2]
        items = list("abcdefg")
        runs = decompose_runs(sids, items)
        assert [s for s, _ in runs] == [0, 1, 0, 2]
        flat = [x for _, chunk in runs for x in chunk]
        assert flat == items

    def test_numpy_and_list_paths_agree(self):
        rng_sids = [i % 3 for i in range(10)] + [1] * 5
        items = list(range(15))
        assert decompose_runs(rng_sids, items) == decompose_runs(
            np.asarray(rng_sids), np.asarray(items)
        )

    def test_none_items_become_unit_runs(self):
        runs = decompose_runs([2, 2, 0], None)
        assert runs == [(2, [1, 1]), (0, [1])]
        runs_np = decompose_runs(np.asarray([2, 2, 0]), None)
        assert runs_np == runs

    def test_empty_batch(self):
        assert decompose_runs([], []) == []
        assert decompose_runs(np.asarray([], dtype=np.int64), None) == []

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decompose_runs([0, 1], [1])
        with pytest.raises(ValueError):
            decompose_runs(np.asarray([0, 1]), [1, 2, 3])

    def test_batch_from_stream_round_trips(self):
        stream = [(0, "a"), (1, "b"), (1, "c")]
        sids, items = batch_from_stream(iter(stream))
        assert sids == [0, 1, 1]
        assert items == ["a", "b", "c"]


class TestEngine:
    def test_engine_ingest_counts(self):
        engine = BatchIngestEngine()
        service = make_service(k=3)
        service.register("a", DeterministicCountScheme(0.1))
        n = engine.ingest(service.jobs.values(), [0, 1, 2, 2], None)
        assert n == 4


class TestMultiTenantWorkload:
    def test_length_and_site_range(self):
        events = list(multi_tenant(1000, 7, tenants=3, seed=1))
        assert len(events) == 1000
        assert all(0 <= s < 7 for s, _ in events)

    def test_labeled_items_carry_tenant(self):
        events = list(multi_tenant(200, 4, tenants=2, seed=1))
        labels = {label for _, (label, _) in events}
        assert labels <= {"t0", "t1"}
        assert len(labels) == 2

    def test_unlabeled_items_are_ints(self):
        events = list(multi_tenant(100, 4, tenants=2, seed=1, labeled=False))
        assert all(isinstance(item, int) for _, item in events)

    def test_bursts_are_contiguous_per_site(self):
        burst = 16
        events = list(multi_tenant(320, 5, tenants=2, burst=burst, seed=2))
        sids = [s for s, _ in events]
        for start in range(0, len(sids), burst):
            assert len(set(sids[start : start + burst])) == 1

    def test_deterministic_under_seed(self):
        a = list(multi_tenant(300, 6, tenants=3, seed=9))
        b = list(multi_tenant(300, 6, tenants=3, seed=9))
        c = list(multi_tenant(300, 6, tenants=3, seed=10))
        assert a == b
        assert a != c

    def test_values_live_in_tenant_slices(self):
        universe = 50
        for _, (label, value) in multi_tenant(
            400, 4, tenants=3, universe=universe, seed=3
        ):
            tenant = int(label[1:])
            assert tenant * universe <= value < (tenant + 1) * universe

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            list(multi_tenant(10, 4, tenants=0))
        with pytest.raises(ValueError):
            list(multi_tenant(10, 4, burst=0))

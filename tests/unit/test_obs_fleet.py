"""FleetMonitor liveness state machine + hub_stats command contract.

The monitor runs with an injected clock and hand-built poll callables,
so every staleness edge and hysteresis episode is deterministic — no
threads, no sleeps.  The ``hub_stats`` tests pin the command's shape
across in-process and subprocess placements (the cluster placement is
covered by the remote-hub integration suite).
"""

import threading

import pytest

from repro import RandomizedCountScheme, ShardedTrackingService
from repro.exec import make_backend
from repro.exec.workers import hub_spec
from repro.obs import MetricsRegistry, render_prometheus
from repro.obs.fleet import FleetMonitor, FleetTarget


class Clock:
    """A manual monotonic clock the poll callables may advance."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class Hub:
    """A scriptable hub: per-poll behavior from a list of directives.

    Each directive is ``("ok", rtt)`` or ``("fail", rtt)``; the last
    one repeats forever.
    """

    def __init__(self, clock, script):
        self.clock = clock
        self.script = list(script)
        self.heartbeat = 0

    def poll(self):
        directive = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        kind, rtt = directive
        self.clock.t += rtt
        if kind == "fail":
            raise ConnectionError("hub unreachable")
        self.heartbeat += 1
        return {
            "heartbeat": self.heartbeat,
            "elements": 10 * self.heartbeat,
            "rounds": self.heartbeat,
            "jobs": {},
            "capacity": {
                "used_words": 50, "budget_words": 100, "ratio": 0.5,
            },
            "process": {"rss_bytes": 1, "open_fds": 2, "uptime_s": 3.0},
        }


def monitor_for(clock, hubs, **kwargs):
    kwargs.setdefault("interval", 1.0)
    kwargs.setdefault("stale_after", 0.5)
    targets = [
        FleetTarget(str(i), hub.poll) for i, hub in enumerate(hubs)
    ]
    return FleetMonitor(targets, clock=clock, **kwargs)


def events_of(monitor, hub="0"):
    return [e["event"] for e in monitor.events() if e["hub"] == hub]


class TestLiveness:
    def test_first_heartbeat_joins_up(self):
        clock = Clock()
        monitor = monitor_for(clock, [Hub(clock, [("ok", 0.01)])])
        monitor.poll_round()
        snap = monitor.snapshot()
        assert snap["hubs"][0]["state"] == "up"
        assert snap["hubs"][0]["heartbeat"] == 1
        (event,) = monitor.events()
        assert event["event"] == "joined"
        assert event["from"] == "unknown" and event["state"] == "up"
        assert event["trace_id"]

    def test_staleness_threshold_edges(self):
        # a reply at exactly stale_after is fresh; epsilon over is stale
        clock = Clock()
        exact = Hub(clock, [("ok", 0.5)])
        over = Hub(clock, [("ok", 0.5 + 1e-9)])
        monitor = monitor_for(clock, [exact, over], stale_after=0.5)
        monitor.poll_round()
        monitor.poll_round()
        states = {h["hub"]: h["state"] for h in monitor.snapshot()["hubs"]}
        assert states == {"0": "up", "1": "degraded"}

    def test_slow_hub_degrades_but_never_goes_down(self):
        clock = Clock()
        slow = Hub(clock, [("ok", 0.9)])  # answers, slower than stale_after
        monitor = monitor_for(clock, [slow], down_failures=2)
        for _ in range(6):
            monitor.poll_round()
        hub = monitor.snapshot()["hubs"][0]
        assert hub["state"] == "degraded"
        assert hub["heartbeat"] == 6  # every poll was answered
        assert "down" not in events_of(monitor)

    def test_down_needs_consecutive_failures(self):
        clock = Clock()
        hub = Hub(clock, [("ok", 0.01), ("fail", 0.01), ("fail", 0.01)])
        monitor = monitor_for(clock, [hub], down_failures=2)
        monitor.poll_round()
        assert monitor.snapshot()["hubs"][0]["state"] == "up"
        monitor.poll_round()  # first failure: degraded, not down
        assert monitor.snapshot()["hubs"][0]["state"] == "degraded"
        monitor.poll_round()  # second consecutive failure: down
        assert monitor.snapshot()["hubs"][0]["state"] == "down"
        assert events_of(monitor) == ["joined", "degraded", "down"]

    def test_one_down_event_per_episode(self):
        clock = Clock()
        # up, then an outage that flaps: single successes never reach
        # recovery_polls, so the episode stays one "down" event
        script = [
            ("ok", 0.01),
            ("fail", 0.01), ("fail", 0.01), ("fail", 0.01),
            ("ok", 0.01), ("fail", 0.01),
            ("ok", 0.01), ("fail", 0.01),
            ("ok", 0.01), ("ok", 0.01),   # real recovery
            ("fail", 0.01), ("fail", 0.01),  # second episode
        ]
        hub = Hub(clock, script)
        monitor = monitor_for(
            clock, [hub], down_failures=2, recovery_polls=2
        )
        for _ in range(len(script)):
            monitor.poll_round()
        assert events_of(monitor) == [
            "joined", "degraded", "down", "recovered", "degraded", "down",
        ]

    def test_recovery_requires_consecutive_ok(self):
        clock = Clock()
        script = [
            ("fail", 0.01), ("fail", 0.01),  # never joined: down
            ("ok", 0.01),                    # one ok is not recovery
            ("ok", 0.01),                    # two is
        ]
        hub = Hub(clock, script)
        monitor = monitor_for(
            clock, [hub], down_failures=2, recovery_polls=2
        )
        monitor.poll_round()
        monitor.poll_round()
        assert monitor.snapshot()["hubs"][0]["state"] == "down"
        monitor.poll_round()
        assert monitor.snapshot()["hubs"][0]["state"] == "down"
        monitor.poll_round()
        assert monitor.snapshot()["hubs"][0]["state"] == "up"
        assert events_of(monitor)[-1] == "recovered"


class TestSurfaces:
    def test_rule_values(self):
        clock = Clock()
        ok = Hub(clock, [("ok", 0.01)])
        dead = Hub(clock, [("fail", 0.01)])
        monitor = monitor_for(clock, [ok, dead], down_failures=2)
        monitor.poll_round()
        monitor.poll_round()
        assert monitor.rule_value("hubs_up") == 1.0
        assert monitor.rule_value("hubs_down") == 1.0
        assert monitor.rule_value("hubs_degraded") == 0.0
        assert monitor.rule_value("capacity_ratio") == 0.5
        assert monitor.rule_value("heartbeat_age_seconds") >= 0.0
        with pytest.raises(ValueError):
            monitor.rule_value("no_such_metric")

    def test_snapshot_aggregates_capacity(self):
        clock = Clock()
        hubs = [Hub(clock, [("ok", 0.01)]) for _ in range(3)]
        monitor = monitor_for(clock, hubs)
        monitor.poll_round()
        snap = monitor.snapshot()
        assert snap["states"]["up"] == 3
        assert snap["capacity"] == {
            "used_words": 150, "budget_words": 300, "ratio": 0.5,
        }

    def test_events_ring_and_limit(self):
        clock = Clock()
        monitor = monitor_for(clock, [Hub(clock, [("ok", 0.01)])])
        monitor.poll_round()
        assert monitor.events(limit=0) == []
        assert len(monitor.events(limit=10)) == 1

    def test_register_metrics_exposes_fleet_families(self):
        clock = Clock()
        monitor = monitor_for(clock, [Hub(clock, [("ok", 0.01)])])
        registry = MetricsRegistry()
        monitor.register_metrics(registry)
        monitor.poll_round()
        text = render_prometheus(registry)
        families = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE repro_fleet_")
        }
        assert len(families) >= 5, sorted(families)
        assert 'repro_fleet_hub_state{hub="0"} 2' in text
        assert 'repro_fleet_hubs{state="up"} 1' in text
        assert 'repro_fleet_space_used_words{hub="0"} 50' in text

    def test_poll_events_carry_resolvable_trace(self):
        clock = Clock()
        monitor = monitor_for(clock, [Hub(clock, [("ok", 0.01)])])
        monitor.poll_round()
        (event,) = monitor.events()
        spans = [
            s for s in monitor.spans.dump()
            if s["trace_id"] == event["trace_id"]
        ]
        assert spans and spans[0]["name"] == "fleet_poll"


class TestHubStatsCommand:
    @pytest.mark.parametrize("executor", ["inline", "thread", "process"])
    def test_hub_stats_across_placements(self, executor):
        backend = make_backend(
            executor, hub_spec({"num_sites": 4, "seed": 7})
        )
        try:
            first = backend.dispatch_run("hub_stats")
            second = backend.dispatch_run("hub_stats")
            assert second["heartbeat"] == first["heartbeat"] + 1
            assert first["elements"] == 0
            assert first["jobs"] == {}
            assert first["engine"]["batches"] == 0
            process = first["process"]
            assert process["rss_bytes"] > 0 or executor == "inline"
            assert process["uptime_s"] >= 0.0
        finally:
            backend.close()

    def test_fleet_record_reads_the_report(self):
        service = ShardedTrackingService(
            num_sites=4, num_shards=2, seed=7, space_budget_words=1000
        )
        try:
            service.register("total", RandomizedCountScheme(0.1))
            service.ingest([0, 1, 2, 3] * 25)
            records = [
                target.poll()
                for target in service.fleet_targets(threading.Lock())
            ]
            for record in records:
                job = record["jobs"]["total"]
                used = job["space_words"]
                assert used > 0
                assert job["space_budget_words"] == 1000
                assert record["capacity"] == {
                    "used_words": used,
                    "budget_words": 1000,
                    "ratio": used / 1000,
                }
                assert record["rounds"] == 1
                assert record["site_calls"] > 0
            assert sum(r["elements"] for r in records) == 100
        finally:
            service.close()

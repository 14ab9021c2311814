"""The fleet telemetry plane end to end: /v1/fleet, metrics, alerts.

A live gateway per test, polled over HTTP like an operator would:
``/v1/fleet`` must report every hub ``up`` with nonzero capacity once
traffic flows, ``/metrics`` must expose the ``repro_fleet_*`` family
set plus build/process self-stats, fleet events must carry trace
exemplars that resolve at ``/v1/trace``, and killing a hub process
must flip it to ``down`` and fire a ``fleet``-kind alert *without any
further ingest* (the monitor's poll rounds wake the evaluator).
"""

import json
import time
import urllib.request

from repro import DeterministicCountScheme
from repro.net.gateway import GatewayThread
from repro.shard import ShardedTrackingService

FLEET_INTERVAL = 0.1

HUB_DOWN_RULES = {
    "rules": [
        {"name": "hub-down", "kind": "fleet", "metric": "hubs_down",
         "op": ">=", "value": 1},
    ],
}


def get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.load(response)


def ingest(gw, n_sites):
    payload = json.dumps({
        "site_ids": list(range(n_sites)) * 4,
        "items": [float(i % 7 + 1) for i in range(n_sites * 4)],
    }).encode()
    request = urllib.request.Request(gw.url + "/v1/ingest", data=payload)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.load(response)


def wait_for(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return predicate()


def fleet_states(gw):
    return get(gw.url + "/v1/fleet")["states"]


def test_sharded_fleet_reports_every_hub_up_with_capacity():
    service = ShardedTrackingService(
        num_sites=8, num_shards=2, seed=11, executor="inline"
    )
    service.register(
        "total", DeterministicCountScheme(0.02), space_budget_words=10_000
    )
    try:
        with GatewayThread(service, fleet_interval=FLEET_INTERVAL) as gw:
            ingest(gw, 8)
            assert wait_for(lambda: fleet_states(gw)["up"] == 2)
            snap = get(gw.url + "/v1/fleet")
            assert snap["capacity"]["used_words"] > 0
            assert snap["capacity"]["budget_words"] == 20_000
            assert 0 < snap["capacity"]["ratio"] < 1
            for hub in snap["hubs"]:
                assert hub["state"] == "up"
                assert hub["heartbeat"] >= 1
                assert hub["rtt_ms"]["last"] is not None
                assert hub["jobs"]["total"]["space_words"] > 0

            with urllib.request.urlopen(
                gw.url + "/metrics", timeout=30
            ) as response:
                text = response.read().decode()
            fleet_families = {
                line.split()[2]
                for line in text.splitlines()
                if line.startswith("# TYPE repro_fleet_")
            }
            assert len(fleet_families) >= 5, sorted(fleet_families)
            assert "repro_build_info{" in text
            assert "repro_process_rss_bytes" in text
            assert "repro_process_open_fds" in text
            assert "repro_process_uptime_seconds" in text
            assert 'repro_fleet_hubs{state="up"} 2' in text

            # every hub joined; the exemplar resolves to its poll span
            events = get(gw.url + "/v1/fleet/events")["events"]
            joined = [e for e in events if e["event"] == "joined"]
            assert {e["hub"] for e in joined} == {"0", "1"}
            trace_id = joined[0]["trace_id"]
            assert trace_id
            spans = get(
                gw.url + f"/v1/trace?trace_id={trace_id}"
            )["spans"]
            assert any(s["name"] == "fleet_poll" for s in spans)
    finally:
        service.close()


def test_one_shard_gateway_monitors_its_inline_hub():
    service = ShardedTrackingService(num_sites=4, num_shards=1, seed=3)
    service.register("total", DeterministicCountScheme(0.05))
    try:
        with GatewayThread(service, fleet_interval=FLEET_INTERVAL) as gw:
            assert wait_for(lambda: fleet_states(gw)["up"] == 1)
            (hub,) = get(gw.url + "/v1/fleet")["hubs"]
            assert (hub["hub"], hub["address"]) == ("0", "InprocBackend")
            assert (hub["dispatch_mode"], hub["pending"]) == ("lockstep", 0)
            assert hub["process"]["rss_bytes"] > 0
    finally:
        service.close()


def test_killed_hub_goes_down_and_fires_fleet_alert():
    service = ShardedTrackingService(
        num_sites=8, num_shards=2, seed=5, executor="process"
    )
    service.register("total", DeterministicCountScheme(0.02))
    try:
        with GatewayThread(
            service,
            fleet_interval=FLEET_INTERVAL,
            alert_rules=HUB_DOWN_RULES,
        ) as gw:
            ingest(gw, 8)
            assert wait_for(lambda: fleet_states(gw)["up"] == 2)
            round_trace = get(gw.url + "/healthz")  # gateway still sane
            assert round_trace["ok"]

            # the poll loop shares the FIFO pipes: inject the crash
            # under the same lock the monitor and ingest path use
            with gw.gateway.ingestor.lock:
                service.backends[1].submit("crash")
            assert wait_for(lambda: fleet_states(gw)["down"] == 1)

            def hub(name):
                snap = get(gw.url + "/v1/fleet")
                return {h["hub"]: h for h in snap["hubs"]}[name]

            assert hub("1")["state"] == "down"
            assert hub("1")["error"]
            # the surviving hub keeps heartbeating
            assert hub("0")["state"] == "up"
            beat = hub("0")["heartbeat"]
            assert wait_for(lambda: hub("0")["heartbeat"] > beat)

            # no ingest after the kill: the fleet rounds alone must
            # step the rule to firing
            def fired():
                events = get(gw.url + "/v1/alerts")["events"]
                return [
                    e for e in events
                    if e["rule"] == "hub-down" and e["state"] == "firing"
                ]
            (event,) = wait_for(fired) or [None]
            assert event, get(gw.url + "/v1/alerts")
            assert event["kind"] == "fleet"
            assert event["value"] >= 1.0

            down_events = [
                e for e in get(gw.url + "/v1/fleet/events")["events"]
                if e["event"] == "down"
            ]
            assert len(down_events) == 1  # one episode, one event
            assert down_events[0]["hub"] == "1"
    finally:
        service.close()


def test_cluster_hubs_expose_tcp_addresses():
    # zero-config cluster: each shard hub self-hosts an ExecHost on an
    # ephemeral TCP port; the fleet surface must name those addresses
    service = ShardedTrackingService(
        num_sites=4, num_shards=2, seed=9, executor="cluster"
    )
    service.register("total", DeterministicCountScheme(0.05))
    try:
        with GatewayThread(service, fleet_interval=FLEET_INTERVAL) as gw:
            assert wait_for(lambda: fleet_states(gw)["up"] == 2)
            snap = get(gw.url + "/v1/fleet")
            for hub in snap["hubs"]:
                assert ":" in (hub["address"] or "")
                assert hub["process"]["pid"] is not None
    finally:
        service.close()

"""The gateway's whole HTTP and ``/metrics`` surface, frozen.

``gateway_surface_golden.json`` was generated at the commit *before* the
route table, the shared predicate evaluator and owner-declared metric
families (``python tests/integration/test_gateway_surface_golden.py``
prints it), when ``Gateway._route`` was an ``if`` chain,
``_route_template`` restated it for the ``route`` label, and
``Gateway._init_metrics`` declared every layer's families.  It pins, for
a 1-shard inline gateway (``one_shard``, what ``repro gateway`` serves
without ``--shards``; regenerated when the gateway stopped serving a
bare ``TrackingService``), a 2-shard inline ``relaxed=True,
window=8192, per_site_depth=2`` one and a 1-shard self-hosted TCP
(``cluster``) one, after one job registration, one subscription, one
ingest, one query and one alert rule of each kind:

* ``families`` — the sorted ``(family, TYPE, HELP, label names)`` list
  of ``GET /metrics``;
* ``children`` — the label sets each ``repro_gateway_`` / ``_service_``
  / ``_shard_`` / ``_exec_`` / ``_net_`` family carries, and ``values``
  — the scraped value of every deterministic bridged sample (a bridge
  that silently stops landing, or lands on another shard label, moves
  one);
* ``routes`` — for every route, an unknown path, wrong methods, bad
  bodies and a missing / unknown API key: ``"METHOD path"`` →
  ``[status, top-level body keys, error text, route label booked in
  repro_gateway_requests_total]``;
* ``fleet`` — each poll target's ``(hub, address sans port, dispatch
  mode)`` as ``/v1/fleet`` reports it;
* ``shapes`` — the key sets (two levels) of ``/healthz``,
  ``/v1/status``, ``/v1/fleet`` and ``/v1/alerts``, and ``rules`` — the
  raw value the evaluator computed for a ``threshold``, ``metrics``,
  ``error_bound`` and ``fleet`` alert rule.
"""

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.net.gateway import GatewayThread
from repro.shard import ShardedTrackingService

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "gateway_surface_golden.json"
)

KEYS = {"key-alpha": "tenant-alpha"}

RULES = {
    "rules": [
        {"name": "r-threshold", "kind": "threshold", "job": "total",
         "op": ">=", "value": 1},
        {"name": "r-metrics", "kind": "metrics",
         "metric": "repro_service_elements_total", "op": ">=", "value": 1},
        {"name": "r-error-bound", "kind": "error_bound", "job": "total",
         "op": ">", "value": 1000},
        {"name": "r-fleet", "kind": "fleet", "metric": "hubs_down",
         "op": ">=", "value": 1},
    ]
}

SERVICES = {
    "one_shard": lambda: ShardedTrackingService(
        num_sites=8, num_shards=1, seed=5,
    ),
    "sharded": lambda: ShardedTrackingService(
        num_sites=8, num_shards=2, seed=5, executor="inline",
        relaxed=True, window=8192, per_site_depth=2,
    ),
    "cluster": lambda: ShardedTrackingService(
        num_sites=8, num_shards=1, seed=5, executor="cluster",
    ),
}

#: families whose children and values are bridged from other layers
BRIDGED = (
    "repro_gateway_", "repro_service_", "repro_shard_", "repro_exec_",
    "repro_net_",
)

#: bridged samples whose value depends on timing or on the probe
#: requests themselves, not on the ingested stream
UNSTABLE_VALUES = (
    "repro_gateway_requests_total", "repro_gateway_inflight_requests",
    "repro_gateway_ingest_queue_stat", "repro_net_",
    "repro_exec_pending_commands", "repro_exec_inflight_runs",
)


def call(url, method, path, body=None, key=None):
    """``(status, parsed JSON or raw text)`` of one request."""
    headers = {"Content-Type": "application/json"}
    if key is not None:
        headers["Authorization"] = f"Bearer {key}"
    if body is not None and not isinstance(body, bytes):
        body = json.dumps(body).encode()
    request = urllib.request.Request(
        url + path, data=body, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status, text = response.status, response.read().decode()
    except urllib.error.HTTPError as exc:
        status, text = exc.code, exc.read().decode()
    try:
        return status, json.loads(text)
    except ValueError:
        return status, text


def booked(gateway):
    """``{(route, method, status): count}`` straight from the family
    (read in-process, so reading it books nothing and runs no bridge)."""
    return dict(gateway.m_requests.samples())


def probe(gw, method, path, body=None, key=None):
    """One request -> ``[status, body keys, error text, route label]``."""
    before = booked(gw.gateway)
    if path.startswith("/v1/stream/") and method == "GET":
        status, payload = stream_hello(gw.url + path, key)
    else:
        status, payload = call(gw.url, method, path, body, key)
    after = booked(gw.gateway)
    moved = [k for k, v in after.items() if v != before.get(k, 0.0)]
    assert len(moved) == 1, (method, path, moved)
    route, booked_method, booked_status = moved[0]
    assert (booked_method, booked_status) == (method, str(status))
    error = None
    if isinstance(payload, dict):
        keys = sorted(payload)
        if isinstance(payload.get("error"), str):
            # the JSON decoder's own wording is not the gateway's surface
            error = payload["error"].split("malformed JSON body:")[0]
    else:
        keys = "text"
    return [status, keys, error, route]


def label(method, path, body):
    """The golden's key for one probe (bodies tell same-path probes apart)."""
    if body is None:
        return f"{method} {path}"
    text = body.decode() if isinstance(body, bytes) else json.dumps(body, sort_keys=True)
    return f"{method} {path} {text}"


def stream_hello(url, key=None):
    """Open an SSE stream, read its hello event, hang up."""
    headers = {} if key is None else {"Authorization": f"Bearer {key}"}
    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            lines = [response.readline().decode().strip() for _ in range(3)]
            assert "event: hello" in lines, lines
            return response.status, "event-stream"
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def shape(value, depth=2):
    """Key sets, ``depth`` levels down (lists show their first entry)."""
    if isinstance(value, list):
        return [shape(value[0], depth)] if value else []
    if not isinstance(value, dict) or depth == 0:
        return type(value).__name__ if value is not None else None
    return {key: shape(value[key], depth - 1) for key in sorted(value)}


def wait_for(predicate, what):
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def families_of(gw):
    """Sorted ``[family, TYPE, HELP, label names]`` of ``GET /metrics``."""
    status, text = call(gw.url, "GET", "/metrics")
    assert status == 200
    helps, types = {}, {}
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            helps[name] = help_text
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            types[name] = kind
    with gw.gateway.ingestor.lock:  # collectors fan out to the hubs
        collected = gw.gateway.registry.collect()
    labels = {f.name: list(f.label_names) for f in collected}
    assert set(helps) == set(types) == set(labels)
    return [[name, types[name], helps[name], labels[name]] for name in sorted(types)]


def bridged_of(gw):
    """``(children, values)`` of the bridged families, via /v1/metrics."""
    status, registry = call(gw.url, "GET", "/v1/metrics")
    assert status == 200
    children, values = {}, {}
    for name, family in sorted(registry.items()):
        if not name.startswith(BRIDGED):
            continue
        rendered = []
        for sample in family["samples"]:
            label = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
            rendered.append(label)
            if family["kind"] != "histogram" and not name.startswith(UNSTABLE_VALUES):
                values[f"{name}{{{label}}}"] = sample["value"]
        children[name] = sorted(rendered)
    return children, values


def drive(gw):
    """One registration, subscription, ingest and query; then wait for
    the evaluator and the first fleet round so every read is settled."""
    routes = {}
    routes["POST /v1/jobs"] = probe(
        gw, "POST", "/v1/jobs",
        {"name": "total", "spec": "count/randomized:0.05",
         "space_budget_words": 100000},
    )
    status, sub = call(
        gw.url, "POST", "/v1/subscribe",
        {"kind": "threshold", "job": "total", "op": ">=", "value": 2},
    )
    assert status == 200 and sub["value"]["crossed"] is False, sub
    routes["POST /v1/ingest"] = probe(
        gw, "POST", "/v1/ingest",
        {"site_ids": [0, 1, 2, 7, 7], "items": [1.0, 2.0, 3.0, 4.0, 5.0]},
    )
    routes["POST /v1/query"] = probe(gw, "POST", "/v1/query", {"job": "total"})
    wait_for(
        lambda: all(
            rule["last_value"] is not None
            for rule in call(gw.url, "GET", "/v1/alerts")[1]["rules"]
        ),
        "the alert evaluator",
    )

    def fleet_caught_up():
        hubs = call(gw.url, "GET", "/v1/fleet")[1]["hubs"]
        return (
            all(hub["state"] == "up" and hub["capacity"] for hub in hubs)
            and sum(hub["elements"] for hub in hubs) == 5
        )

    wait_for(fleet_caught_up, "a fleet round after the ingest")
    return routes, sub["subscription"]


def surface(name):
    service = SERVICES[name]()
    try:
        with GatewayThread(service, alert_rules=RULES, fleet_interval=0.2) as gw:
            routes, sid = drive(gw)
            out = {"families": families_of(gw)}
            out["children"], out["values"] = bridged_of(gw)
            out["fleet"] = [
                [hub["hub"], hub["address"].rpartition(":")[0] or hub["address"],
                 hub["dispatch_mode"]]
                for hub in call(gw.url, "GET", "/v1/fleet")[1]["hubs"]
            ]
            if name == "cluster":
                return out  # the TCP transport's families are the point
            alerts = call(gw.url, "GET", "/v1/alerts")[1]
            out["rules"] = {r["name"]: r["last_value"] for r in alerts["rules"]}
            out["shapes"] = {
                path: shape(call(gw.url, "GET", path)[1])
                for path in ("/healthz", "/v1/status", "/v1/fleet", "/v1/alerts")
            }
            for method, path, body in PROBES:
                path = path.replace("<sid>", sid)
                routes[label(method, path, body).replace(sid, "<sid>")] = probe(
                    gw, method, path, body
                )
            out["routes"] = routes
        if name == "one_shard":
            with GatewayThread(service, api_keys=dict(KEYS)) as gw:
                out["auth_routes"] = {
                    f"{method} {path} key={key}": probe(gw, method, path, None, key)
                    for method, path, key in AUTH_PROBES
                }
        return out
    finally:
        service.close()


#: every route once, then the refusals; ``<sid>`` is the live subscription
PROBES = (
    ("GET", "/healthz", None),
    ("GET", "/metrics", None),
    ("GET", "/v1/metrics", None),
    ("GET", "/v1/trace", None),
    ("GET", "/v1/trace?name=round&limit=1", None),
    ("GET", "/v1/alerts", None),
    ("GET", "/v1/fleet", None),
    ("GET", "/v1/fleet/events", None),
    ("GET", "/v1/fleet/events?limit=1", None),
    ("GET", "/v1/status", None),
    ("GET", "/v1/status/", None),
    ("GET", "/v1/jobs", None),
    ("GET", "/v1/query/total", None),
    ("GET", "/v1/query/total?method=estimate", None),
    ("GET", "/v1/subscriptions", None),
    ("GET", "/v1/stream/<sid>", None),
    ("POST", "/v1/subscribe", {"kind": "metrics", "metric": "repro_service_elements_total"}),
    ("POST", "/v1/subscribe", {"kind": "query", "job": "total"}),
    ("DELETE", "/v1/subscribe/<sid>", None),
    ("POST", "/v1/jobs", {"name": "extra", "spec": "count/deterministic"}),
    ("DELETE", "/v1/jobs/extra", None),
    # refusals: unknown paths
    ("GET", "/nope", None),
    ("GET", "/v1", None),
    ("GET", "/v1/nope", None),
    ("GET", "/healthz/", None),
    # refusals: wrong methods
    ("PUT", "/v1/jobs", b"{}"),
    ("DELETE", "/v1/jobs", None),
    ("POST", "/healthz", b"{}"),
    ("POST", "/metrics", b"{}"),
    ("GET", "/v1/ingest", None),
    ("GET", "/v1/subscribe", None),
    ("POST", "/v1/status", b"{}"),
    ("GET", "/v1/jobs/total", None),
    ("POST", "/v1/query/total", b"{}"),
    # refusals: bad bodies and arguments
    ("POST", "/v1/ingest", b"{not json"),
    ("POST", "/v1/ingest", b""),
    ("POST", "/v1/ingest", b"[1]"),
    ("POST", "/v1/ingest", {"site_ids": []}),
    ("POST", "/v1/ingest", {"site_ids": [0], "items": [1, 2]}),
    ("POST", "/v1/ingest", {"site_ids": [99]}),
    ("POST", "/v1/jobs", {"name": "total", "spec": "count/randomized"}),
    ("POST", "/v1/jobs", {"name": "x"}),
    ("POST", "/v1/jobs", {"name": "x", "spec": "bogus"}),
    ("POST", "/v1/query", {"job": "nojob"}),
    ("POST", "/v1/query", {"job": "total", "method": "nomethod"}),
    ("POST", "/v1/query", {"job": "total", "args": 3}),
    ("POST", "/v1/query", {}),
    ("GET", "/v1/query/nojob", None),
    ("DELETE", "/v1/jobs/nojob", None),
    ("DELETE", "/v1/subscribe/nosub", None),
    ("GET", "/v1/stream/nosub", None),
    ("GET", "/v1/fleet/events?limit=x", None),
    ("GET", "/v1/trace?limit=x", None),
    ("GET", "/v1/trace?limit=-1", None),
    ("POST", "/v1/subscribe", {"kind": "bogus"}),
    ("POST", "/v1/subscribe", {"kind": "metrics"}),
    ("POST", "/v1/subscribe", {"kind": "metrics", "metric": "no_such_family"}),
    ("POST", "/v1/subscribe", {"kind": "query"}),
    ("POST", "/v1/subscribe", {"kind": "query", "job": "nojob"}),
    ("POST", "/v1/subscribe", {"kind": "query", "job": "total", "args": 3}),
    ("POST", "/v1/subscribe", {"kind": "threshold", "job": "total", "op": "==", "value": 1}),
    ("POST", "/v1/subscribe", {"kind": "threshold", "job": "total", "op": ">", "value": "1"}),
    ("POST", "/v1/subscribe", {"kind": "threshold", "job": "total", "op": ">", "value": True}),
)

AUTH_PROBES = (
    ("GET", "/healthz", None),
    ("GET", "/metrics", None),
    ("GET", "/v1/status", None),
    ("GET", "/v1/status", "key-unknown"),
    ("GET", "/v1/status", "key-alpha"),
    ("GET", "/nope", None),
    ("GET", "/v1/metrics", None),
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(SERVICES))
def test_surface_matches_golden(name, golden):
    got = json.loads(json.dumps(surface(name)))
    want = golden[name]
    assert sorted(got) == sorted(want)
    for section in want:
        assert got[section] == want[section], section


if __name__ == "__main__":
    print(json.dumps({name: surface(name) for name in sorted(SERVICES)},
                     indent=1, sort_keys=True))

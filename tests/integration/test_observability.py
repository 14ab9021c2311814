"""The observability plane end to end: scrape, stream, trace, alerts.

One live gateway per fixture; assertions cover the acceptance surface:
``/metrics`` exposes families from every layer (gateway, service,
shard, exec) with per-tenant and per-shard labels, a standing query
streams a delta over SSE after an ingest *without the client polling*,
``Last-Event-ID`` replays missed events, ``/healthz`` agrees with the
registry it is backed by, an ingest's ``trace_id`` resolves to a
stitched cross-process span view at ``/v1/trace?trace_id=``, and alert
rules fire/resolve through real sinks with that trace as exemplar.
"""

import http.server
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.net.gateway import GatewayThread
from repro.service.jobspec import parse_job_spec
from repro.shard import ShardedTrackingService


def request(url, method="GET", obj=None, headers=None):
    data = None if obj is None else json.dumps(obj).encode()
    req = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


def scrape(gw):
    with urllib.request.urlopen(gw.url + "/metrics", timeout=30) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        return response.read().decode()


def sample_lines(text):
    return [
        line for line in text.splitlines()
        if line and not line.startswith("#")
    ]


def families(text):
    return {
        line.split()[2]
        for line in text.splitlines()
        if line.startswith("# TYPE")
    }


class SseClient:
    """A raw-socket SSE reader (urllib cannot stream indefinitely)."""

    def __init__(self, gw, sid, last_event_id=None, timeout=30):
        self._sock = socket.create_connection(
            (gw.gateway.host, gw.gateway.port), timeout=timeout
        )
        extra = (
            f"Last-Event-ID: {last_event_id}\r\n"
            if last_event_id is not None else ""
        )
        self._sock.sendall(
            f"GET /v1/stream/{sid} HTTP/1.1\r\nHost: t\r\n"
            f"Accept: text/event-stream\r\n{extra}\r\n".encode()
        )
        self._buf = b""

    def read_event(self, name):
        """Block until a frame with ``event: <name>`` is complete."""
        token = f"event: {name}".encode()
        while True:
            start = self._buf.find(token)
            if start != -1:
                end = self._buf.find(b"\n\n", start)
                if end != -1:
                    frame = self._buf[start:end].decode()
                    self._buf = self._buf[end + 2:]
                    fields = {}
                    for line in frame.splitlines():
                        key, _, value = line.partition(": ")
                        fields.setdefault(key, []).append(value)
                    data = "\n".join(fields.get("data", []))
                    return {
                        "event": fields["event"][0],
                        "id": fields.get("id", [None])[0],
                        "data": json.loads(data) if data else None,
                    }
            chunk = self._sock.recv(4096)
            if not chunk:
                raise AssertionError(f"stream closed awaiting {name!r}")
            self._buf += chunk

    def close(self):
        self._sock.close()


@pytest.fixture()
def sharded_gateway():
    service = ShardedTrackingService(
        num_sites=8, num_shards=2, seed=3, executor="thread", relaxed=True
    )
    _, _, scheme = parse_job_spec("hh=frequency/deterministic:0.05", 0.05)
    service.register("hh", scheme)
    _, _, scheme = parse_job_spec("med=rank/deterministic:0.05", 0.05)
    service.register("med", scheme)
    with GatewayThread(service) as gw:
        yield gw
    service.close()


def ingest(gw, n=200, headers=None):
    status, body = request(
        gw.url + "/v1/ingest",
        "POST",
        {
            "site_ids": [i % 8 for i in range(n)],
            "items": [float(i % 7) for i in range(n)],
        },
        headers=headers,
    )
    assert status == 200
    return body


class TestMetricsEndpoint:
    def test_families_span_every_layer(self, sharded_gateway):
        gw = sharded_gateway
        ingest(gw)
        request(gw.url + "/v1/query/med?method=quantile&arg=0.5")
        text = scrape(gw)
        fams = families(text)
        assert len(fams) >= 8
        for prefix in (
            "repro_gateway_", "repro_service_", "repro_shard_", "repro_exec_"
        ):
            assert any(f.startswith(prefix) for f in fams), (
                f"no {prefix} family in {sorted(fams)}"
            )

    def test_per_shard_labels(self, sharded_gateway):
        gw = sharded_gateway
        ingest(gw)
        text = scrape(gw)
        for shard in ("0", "1"):
            assert f'repro_shard_elements_total{{shard="{shard}"}}' in text
            assert (
                f'repro_exec_dispatch_seconds_count{{shard="{shard}"}}'
                in text
            )

    def test_service_totals_track_ingest(self, sharded_gateway):
        gw = sharded_gateway
        ingest(gw, n=300)
        text = scrape(gw)
        values = dict(
            line.rsplit(" ", 1)
            for line in sample_lines(text)
        )
        assert float(values["repro_service_elements_total"]) == 300.0
        # Both jobs drive run by run and round-robin runs have length 1:
        # one on_elements call per job per event, summed over the hubs.
        assert float(values["repro_service_ingest_site_calls_total"]) == 600.0
        per_shard = sum(
            float(v)
            for k, v in values.items()
            if k.startswith("repro_shard_elements_total{")
        )
        assert per_shard == 300.0

    def test_merge_instrumented(self, sharded_gateway):
        gw = sharded_gateway
        ingest(gw)
        request(gw.url + "/v1/query/med?method=quantile&arg=0.5")
        text = scrape(gw)
        values = dict(
            line.rsplit(" ", 1) for line in sample_lines(text)
        )
        assert float(values["repro_shard_merge_seconds_count"]) >= 1.0
        assert float(values["repro_shard_merge_candidates_count"]) >= 1.0
        # A merged quantile is one fan-out round, whatever the hubs hold.
        fanouts = float(values["repro_shard_merge_fanouts_count"])
        assert fanouts >= 1.0
        assert float(values["repro_shard_merge_fanouts_sum"]) == fanouts

    def test_json_metrics_agree_with_text(self, sharded_gateway):
        gw = sharded_gateway
        ingest(gw, n=100)
        status, data = request(gw.url + "/v1/metrics")
        assert status == 200
        sample = data["repro_service_elements_total"]["samples"][0]
        assert sample["value"] == 100.0

    def test_healthz_reads_the_registry(self, sharded_gateway):
        gw = sharded_gateway
        status, health = request(gw.url + "/healthz")
        assert status == 200
        assert health["quota"]["rejected_429"] == 0
        assert health["auth"]["rejected_401"] == 0
        text = scrape(gw)
        assert 'repro_gateway_rejections_total{code="429"} 0' in text
        assert 'repro_gateway_rejections_total{code="401"} 0' in text

    def test_request_counters_by_route_template(self, sharded_gateway):
        gw = sharded_gateway
        ingest(gw)
        request(gw.url + "/v1/query/med?method=quantile&arg=0.5")
        request(gw.url + "/v1/query/hh?method=heavy_hitters&arg=0.2")
        text = scrape(gw)
        # both literal paths collapse into one template child
        assert (
            'repro_gateway_requests_total{route="/v1/query/{job}",'
            'method="GET",status="200"} 2' in text
        )


class TestTrace:
    def test_dispatch_and_merge_spans(self, sharded_gateway):
        gw = sharded_gateway
        ingest(gw)
        request(gw.url + "/v1/query/med?method=quantile&arg=0.5")
        status, body = request(gw.url + "/v1/trace")
        assert status == 200
        names = {span["name"] for span in body["spans"]}
        assert "dispatch" in names
        assert "merge" in names
        merge = next(s for s in body["spans"] if s["name"] == "merge")
        assert merge["attrs"]["job"] == "med"
        assert merge["attrs"]["candidates"] >= 1
        assert merge["attrs"]["fanouts"] == 1


class TestStandingQueries:
    def test_delta_streams_without_polling(self, sharded_gateway):
        gw = sharded_gateway
        status, sub = request(
            gw.url + "/v1/subscribe",
            "POST",
            {"kind": "query", "job": "hh", "method": "heavy_hitters",
             "args": [0.2]},
        )
        assert status == 200
        assert sub["value"] == {}  # baseline before any ingest
        client = SseClient(gw, sub["subscription"])
        try:
            hello = client.read_event("hello")
            assert hello["data"]["subscription"] == sub["subscription"]
            ingest(gw)
            # the delta is pushed by the evaluator; the client never
            # re-requests anything after this point
            delta = client.read_event("delta")
            assert delta["data"]["value"]  # heavy hitters appeared
            assert delta["data"]["previous"] == {}
            assert delta["data"]["elements"] == 200
        finally:
            client.close()

    def test_threshold_fires_on_flip_only(self, sharded_gateway):
        gw = sharded_gateway
        status, sub = request(
            gw.url + "/v1/subscribe",
            "POST",
            {"kind": "threshold", "job": "med",
             "method": "estimate_total", "op": ">", "value": 250},
        )
        assert status == 200
        assert sub["value"]["crossed"] is False
        client = SseClient(gw, sub["subscription"])
        try:
            client.read_event("hello")
            ingest(gw, n=100)  # total ~100: still below, no event
            ingest(gw, n=300)  # total ~400: crosses
            event = client.read_event("threshold")
            assert event["data"]["value"]["crossed"] is True
            assert event["data"]["previous"]["crossed"] is False
        finally:
            client.close()

    def test_last_event_id_replays_missed_deltas(self, sharded_gateway):
        gw = sharded_gateway
        status, sub = request(
            gw.url + "/v1/subscribe",
            "POST",
            {"kind": "query", "job": "med", "method": "estimate_total"},
        )
        sid = sub["subscription"]
        client = SseClient(gw, sid)
        try:
            client.read_event("hello")
            ingest(gw, n=100)
            first = client.read_event("delta")
        finally:
            client.close()
        # miss an event while disconnected (the evaluator publishes
        # shortly after the ingest is applied; wait for the ring to
        # hold it before reconnecting)
        ingest(gw, n=100)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            status, info = request(gw.url + "/v1/subscriptions")
            delivered = next(
                s for s in info["subscriptions"] if s["id"] == sid
            )["events_delivered"]
            if delivered >= 2:
                break
            time.sleep(0.02)
        assert delivered >= 2
        replayer = SseClient(gw, sid, last_event_id=first["id"])
        try:
            replayer.read_event("hello")
            missed = replayer.read_event("delta")
            assert int(missed["id"]) > int(first["id"])
            assert missed["data"]["value"] == 200.0
        finally:
            replayer.close()

    def test_subscription_lifecycle(self, sharded_gateway):
        gw = sharded_gateway
        status, sub = request(
            gw.url + "/v1/subscribe", "POST",
            {"kind": "query", "job": "med"},
        )
        sid = sub["subscription"]
        status, listing = request(gw.url + "/v1/subscriptions")
        assert any(s["id"] == sid for s in listing["subscriptions"])
        status, body = request(gw.url + f"/v1/subscribe/{sid}", "DELETE")
        assert (status, body["unsubscribed"]) == (200, sid)
        status, _ = request(gw.url + f"/v1/stream/{sid}")
        assert status == 404

    def test_subscribe_validation(self, sharded_gateway):
        gw = sharded_gateway
        cases = [
            ({"kind": "nope"}, 400),
            ({"kind": "query"}, 400),                      # no job
            ({"kind": "query", "job": "ghost"}, 404),
            ({"kind": "threshold", "job": "med", "op": "~",
              "value": 1}, 400),
            ({"kind": "threshold", "job": "med", "op": ">",
              "value": "x"}, 400),
            ({"kind": "metrics"}, 400),                    # no metric
        ]
        for payload, expected in cases:
            status, _ = request(gw.url + "/v1/subscribe", "POST", payload)
            assert status == expected, payload

    def test_metrics_subscription(self, sharded_gateway):
        gw = sharded_gateway
        status, sub = request(
            gw.url + "/v1/subscribe", "POST",
            {"kind": "metrics", "metric": "repro_service_elements_total"},
        )
        assert status == 200
        client = SseClient(gw, sub["subscription"])
        try:
            client.read_event("hello")
            ingest(gw, n=150)
            delta = client.read_event("delta")
            assert delta["data"]["value"] == 150.0
        finally:
            client.close()


class TestAuthAndOpenScrape:
    def test_metrics_open_but_v1_guarded(self):
        service = ShardedTrackingService(num_sites=4, num_shards=1, seed=1)
        with GatewayThread(service, api_keys={"k1": "acme"}) as gw:
            text = scrape(gw)  # no credentials needed
            assert "repro_gateway_requests_total" in text
            status, _ = request(gw.url + "/v1/metrics")
            assert status == 401
            status, _ = request(
                gw.url + "/v1/metrics",
                headers={"Authorization": "Bearer k1"},
            )
            assert status == 200
        service.close()

    def test_ingest_counted_per_tenant(self):
        service = ShardedTrackingService(num_sites=4, num_shards=1, seed=1)
        _, _, scheme = parse_job_spec("c=count/deterministic:0.05", 0.05)
        service.register("c", scheme)
        with GatewayThread(
            service, api_keys={"k1": "acme", "k2": "zenith"}
        ) as gw:
            for key, n in (("k1", 40), ("k2", 24)):
                status, _ = request(
                    gw.url + "/v1/ingest", "POST",
                    {"site_ids": [i % 4 for i in range(n)]},
                    headers={"Authorization": f"Bearer {key}"},
                )
                assert status == 200
            text = scrape(gw)
            assert (
                'repro_gateway_events_ingested_total{tenant="acme"} 40'
                in text
            )
            assert (
                'repro_gateway_events_ingested_total{tenant="zenith"} 24'
                in text
            )
        service.close()


class TestMetricsCli:
    def test_table_and_json(self, sharded_gateway, capsys):
        gw = sharded_gateway
        ingest(gw, n=100)
        assert cli_main(
            ["metrics", gw.url, "--grep", "repro_service_elements"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro_service_elements_total" in out
        assert "100" in out
        assert cli_main(["metrics", gw.url, "--json", "--grep",
                         "repro_service_elements"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (
            payload["repro_service_elements_total"]["samples"][0]["value"]
            == 100.0
        )

    def test_unreachable_gateway(self, capsys):
        assert cli_main(
            ["metrics", "http://127.0.0.1:9", "--timeout", "2"]
        ) == 1
        assert "error" in capsys.readouterr().err


class TestTracePropagation:
    """One trace_id from the HTTP POST to shard-local hub spans."""

    @pytest.fixture()
    def process_gateway(self):
        service = ShardedTrackingService(
            num_sites=8, num_shards=2, seed=3, executor="process",
            relaxed=True,
        )
        _, _, scheme = parse_job_spec("med=rank/deterministic:0.05", 0.05)
        service.register("med", scheme)
        with GatewayThread(service) as gw:
            yield gw
        service.close()

    def test_cross_process_stitched_view(self, process_gateway):
        gw = process_gateway
        body = ingest(gw)
        tid = body["trace_id"]
        assert tid
        status, tr = request(gw.url + f"/v1/trace?trace_id={tid}")
        assert status == 200
        spans = tr["spans"]
        by_name = {}
        for span in spans:
            assert span["trace_id"] == tid
            by_name.setdefault(span["name"], []).append(span)
        # gateway-process spans: the coalesced round and its dispatch
        assert len(by_name["round"]) == 1
        assert len(by_name["dispatch"]) == 1
        # hub-process spans carried over the process pipe, one per shard
        shards = {s["shard"] for s in by_name["ingest"]}
        assert shards == {0, 1}
        # the parent chain stitches across the process boundary
        round_span = by_name["round"][0]
        dispatch = by_name["dispatch"][0]
        assert round_span["parent_id"] is None
        assert dispatch["parent_id"] == round_span["span_id"]
        for hub_span in by_name["ingest"]:
            assert hub_span["parent_id"] == dispatch["span_id"]

    def test_hub_spans_retained_across_reads(self, process_gateway):
        gw = process_gateway
        tid = ingest(gw)["trace_id"]
        for _ in range(2):  # collect_spans drains hubs; gateway retains
            status, tr = request(gw.url + f"/v1/trace?trace_id={tid}")
            assert status == 200
            assert any(s["name"] == "ingest" for s in tr["spans"])

    def test_trace_filters_over_http(self, sharded_gateway):
        gw = sharded_gateway
        first = ingest(gw, n=50)["trace_id"]
        second = ingest(gw, n=50)["trace_id"]
        status, tr = request(gw.url + "/v1/trace?name=round")
        assert status == 200
        assert {s["name"] for s in tr["spans"]} == {"round"}
        if first != second:  # rounds coalesced into one trace otherwise
            status, tr = request(gw.url + f"/v1/trace?trace_id={second}")
            assert {s["trace_id"] for s in tr["spans"]} == {second}
        status, tr = request(gw.url + "/v1/trace?limit=1")
        assert len(tr["spans"]) == 1
        status, body = request(gw.url + "/v1/trace?limit=many")
        assert status == 400
        assert "limit" in body["error"]


class _HookReceiver(http.server.BaseHTTPRequestHandler):
    received: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        _HookReceiver.received.append(json.loads(self.rfile.read(length)))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def webhook():
    _HookReceiver.received = []
    server = http.server.HTTPServer(("127.0.0.1", 0), _HookReceiver)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/hook", _HookReceiver
    server.shutdown()
    server.server_close()


def _wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.03)
    return False


class TestAlertsEndToEnd:
    def test_fire_and_resolve_with_trace_exemplar(self, webhook):
        url, receiver = webhook
        rules = {
            "sinks": {"hook": {"type": "webhook", "url": url}},
            "rules": [{
                "name": "underfed",
                "kind": "metrics",
                "metric": "repro_service_elements_total",
                "op": "<", "value": 100.0,
                "sinks": ["hook"],
                "labels": {"severity": "page"},
            }],
        }
        service = ShardedTrackingService(
            num_sites=8, num_shards=2, seed=3, executor="thread",
            relaxed=True,
        )
        _, _, scheme = parse_job_spec("med=rank/deterministic:0.05", 0.05)
        service.register("med", scheme)
        with GatewayThread(service, alert_rules=rules) as gw:
            ingest(gw, n=10)  # 10 < 100: the rule flips to firing
            assert _wait_for(lambda: any(
                e["state"] == "firing" for e in receiver.received
            ))
            firing = next(
                e for e in receiver.received if e["state"] == "firing"
            )
            assert firing["rule"] == "underfed"
            assert firing["labels"] == {"severity": "page"}
            assert firing["value"] == 10.0
            # the exemplar trace resolves to the round that flipped it
            tid = firing["trace_id"]
            assert tid
            status, tr = request(gw.url + f"/v1/trace?trace_id={tid}")
            assert status == 200
            assert "round" in {s["name"] for s in tr["spans"]}
            ingest(gw, n=200)  # 210 >= 100: resolved
            assert _wait_for(lambda: any(
                e["state"] == "resolved" for e in receiver.received
            ))
            status, listing = request(gw.url + "/v1/alerts")
            assert status == 200
            rule = next(
                r for r in listing["rules"] if r["name"] == "underfed"
            )
            assert rule["state"] == "ok"
            states = [e["state"] for e in listing["events"]]
            assert states == ["firing", "resolved"]
            assert listing["sinks"] == {"hook": "webhook"}
            assert listing["dead_letters"] == []
            text = scrape(gw)
            assert 'repro_alerts_transitions_total{rule="underfed"' in text
            assert "repro_alerts_firing 0" in text
        service.close()

    def test_pending_fires_on_quiet_gateway(self):
        # a `for:` rule must complete pending -> firing even when no
        # further ingest wakes the evaluator: the gateway arms a timer
        # for the pending deadline.
        rules = {
            "rules": [{
                "name": "sustained",
                "kind": "metrics",
                "metric": "repro_service_elements_total",
                "op": ">", "value": 5.0,
                "for": 0.3,
            }],
        }
        service = ShardedTrackingService(num_sites=8, num_shards=1, seed=1)
        with GatewayThread(service, alert_rules=rules) as gw:
            ingest(gw, n=10)  # predicate holds -> pending

            def state():
                _, listing = request(gw.url + "/v1/alerts")
                return listing["rules"][0]["state"]

            # the evaluator runs asynchronously: ok -> pending, then the
            # armed deadline timer completes pending -> firing with no
            # further traffic.
            assert _wait_for(lambda: state() == "firing", timeout=10.0)
        service.close()

    def test_alerts_endpoint_empty_without_manifest(self, sharded_gateway):
        status, listing = request(sharded_gateway.url + "/v1/alerts")
        assert status == 200
        assert listing == {"rules": [], "sinks": {}, "events": [],
                           "dead_letters": []}


class TestRouteHealthMetrics:
    def test_inflight_gauge_settles_to_zero(self, sharded_gateway):
        gw = sharded_gateway
        ingest(gw)
        text = scrape(gw)
        assert (
            'repro_gateway_inflight_requests{route="/v1/ingest"} 0'
            in text
        )

    def test_5xx_counted_by_route(self, sharded_gateway):
        gw = sharded_gateway

        def explode():
            raise RuntimeError("boom")

        gw.gateway.service.status = explode
        try:
            status, body = request(gw.url + "/v1/status")
            assert status == 500
        finally:
            del gw.gateway.service.status
        text = scrape(gw)
        assert (
            'repro_gateway_errors_total{route="/v1/status"} 1' in text
        )
        # 2xx traffic does not touch the 5xx counter
        ingest(gw)
        text = scrape(gw)
        assert 'repro_gateway_errors_total{route="/v1/ingest"}' not in text


class TestSseLifecycle:
    def _listeners(self, gw, sid):
        _, info = request(gw.url + "/v1/subscriptions")
        return next(
            s for s in info["subscriptions"] if s["id"] == sid
        )["listeners"]

    def test_client_disconnect_aborts_mid_stream(self, sharded_gateway):
        gw = sharded_gateway
        _, sub = request(
            gw.url + "/v1/subscribe", "POST",
            {"kind": "query", "job": "med", "method": "estimate_total"},
        )
        sid = sub["subscription"]
        client = SseClient(gw, sid)
        client.read_event("hello")
        ingest(gw, n=100)
        client.read_event("delta")
        assert self._listeners(gw, sid) == 1
        client.close()  # abort mid-stream, no unsubscribe
        assert _wait_for(lambda: self._listeners(gw, sid) == 0)
        assert _wait_for(
            lambda: "repro_gateway_streams 0" in scrape(gw)
        )
        # the subscription itself survives; events keep accumulating
        ingest(gw, n=100)
        assert _wait_for(lambda: next(
            s for s in request(gw.url + "/v1/subscriptions")[1]
            ["subscriptions"] if s["id"] == sid
        )["events_delivered"] >= 2)

    def test_idle_listener_detached_on_keepalive(
        self, sharded_gateway, monkeypatch
    ):
        # with a short keep-alive interval, a silently-gone client is
        # discovered by the idle tick and detached without any event
        # traffic on the subscription.
        from repro.net import gateway as gateway_mod

        monkeypatch.setattr(gateway_mod, "_SSE_KEEPALIVE", 0.1)
        gw = sharded_gateway
        _, sub = request(
            gw.url + "/v1/subscribe", "POST",
            {"kind": "query", "job": "med", "method": "estimate_total"},
        )
        sid = sub["subscription"]
        client = SseClient(gw, sid)
        client.read_event("hello")
        # an idle stream emits keep-alive comments, not events
        assert _wait_for(
            lambda: b": keep-alive" in self._recv_some(client)
        )
        client.close()
        assert _wait_for(lambda: self._listeners(gw, sid) == 0)

    @staticmethod
    def _recv_some(client):
        client._sock.settimeout(0.5)
        try:
            client._buf += client._sock.recv(4096)
        except socket.timeout:
            pass
        return client._buf

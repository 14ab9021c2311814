"""Gateway auth: Bearer keys, 401/403 paths, per-key rate buckets."""

import json
import urllib.error
import urllib.request

import pytest

from repro import ShardedTrackingService
from repro.net.gateway import Gateway, GatewayThread

KEYS = {"key-alpha": "tenant-alpha", "key-beta": "tenant-beta"}


def call(url, path, obj=None, key=None, method=None, raw_auth=None):
    data = None if obj is None else json.dumps(obj).encode()
    headers = {"Content-Type": "application/json"}
    if raw_auth is not None:
        headers["Authorization"] = raw_auth
    elif key is not None:
        headers["Authorization"] = f"Bearer {key}"
    request = urllib.request.Request(
        url + path, data=data, headers=headers, method=method
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.load(response)


def status_of(exc: urllib.error.HTTPError):
    payload = json.loads(exc.read())
    return exc.code, payload


@pytest.fixture()
def gateway():
    service = ShardedTrackingService(num_sites=4, num_shards=1, seed=1)
    with GatewayThread(service, api_keys=dict(KEYS)) as gw:
        yield gw
    service.close()


class TestAuthPaths:
    def test_healthz_stays_open(self, gateway):
        status, payload = call(gateway.url, "/healthz")
        assert status == 200
        assert payload["auth"] == {
            "enabled": True, "keys": 2, "rejected_401": 0, "rejected_403": 0,
        }

    def test_missing_header_is_401(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(gateway.url, "/v1/status")
        code, payload = status_of(excinfo.value)
        assert code == 401
        assert "Authorization" in payload["error"]
        assert excinfo.value.headers["WWW-Authenticate"] == "Bearer"

    def test_malformed_header_is_401(self, gateway):
        # wrong scheme, empty token, bare token without a scheme
        for bad in ("Basic key-alpha", "Bearer ", "key-alpha"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                call(gateway.url, "/v1/status", raw_auth=bad)
            assert excinfo.value.code == 401, bad

    def test_unknown_key_is_403(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call(gateway.url, "/v1/status", key="who-dis")
        code, payload = status_of(excinfo.value)
        assert code == 403
        assert "unknown API key" in payload["error"]

    def test_valid_key_full_surface(self, gateway):
        status, _ = call(
            gateway.url, "/v1/jobs",
            {"name": "t", "spec": "count/deterministic:0.05"},
            key="key-alpha",
        )
        assert status == 200
        status, payload = call(
            gateway.url, "/v1/ingest", {"site_ids": [0, 1, 2, 3]},
            key="key-beta",  # any valid tenant reaches the shared jobs
        )
        assert status == 200 and payload["ingested"] == 4
        status, payload = call(
            gateway.url, "/v1/query", {"job": "t"}, key="key-alpha"
        )
        assert status == 200 and payload["result"] == 4.0

    def test_rejection_counters_in_healthz(self, gateway):
        for _ in range(2):
            with pytest.raises(urllib.error.HTTPError):
                call(gateway.url, "/v1/status")
        with pytest.raises(urllib.error.HTTPError):
            call(gateway.url, "/v1/status", key="nope")
        _, payload = call(gateway.url, "/healthz")
        assert payload["auth"]["rejected_401"] == 2
        assert payload["auth"]["rejected_403"] == 1


class TestPerKeyBuckets:
    def test_one_tenant_cannot_starve_another(self):
        service = ShardedTrackingService(num_sites=4, num_shards=1, seed=1)
        with GatewayThread(
            service,
            api_keys=dict(KEYS),
            max_ingest_rate=1.0,   # refill is negligible within the test
            ingest_burst=100,
        ) as gw:
            batch = {"site_ids": [0, 1] * 50}  # exactly one full burst
            status, _ = call(gw.url, "/v1/ingest", batch, key="key-alpha")
            assert status == 200
            # alpha's bucket is empty now -> 429 with Retry-After
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                call(gw.url, "/v1/ingest", batch, key="key-alpha")
            code, payload = status_of(excinfo.value)
            assert code == 429
            assert "for this API key" in payload["error"]
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            # beta's bucket is untouched: same-sized batch sails through
            status, _ = call(gw.url, "/v1/ingest", batch, key="key-beta")
            assert status == 200
        service.close()

    def test_gateway_wide_bucket_without_auth(self):
        service = ShardedTrackingService(num_sites=4, num_shards=1, seed=1)
        with GatewayThread(
            service, max_ingest_rate=1.0, ingest_burst=10
        ) as gw:
            status, _ = call(gw.url, "/v1/ingest", {"site_ids": [0] * 10})
            assert status == 200
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                call(gw.url, "/v1/ingest", {"site_ids": [0] * 10})
            assert excinfo.value.code == 429
        service.close()


class TestQueryCliClient:
    """`repro query`: --timeout, --api-key, clean connection errors."""

    def test_api_key_reaches_authed_gateway(self, gateway, capsys):
        from repro.cli import run_query

        call(
            gateway.url, "/v1/jobs",
            {"name": "t", "spec": "count/deterministic:0.05"},
            key="key-alpha",
        )
        rc = run_query([gateway.url, "t", "--api-key", "key-alpha",
                        "--timeout", "15"])
        assert rc == 0
        assert '"result": 0.0' in capsys.readouterr().out

    def test_missing_key_is_reported_not_raised(self, gateway, capsys):
        from repro.cli import run_query

        rc = run_query([gateway.url, "t"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "HTTP 401" in err and "Authorization" in err

    def test_connection_refused_is_one_clean_line(self, capsys):
        import socket

        from repro.cli import run_query

        # bind-then-close guarantees a dead port
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        rc = run_query([f"http://127.0.0.1:{port}", "job", "--timeout", "5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "connection refused" in err
        assert "is the gateway running" in err
        assert "Traceback" not in err

    def test_timeout_flag_validated(self, capsys):
        from repro.cli import run_query

        rc = run_query(["http://127.0.0.1:1", "job", "--timeout", "0"])
        assert rc == 2
        assert "--timeout must be positive" in capsys.readouterr().err


class TestValidation:
    def test_empty_or_malformed_key_maps_rejected(self):
        service = ShardedTrackingService(num_sites=2, num_shards=1, seed=0)
        try:
            for bad in ({}, {"": "t"}, {"k": 7}, ["k"]):
                with pytest.raises(ValueError):
                    Gateway(service, api_keys=bad)
        finally:
            service.close()

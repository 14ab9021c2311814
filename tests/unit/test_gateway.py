"""HTTP gateway endpoints, error mapping, and the `repro query` CLI."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import RandomizedRankScheme, ShardedTrackingService, TrackingService
from repro.cli import main as cli_main
from repro.net.gateway import GatewayThread, jsonable


@pytest.fixture()
def gateway():
    service = ShardedTrackingService(num_sites=8, num_shards=1, seed=5)
    with GatewayThread(service) as gw:
        yield gw
    service.close()


def get(gw, path):
    with urllib.request.urlopen(gw.url + path, timeout=30) as response:
        return response.status, json.load(response)


def request(gw, method, path, obj=None):
    data = None if obj is None else json.dumps(obj).encode()
    req = urllib.request.Request(
        gw.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


class TestEndpoints:
    def test_healthz(self, gateway):
        status, body = get(gateway, "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert body["queue"]["capacity_events"] > 0

    def test_register_ingest_query_status(self, gateway):
        status, body = request(
            gateway,
            "POST",
            "/v1/jobs",
            {"name": "total", "spec": "count/randomized:0.05"},
        )
        assert (status, body["registered"]) == (200, "total")
        status, body = request(
            gateway,
            "POST",
            "/v1/jobs",
            {"name": "hh", "spec": "frequency/deterministic:0.1"},
        )
        assert status == 200

        site_ids = [i % 8 for i in range(4000)]
        items = [i % 5 for i in range(4000)]
        status, body = request(
            gateway, "POST", "/v1/ingest", {"site_ids": site_ids, "items": items}
        )
        assert status == 200
        assert body["ingested"] == 4000

        status, body = request(gateway, "POST", "/v1/query", {"job": "total"})
        assert status == 200
        assert body["result"] > 0

        status, body = get(gateway, "/v1/query/hh?method=top_items&arg=2")
        assert status == 200
        assert len(body["result"]) == 2

        status, body = get(gateway, "/v1/status")
        assert status == 200
        assert set(body["jobs"]) == {"total", "hh"}
        assert body["elements"] == 4000

        status, body = get(gateway, "/v1/jobs")
        assert body["jobs"]["total"]["elements"] == 4000

    def test_gateway_matches_in_process_service(self, gateway):
        """Transcript equivalence: HTTP ingestion == direct ingestion."""
        request(
            gateway,
            "POST",
            "/v1/jobs",
            {"name": "total", "spec": "count/randomized:0.05"},
        )
        batches = [
            [(i * 7 + j) % 8 for j in range(500)] for i in range(6)
        ]
        for batch in batches:
            status, _ = request(
                gateway, "POST", "/v1/ingest", {"site_ids": batch}
            )
            assert status == 200
        _, body = request(gateway, "POST", "/v1/query", {"job": "total"})

        direct = TrackingService(num_sites=8, seed=5)
        direct.register("total", __import__("repro").RandomizedCountScheme(0.05))
        for batch in batches:
            direct.ingest(batch)
        assert body["result"] == direct.query("total")

    def test_rank_table_renders_as_lists(self, gateway):
        """A typed rank table answers ``/v1/query`` and a query
        subscription as JSON lists, equal to the in-process table."""
        request(
            gateway, "POST", "/v1/jobs",
            {"name": "med", "spec": "rank/randomized:0.1"},
        )
        site_ids = [i % 8 for i in range(3000)]
        items = [(i * 7919) % 1000 for i in range(3000)]
        status, _ = request(
            gateway, "POST", "/v1/ingest",
            {"site_ids": site_ids, "items": items},
        )
        assert status == 200
        query = {"job": "med", "method": "rank_table"}
        status, body = request(gateway, "POST", "/v1/query", query)
        assert status == 200
        values, ranks, total = body["result"]
        assert values and isinstance(values, list)
        assert len(ranks) == len(values) + 1

        direct = TrackingService(num_sites=8, seed=5)
        direct.register("med", RandomizedRankScheme(0.1))
        direct.ingest(site_ids, items)
        assert body["result"] == jsonable(direct.query("med", "rank_table"))

        status, body = request(
            gateway, "POST", "/v1/subscribe", {"kind": "query", **query}
        )
        assert status == 200
        assert body["value"][0] == values
        status, _ = request(
            gateway, "POST", "/v1/ingest", {"site_ids": site_ids[:100],
                                             "items": items[:100]},
        )
        assert status == 200
        status, body = request(gateway, "POST", "/v1/query", query)
        assert status == 200

    def test_unregister(self, gateway):
        request(gateway, "POST", "/v1/jobs", {"name": "x", "spec": "count/deterministic"})
        status, body = request(gateway, "DELETE", "/v1/jobs/x")
        assert (status, body["unregistered"]) == (200, "x")
        status, _ = request(gateway, "POST", "/v1/query", {"job": "x"})
        assert status == 404


class TestErrorMapping:
    def test_unknown_route_404(self, gateway):
        status, body = request(gateway, "GET", "/nope")
        assert status == 404 and "error" in body

    def test_unknown_job_404(self, gateway):
        status, _ = request(gateway, "POST", "/v1/query", {"job": "ghost"})
        assert status == 404

    def test_duplicate_job_409(self, gateway):
        spec = {"name": "dup", "spec": "count/deterministic"}
        assert request(gateway, "POST", "/v1/jobs", spec)[0] == 200
        assert request(gateway, "POST", "/v1/jobs", spec)[0] == 409

    def test_bad_spec_400(self, gateway):
        status, body = request(
            gateway, "POST", "/v1/jobs", {"name": "bad", "spec": "nope/nope"}
        )
        assert status == 400 and "bad job spec" in body["error"]

    def test_malformed_json_400(self, gateway):
        req = urllib.request.Request(
            gateway.url + "/v1/ingest",
            data=b"{oops",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400

    def test_ingest_without_sites_400(self, gateway):
        status, _ = request(gateway, "POST", "/v1/ingest", {"site_ids": []})
        assert status == 400

    def test_items_length_mismatch_400(self, gateway):
        status, _ = request(
            gateway, "POST", "/v1/ingest", {"site_ids": [0, 1], "items": [1]}
        )
        assert status == 400

    def test_method_not_allowed_405(self, gateway):
        status, _ = request(gateway, "DELETE", "/v1/jobs")
        assert status == 405

    def _raw(self, gateway, blob: bytes) -> bytes:
        import socket

        host, port = gateway.url.split("//")[1].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as sock:
            sock.sendall(blob)
            sock.shutdown(socket.SHUT_WR)
            out = b""
            while chunk := sock.recv(65536):
                out += chunk
            return out

    def test_malformed_content_length_gets_400(self, gateway):
        """Parse-level failures still answer with a coded response."""
        response = self._raw(
            gateway,
            b"POST /v1/ingest HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 400")

    def test_oversized_body_gets_413(self, gateway):
        response = self._raw(
            gateway,
            b"POST /v1/ingest HTTP/1.1\r\n"
            b"Content-Length: 999999999999\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 413")

    def test_malformed_request_line_gets_400(self, gateway):
        response = self._raw(gateway, b"NONSENSE\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400")


class TestJsonable:
    def test_tuples_and_sets(self):
        assert jsonable(((1, 2), {3, 1})) == [[1, 2], [1, 3]]

    def test_typed_columns(self):
        out = jsonable((np.arange(3), np.array([0.5, 1.5])))
        assert out == [[0, 1, 2], [0.5, 1.5]]
        assert type(out[0][0]) is int
        json.dumps(out)  # renderable

    def test_tuple_dict_keys(self):
        out = jsonable({(0, "a"): 1.5, "plain": 2})
        assert out == {'[0,"a"]': 1.5, "plain": 2}
        json.dumps(out)  # renderable


class TestQueryCli:
    def test_query_cli_pretty_prints(self, gateway, capsys):
        request(
            gateway,
            "POST",
            "/v1/jobs",
            {"name": "total", "spec": "count/deterministic:0.05"},
        )
        request(gateway, "POST", "/v1/ingest", {"site_ids": [0, 1, 2, 3] * 50})
        rc = cli_main(["query", gateway.url, "total", "estimate"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["job"] == "total"
        assert payload["result"] == pytest.approx(200.0, rel=0.06)
        assert out.count("\n") > 3  # indented, human-readable

    def test_query_cli_json_args(self, gateway, capsys):
        request(
            gateway,
            "POST",
            "/v1/jobs",
            {"name": "hh", "spec": "frequency/deterministic:0.1"},
        )
        request(
            gateway,
            "POST",
            "/v1/ingest",
            {"site_ids": [0, 1] * 100, "items": [7, 8] * 100},
        )
        rc = cli_main(["query", gateway.url, "hh", "top_items", "1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["result"]) == 1

    def test_query_cli_unknown_job_fails(self, gateway, capsys):
        rc = cli_main(["query", gateway.url, "ghost"])
        assert rc == 1
        assert "HTTP 404" in capsys.readouterr().err

    def test_query_cli_no_server(self, capsys):
        rc = cli_main(["query", "http://127.0.0.1:9", "x"])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestQuotaEnforcement:
    def test_rate_limit_429_with_retry_after(self):
        service = ShardedTrackingService(num_sites=4, num_shards=1, seed=1)
        with GatewayThread(
            service, max_ingest_rate=10.0, ingest_burst=100
        ) as gw:
            request(
                gw, "POST", "/v1/jobs",
                {"name": "t", "spec": "count/deterministic:0.1"},
            )
            status, _ = request(
                gw, "POST", "/v1/ingest", {"site_ids": [0] * 90}
            )
            assert status == 200
            # the bucket is drained; the next request must be rejected
            import urllib.error as _err
            import urllib.request as _req

            req = _req.Request(
                gw.url + "/v1/ingest",
                data=json.dumps({"site_ids": [0] * 90}).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(_err.HTTPError) as excinfo:
                _req.urlopen(req, timeout=30)
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            body = json.load(excinfo.value)
            assert "rate limit" in body["error"]
            status, health = get(gw, "/healthz")
            assert health["quota"]["rejected_429"] == 1
            assert health["quota"]["max_ingest_rate"] == 10.0
        service.close()

    def test_space_budget_413(self):
        service = ShardedTrackingService(num_sites=4, num_shards=1, seed=2,
                                         space_sample_interval=64)
        with GatewayThread(service) as gw:
            request(
                gw, "POST", "/v1/jobs",
                {
                    "name": "hh",
                    "spec": "frequency/deterministic:0.01",
                    "space_budget_words": 5,
                },
            )
            status, _ = request(
                gw, "POST", "/v1/ingest",
                {
                    "site_ids": [i % 4 for i in range(2000)],
                    "items": list(range(2000)),
                },
            )
            assert status == 200  # budget trips only after the sweep
            status, body = request(
                gw, "POST", "/v1/ingest", {"site_ids": [0], "items": [1]}
            )
            assert status == 413
            assert "space budget exceeded" in body["error"]
            assert "hh" in body["error"]
            _, health = get(gw, "/healthz")
            assert health["quota"]["rejected_413"] >= 1
            # dropping the offending job clears the quota block
            request(gw, "DELETE", "/v1/jobs/hh")
            status, _ = request(
                gw, "POST", "/v1/ingest", {"site_ids": [0], "items": [1]}
            )
            assert status == 200
        service.close()

    def test_no_quota_no_rejections(self):
        service = ShardedTrackingService(num_sites=4, num_shards=1, seed=3)
        with GatewayThread(service) as gw:
            request(
                gw, "POST", "/v1/jobs",
                {"name": "t", "spec": "count/deterministic:0.1"},
            )
            for _ in range(3):
                status, _ = request(
                    gw, "POST", "/v1/ingest", {"site_ids": [0] * 5000}
                )
                assert status == 200
            _, health = get(gw, "/healthz")
            assert health["quota"] == {
                "max_ingest_rate": None,
                "rejected_429": 0,
                "rejected_413": 0,
            }
        service.close()


class TestTokenBucket:
    def test_refill_and_debt(self):
        from repro.net.gateway import TokenBucket

        clock = [0.0]
        bucket = TokenBucket(rate=100.0, burst=200, clock=lambda: clock[0])
        assert bucket.try_admit(200) == 0.0  # full burst admitted
        wait = bucket.try_admit(50)
        assert wait == pytest.approx(0.5)  # 50 tokens at 100/s
        clock[0] += 0.5
        assert bucket.try_admit(50) == 0.0
        # an oversized request waits for a full bucket, then overdrafts
        wait = bucket.try_admit(1000)
        assert wait == pytest.approx(2.0)
        clock[0] += 2.0
        assert bucket.try_admit(1000) == 0.0
        assert bucket.tokens < 0  # overdraft charged to the future

    def test_validation(self):
        from repro.net.gateway import TokenBucket

        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=10)
        with pytest.raises(ValueError):
            TokenBucket(rate=5, burst=0)


class TestShardedGateway:
    def test_full_surface_over_sharded_service(self):
        service = ShardedTrackingService(
            num_sites=8, num_shards=4, seed=5, executor="thread"
        )
        with GatewayThread(service) as gw:
            status, body = request(
                gw, "POST", "/v1/jobs",
                {"name": "total", "spec": "count/randomized:0.05",
                 "seed": 77},
            )
            assert (status, body["registered"]) == (200, "total")
            request(
                gw, "POST", "/v1/jobs",
                {"name": "hh", "spec": "frequency/deterministic:0.1"},
            )
            site_ids = [i % 8 for i in range(4000)]
            items = [i % 5 for i in range(4000)]
            status, body = request(
                gw, "POST", "/v1/ingest",
                {"site_ids": site_ids, "items": items},
            )
            assert (status, body["ingested"]) == (200, 4000)
            status, body = request(
                gw, "POST", "/v1/query", {"job": "total"}
            )
            assert status == 200
            assert abs(body["result"] - 4000) <= 2 * 0.05 * 4000
            status, body = get(gw, "/v1/query/hh?method=top_items&arg=2")
            assert status == 200 and len(body["result"]) == 2
            status, body = get(gw, "/v1/status")
            assert status == 200
            assert body["shards"] == 4
            assert body["jobs"]["total"]["elements"] == 4000
            # merged answers equal an identically-seeded in-process mirror
            mirror = ShardedTrackingService(
                num_sites=8, num_shards=4, seed=5
            )
            from repro import RandomizedCountScheme

            mirror.register("total", RandomizedCountScheme(0.05), seed=77)
            mirror.ingest(site_ids, items)
            _, body = request(gw, "POST", "/v1/query", {"job": "total"})
            assert body["result"] == mirror.query("total")
            mirror.close()
        service.close()

    def test_unmergeable_job_is_a_400_not_a_404(self):
        from repro import (
            MedianBoostedScheme,
            RandomizedRankScheme,
            ShardedTrackingService,
        )

        service = ShardedTrackingService(num_sites=8, num_shards=2, seed=5)
        service.register(
            "r", MedianBoostedScheme(RandomizedRankScheme(0.1), copies=3)
        )
        service.ingest([i % 8 for i in range(800)], list(range(800)))
        with GatewayThread(service) as gw:
            status, body = request(
                gw, "GET", "/v1/query/r?method=quantile&arg=0.5"
            )
            assert status == 400
            assert "'r'" in body["error"] and "median3" in body["error"]
            assert "mergeable methods" in body["error"]
            status, body = get(gw, "/v1/query/r?method=estimate_rank&arg=400")
            assert status == 200 and body["result"] > 0
        service.close()


class TestSiteIdValidation:
    """Non-integer site ids are a 400 at the facade's one entry, on every
    placement, with nothing ingested and the hubs still in step."""

    BAD = (["0"], [1.5], [True], [None], [[0]], [2**70])

    @pytest.mark.parametrize(
        "placement",
        [
            {},
            {"relaxed": True, "window": 64, "per_site_depth": 2},
            {"executor": "cluster"},
        ],
        ids=["inline-lockstep", "inline-windowed", "cluster"],
    )
    def test_non_integer_site_ids_are_400(self, placement):
        service = ShardedTrackingService(
            num_sites=4, num_shards=1, seed=5, **placement
        )
        with GatewayThread(service) as gw:
            request(
                gw, "POST", "/v1/jobs",
                {"name": "total", "spec": "count/deterministic:0.1"},
            )
            status, _ = request(
                gw, "POST", "/v1/ingest", {"site_ids": [0, 1, 2]}
            )
            assert status == 200
            for site_ids in self.BAD:
                status, body = request(
                    gw, "POST", "/v1/ingest", {"site_ids": site_ids}
                )
                assert status == 400, (site_ids, body)
                assert "site ids must be integers" in body["error"]
                _, body = get(gw, "/v1/status")
                hubs = sum(d["elements"] for d in body["shard_detail"])
                assert body["elements"] == hubs == 3, site_ids
                status, body = request(
                    gw, "POST", "/v1/query", {"job": "total"}
                )
                assert status == 200, (site_ids, body)
        service.close()

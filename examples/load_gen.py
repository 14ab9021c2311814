"""Load generator + equivalence checker for the HTTP gateway.

Drives a running ``repro gateway`` (or a self-hosted one when no --url
is given): registers two jobs, streams batched events through
``POST /v1/ingest``, queries them back, and — the important part —
replays the *same* stream into an in-process mirror of the gateway's
``ShardedTrackingService`` and asserts the gateway's answers are
identical.  Any non-2xx response
or divergent answer exits non-zero, which is what the CI smoke job
watches for.

Two-terminal walkthrough (see README "Running it as a real server")::

    # terminal 1
    repro gateway --listen 127.0.0.1:8791

    # terminal 2
    python examples/load_gen.py --url http://127.0.0.1:8791
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

from repro import ShardedTrackingService, TrackingService
from repro.service.jobspec import parse_job_spec
from repro.workloads import uniform_sites, with_items, zipf_items

#: jobs this generator owns; explicit seeds make the in-process mirror
#: independent of the gateway's service seed
JOBS = (
    ("lg-total", "count/randomized:0.02", 1234),
    ("lg-hot", "frequency/deterministic:0.05", 5678),
)

#: error target of lg-total, used for the sharded-vs-unsharded bound
TOTAL_EPS = 0.02


class GatewayClient:
    def __init__(self, url: str):
        self.url = url.rstrip("/")
        self.requests = 0

    def call(self, method: str, path: str, obj=None):
        data = None if obj is None else json.dumps(obj).encode()
        request = urllib.request.Request(
            self.url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        self.requests += 1
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return json.load(response)
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            raise SystemExit(
                f"FAIL: {method} {path} -> HTTP {exc.code}: {detail}"
            )
        except urllib.error.URLError as exc:
            raise SystemExit(f"FAIL: cannot reach gateway at {self.url}: {exc}")


def make_stream(n: int, k: int, seed: int):
    return list(
        with_items(
            uniform_sites(n, k, seed=seed),
            zipf_items(max(16, n // 100), alpha=1.2, seed=seed + 1),
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--url", help="gateway base URL; omitted = self-host one in-process"
    )
    parser.add_argument("--events", type=int, default=60_000)
    parser.add_argument("--batch", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "-k", type=int, default=8, help="fleet size for self-hosted mode"
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help="shard hubs of the self-hosted gateway (default 1, the "
        "identity partition `repro gateway` serves without --shards); "
        "the verification mirror shards like the gateway (exact "
        "equality), and past one shard an unsharded TrackingService "
        "reference checks the composed error bound",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the in-process equivalence check",
    )
    args = parser.parse_args()

    self_hosted = None
    service = None
    if args.url:
        client = GatewayClient(args.url)
        print(f"load_gen: driving gateway at {client.url}")
    else:
        from repro.net.gateway import GatewayThread

        service = ShardedTrackingService(
            num_sites=args.k, num_shards=args.shards, seed=args.seed,
            executor="thread",
        )
        self_hosted = GatewayThread(service)
        self_hosted.__enter__()
        client = GatewayClient(self_hosted.url)
        print(f"load_gen: self-hosted gateway at {client.url}")

    try:
        status = client.call("GET", "/v1/status")
        k = status["sites"]
        shards = status["shards"]
        print(
            f"load_gen: fleet k={k}, shards={shards}, "
            f"existing jobs={sorted(status['jobs'])}"
        )

        for name, spec, seed in JOBS:
            reply = client.call(
                "POST", "/v1/jobs", {"name": name, "spec": spec, "seed": seed}
            )
            print(f"load_gen: registered {name} ({reply['scheme']})")

        stream = make_stream(args.events, k, args.seed)
        site_ids = [s for s, _ in stream]
        items = [v for _, v in stream]
        start = time.perf_counter()
        sent = 0
        batches = 0
        for i in range(0, len(stream), args.batch):
            reply = client.call(
                "POST",
                "/v1/ingest",
                {
                    "site_ids": site_ids[i : i + args.batch],
                    "items": items[i : i + args.batch],
                },
            )
            sent += reply["ingested"]
            batches += 1
        elapsed = time.perf_counter() - start
        rate = sent / elapsed if elapsed > 0 else float("inf")
        print(
            f"load_gen: ingested {sent:,} events in {batches} batches "
            f"({rate:,.0f} events/s over HTTP)"
        )

        gateway_answers = {
            "lg-total": client.call(
                "POST", "/v1/query", {"job": "lg-total"}
            )["result"],
            "lg-hot": client.call(
                "POST",
                "/v1/query",
                {"job": "lg-hot", "method": "top_items", "args": [3]},
            )["result"],
        }
        print(f"load_gen: lg-total estimate = {gateway_answers['lg-total']:,.0f}")
        print(f"load_gen: lg-hot top-3 = {gateway_answers['lg-hot']}")

        healthz = client.call("GET", "/healthz")
        queue = healthz["queue"]
        print(
            f"load_gen: gateway queue peak {queue['max_queued_events']} events, "
            f"{queue['engine_calls']} engine calls for "
            f"{queue['submitted_requests']} requests"
        )

        if not args.no_verify:
            # Mirror the gateway's topology exactly: explicit job seeds
            # make the transcripts service-seed independent, and the
            # mirror derives the same per-shard seeds.
            mirror = ShardedTrackingService(
                num_sites=k, num_shards=shards, seed=args.seed
            )
            for name, spec, seed in JOBS:
                _, _, scheme = parse_job_spec(f"{name}={spec}", 0.02)
                mirror.register(name, scheme, seed=seed)
            mirror.ingest(site_ids, items)
            expected = {
                "lg-total": mirror.query("lg-total"),
                "lg-hot": [
                    [item, estimate]
                    for item, estimate in mirror.query("lg-hot", "top_items", 3)
                ],
            }
            if gateway_answers != expected:
                print(
                    "FAIL: TRANSCRIPT DIVERGENCE — gateway answers "
                    f"{gateway_answers} != in-process {expected}",
                    file=sys.stderr,
                )
                return 2
            print("load_gen: verified: HTTP == in-process (transcript-identical)")
            if shards > 1:
                # Sharded vs unsharded: the merged count must sit within
                # the composed error bound of an unsharded reference.
                reference = TrackingService(num_sites=k, seed=args.seed)
                for name, spec, seed in JOBS:
                    _, _, scheme = parse_job_spec(f"{name}={spec}", 0.02)
                    reference.register(name, scheme, seed=seed)
                reference.ingest(site_ids, items)
                bound = 2 * TOTAL_EPS * args.events
                drift = abs(
                    gateway_answers["lg-total"] - reference.query("lg-total")
                )
                if drift > bound:
                    print(
                        f"FAIL: sharded/unsharded divergence {drift:,.0f} "
                        f"exceeds composed bound {bound:,.0f}",
                        file=sys.stderr,
                    )
                    return 2
                print(
                    f"load_gen: verified: sharded within composed bound "
                    f"(|drift|={drift:,.0f} <= {bound:,.0f})"
                )
        return 0
    finally:
        if self_hosted is not None:
            self_hosted.__exit__(None, None, None)
        if service is not None:
            service.close()


if __name__ == "__main__":
    sys.exit(main())

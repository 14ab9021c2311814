"""The traced pass: one rung per layer, timed from outside by spans.

Every rung feeds the workload's own requests (same events, same call
size, same jobs) to one layer's public functions and derives its rate
from the spans recorded around those calls.  Rungs on the workload's
waterfall run the whole stream of the traced pass, because the schemes'
message rate falls as the stream grows (log N) and a prefix would
overstate every cost; the others are boxed to ``RUNG_SECONDS`` and so
cover the stream's start-up transient only.  Two kinds of rung leave the
workload's jobs behind: the per-scheme ``core.*`` rates and the
per-query-kind ``*.query_ms`` / ``*.merge_ms`` figures always cover all
three of the paper's problems (on the workload's arrival pattern plus
the generated Zipf items), so they exist on every workload.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core import DeterministicCountScheme
from repro.exec import make_backend
from repro.exec.workers import hub_spec
from repro.net import Cluster
from repro.net.frames import (
    FrameDecoder, decode_payload, encode_frame, encode_payload,
)
from repro.persistence.codec import encode_value
from repro.runtime import Simulation, decompose_runs
from repro.service import TrackingService, parse_job_spec
from repro.shard import ShardedTrackingService, ShardRouter

from stack import Client, Stack
from trial import Spans, p50_ms, register_jobs
from workloads import DEFAULT_EPS, MIXED_JOBS, NUM_SITES, Inputs

#: time budget of a rung that is not on the workload's waterfall
RUNG_SECONDS = 0.6
#: repetitions behind a per-query or per-round-trip median
QUERY_REPEATS = 15
RTT_REPEATS = 200

#: the query kinds timed on every workload: metric suffix -> query
QUERY_KINDS = {
    "count": ("total", None, ()),
    "quantile": ("p99", "quantile", (0.5,)),
    "topk": ("hot", "top_items", (10,)),
}


def drive(spans: Spans, name: str, inputs: Inputs, call, fence=None,
          items=None, budget: float = RUNG_SECONDS) -> tuple:
    """Feed whole requests to ``call(site_ids, items)`` until the budget
    is spent (``None``: the whole stream); ``(events, seconds)`` from the
    spans around the calls (and around ``fence``, which a pipelined
    layer needs to finish the work).
    """
    first = len(spans.spans)
    deadline = time.perf_counter() + (
        float("inf") if budget is None else budget
    )
    events = 0
    for index, (lo, hi) in enumerate(inputs.requests):
        columns = inputs.columns(lo, hi, items)
        with spans.span(name, trace=index):
            call(*columns)
        events = hi
        if time.perf_counter() > deadline:
            break
    if fence is not None:
        with spans.span(name + ".fence"):
            fence()
    seconds = sum(s["end"] - s["start"] for s in spans.spans[first:])
    return events, seconds


def _median_ms(spans: Spans, name: str, call, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        with spans.span(name):
            call()
        samples.append(time.perf_counter() - started)
    return p50_ms(samples)


# -- core and runtime -------------------------------------------------------


def core_rungs(inputs: Inputs, m: dict, spans: Spans) -> float:
    """Per-scheme ``Simulation.run_batched`` rates; returns the seconds
    per event the workload's own jobs cost in ``core`` (the numerator of
    ``core.busy_share``)."""
    rates = {}

    def rate(spec: str, budget) -> float:
        kind = spec.partition("=")[2]
        if kind not in rates:
            _, _, scheme = parse_job_spec(spec, DEFAULT_EPS)
            sim = Simulation(
                scheme, NUM_SITES, seed=inputs.seed, space_sample_interval=4096
            )
            events, seconds = drive(
                spans, f"core.{kind}", inputs, sim.run_batched, items=True,
                budget=budget,
            )
            rates[kind] = events / seconds
        return rates[kind]

    core_s = sum(1.0 / rate(spec, None) for spec in inputs.workload.jobs)
    for spec in MIXED_JOBS:
        problem = spec.partition("=")[2].partition("/")[0]
        m[f"core.{problem}_events_per_s"] = rate(spec, RUNG_SECONDS)
    return core_s


def runtime_rungs(inputs: Inputs, m: dict, spans: Spans) -> None:
    runs = []
    events, seconds = drive(
        spans, "runtime.decompose_runs", inputs,
        lambda site_ids, items: runs.append(
            len(decompose_runs(site_ids, items))
        ),
    )
    m["runtime.decompose_events_per_s"] = events / seconds
    m["runtime.runs_per_kevent"] = 1000.0 * sum(runs) / events


# -- service and persistence ------------------------------------------------


def _query_rung(service, inputs: Inputs, spans: Spans, name: str) -> dict:
    """Median latency per query kind on a service holding the three
    mixed jobs, after a drive that gives the sketches something to hold."""
    register_jobs(service, MIXED_JOBS)
    drive(spans, f"{name}.fill", inputs, service.ingest, items=True)
    return {
        kind: _median_ms(
            spans, f"{name}.{kind}",
            lambda q=query: service.query(q[0], q[1], *q[2]), QUERY_REPEATS,
        )
        for kind, query in QUERY_KINDS.items()
    }


def service_rungs(inputs: Inputs, m: dict, spans: Spans, core_s: float,
                  budget) -> None:
    service = TrackingService(NUM_SITES, seed=inputs.seed)
    register_jobs(service, inputs.workload.jobs)
    events, seconds = drive(
        spans, "service.ingest", inputs, service.ingest, budget=budget
    )
    m["service.ingest_events_per_s"] = events / seconds
    m["service.tax"] = (seconds / events) / core_s
    queries = _query_rung(
        TrackingService(NUM_SITES, seed=inputs.seed), inputs, spans,
        "service.query",
    )
    for kind, value in queries.items():
        m[f"service.query_ms.{kind}"] = value


def persistence_rungs(inputs: Inputs, m: dict, spans: Spans, tmp: str,
                      budget) -> None:
    directory = os.path.join(tmp, "persistence")
    service = TrackingService(
        NUM_SITES, seed=inputs.seed, checkpoint_dir=directory
    )
    register_jobs(service, inputs.workload.jobs)
    events, seconds = drive(
        spans, "persistence.wal", inputs, service.ingest, budget=budget
    )
    m["persistence.wal_events_per_s"] = events / seconds
    m["persistence.wal_tax"] = (
        m["service.ingest_events_per_s"] / m["persistence.wal_events_per_s"]
    )
    m["persistence.wal_bytes_per_event"] = (
        service.metrics_sample()["wal_bytes"] / events
    )
    service.close()  # no snapshot since the initial one: a cold log

    started = time.perf_counter()
    with spans.span("persistence.replay"):
        service = TrackingService.restore(directory)
    m["persistence.replay_events_per_s"] = events / (
        time.perf_counter() - started
    )
    started = time.perf_counter()
    with spans.span("persistence.checkpoint"):
        path = service.checkpoint()
    m["persistence.checkpoint_s"] = time.perf_counter() - started
    m["persistence.snapshot_bytes"] = os.path.getsize(path)
    service.close()
    started = time.perf_counter()
    with spans.span("persistence.restore"):
        service = TrackingService.restore(directory)
    m["persistence.restore_s"] = time.perf_counter() - started
    service.close()


# -- shard and exec ---------------------------------------------------------


def shard_rungs(inputs: Inputs, m: dict, spans: Spans) -> None:
    router = ShardRouter(NUM_SITES, 2)
    events, seconds = drive(spans, "shard.route", inputs, router.split)
    m["shard.route_events_per_s"] = events / seconds
    shards = np.array([router.shard_of(s) for s in range(NUM_SITES)])
    per_shard = np.bincount(shards[inputs.site_ids[: inputs.events]])
    m["shard.skew"] = float(per_shard.max() / per_shard.mean())
    facade = ShardedTrackingService(NUM_SITES, 2, seed=inputs.seed)
    try:
        merges = _query_rung(facade, inputs, spans, "shard.merge")
    finally:
        facade.close()
    for kind, value in merges.items():
        m[f"shard.merge_ms.{kind}"] = value


def _exec_rung(inputs, m, spans, tmp, name, budget, **kwargs):
    """The 2-shard, WAL-on facade over one placement."""
    facade = ShardedTrackingService(
        NUM_SITES, 2, seed=inputs.seed,
        checkpoint_dir=os.path.join(tmp, f"exec-{name}"), **kwargs,
    )
    try:
        register_jobs(facade, inputs.workload.jobs)
        events, seconds = drive(
            spans, f"exec.{name}", inputs, facade.ingest, fence=facade.fence,
            budget=budget,
        )
        m[f"exec.{name}_events_per_s"] = events / seconds
        return facade.dispatch_stats()
    finally:
        facade.close()


def _rtt_rung(m: dict, spans: Spans, executor: str, seed: int, **kwargs):
    spec = hub_spec({"num_sites": NUM_SITES, "seed": seed})
    backend = make_backend(executor, spec, **kwargs)
    try:
        m[f"exec.rtt_us.{executor}"] = 1e3 * _median_ms(
            spans, f"exec.rtt.{executor}",
            lambda: backend.dispatch_run("hub_stats"), RTT_REPEATS,
        )
    finally:
        backend.close()


def local_exec_rungs(inputs, m, spans, tmp: str, budget) -> None:
    """Thread and process placements: no child of a ``Stack``, so they
    run with the benchmark unpinned and the workers free to spread."""
    _exec_rung(
        inputs, m, spans, tmp, "thread", RUNG_SECONDS, executor="thread"
    )
    _exec_rung(inputs, m, spans, tmp, "process", budget, executor="process")
    for executor in ("inline", "thread", "process"):
        _rtt_rung(m, spans, executor, inputs.seed)


def cluster_exec_rungs(inputs, m, spans, stack: Stack, budget) -> None:
    """The facade over two ``repro hub`` TCP hosts: lockstep, then the
    benchmark's relaxed window/depth."""
    addresses = stack.start_hubs()
    cluster = {"executor": "cluster", "hub_addresses": addresses}
    _exec_rung(inputs, m, spans, stack.dir, "cluster", RUNG_SECONDS, **cluster)
    stats = _exec_rung(
        inputs, m, spans, stack.dir, "cluster_relaxed", budget,
        relaxed=True, window=8192, per_site_depth=2, **cluster,
    )
    fence = spans.spans[-1]
    m["exec.fence_ms"] = (fence["end"] - fence["start"]) * 1e3
    m["exec.window_stalls"] = stats["window_stalls"]
    m["exec.max_inflight_runs"] = stats["max_inflight_runs"]
    _rtt_rung(m, spans, "cluster", inputs.seed, address=addresses[0])


# -- net: codecs, the HTTP tax, and the site-actor plane ---------------------


def codec_rungs(inputs: Inputs, m: dict, spans: Spans) -> None:
    """``net.frames`` on one ingest command (the frame a cluster backend
    posts for one request) and ``json.loads`` on the request bodies."""
    lo, hi = inputs.requests[0]
    site_ids, items = inputs.columns(lo, hi)
    command = {
        "t": "op", "op": "ingest",
        "args": encode_value(
            [site_ids.tolist(), None if items is None else items.tolist()]
        ),
    }
    frame = encode_frame(encode_payload(command))
    repeats = 200
    with spans.span("net.frame_encode"):
        started = time.perf_counter()
        for _ in range(repeats):
            encode_frame(encode_payload(command))
        encode_s = time.perf_counter() - started
    with spans.span("net.frame_decode"):
        started = time.perf_counter()
        for _ in range(repeats):
            (payload,) = FrameDecoder().feed(frame)
            decode_payload(payload)
        decode_s = time.perf_counter() - started
    megabytes = repeats * len(frame) / 1e6
    m["net.frame_encode_mb_per_s"] = megabytes / encode_s
    m["net.frame_decode_mb_per_s"] = megabytes / decode_s
    m["net.frame_bytes_per_event"] = len(frame) / (hi - lo)

    bodies = inputs.bodies[: max(1, len(inputs.bodies) // 4)]
    started = time.perf_counter()
    with spans.span("net.json_parse"):
        for body in bodies:
            json.loads(body)
    parse_s = time.perf_counter() - started
    events = inputs.requests[len(bodies) - 1][1]
    m["net.json_parse_events_per_s"] = events / parse_s
    m["net.json_body_bytes_per_event"] = sum(map(len, bodies)) / events


def gateway_rung(inputs: Inputs, m: dict, spans: Spans) -> None:
    """``repro gateway`` over an unsharded, WAL-less service."""
    with Stack() as stack:
        url = stack.start_unsharded_gateway(
            inputs.seed, list(inputs.workload.jobs)
        )
        client = Client(url)
        try:
            bodies = iter(inputs.bodies)
            events, seconds = drive(
                spans, "net.gateway_unsharded", inputs,
                lambda *_: client.post("/v1/ingest", next(bodies)),
            )
        finally:
            client.close()
    m["net.gateway_unsharded_events_per_s"] = events / seconds
    m["net.gateway_tax"] = (
        m["service.ingest_events_per_s"] / (events / seconds)
    )


def cluster_rungs(inputs: Inputs, m: dict, spans: Spans, stack: Stack,
                  budget) -> None:
    """Deterministic count (the scheme relaxed dispatch keeps exact) on
    the site-actor plane: loopback and TCP, lockstep and relaxed.  The
    lockstep rungs pay a round trip per protocol message and are always
    boxed: they cover the first call(s), where deterministic count still
    sends about one message per event."""
    address = stack.start_site_host()
    relaxed = {"relaxed": True, "window": 64, "per_site_depth": 2}
    tcp = {"transport": "tcp", "site_addresses": [address]}
    variants = {
        "loopback": ({}, RUNG_SECONDS),
        "lockstep_tcp": (tcp, RUNG_SECONDS),
        "relaxed_inproc": (relaxed, budget),
        "relaxed_tcp": ({**tcp, **relaxed}, budget),
    }
    for name, (kwargs, box) in variants.items():
        cluster = Cluster(
            DeterministicCountScheme(0.01), NUM_SITES, seed=inputs.seed,
            record_transcript=False, **kwargs,
        )
        try:
            events, seconds = drive(
                spans, f"net.cluster_{name}", inputs, cluster.ingest,
                fence=cluster.query, items=False, budget=box,
            )
            m[f"net.cluster_{name}_events_per_s"] = events / seconds
            if name == "relaxed_tcp":
                wire = cluster.wire_stats
                m["net.cluster_wire_bytes_per_event"] = (
                    wire["bytes_sent"] + wire["bytes_received"]
                ) / events
                m["net.cluster_window_stalls"] = (
                    cluster.dispatch_stats()["window_stalls"]
                )
        finally:
            cluster.close()


# -- what the traced gateway pass says about the layers ----------------------


def _registry_total(registry: dict, family: str) -> float:
    return sum(s["value"] for s in registry[family]["samples"])


def gateway_counters(traced: dict, events: int, m: dict) -> None:
    queue = traced["healthz_queue"]
    m["service.engine_calls"] = queue["engine_calls"]
    m["service.requests_per_engine_call"] = (
        queue["submitted_requests"] / queue["engine_calls"]
    )
    m["service.max_queued_events"] = queue["max_queued_events"]
    m["service.backpressure_waits"] = queue["backpressure_waits"]
    registry = traced["registry"]
    m["net.hub_wire_bytes_per_event"] = (
        _registry_total(registry, "repro_net_bytes_total") / events
    )
    m["net.hub_frames_per_kevent"] = (
        1000.0 * _registry_total(registry, "repro_net_frames_total") / events
    )
    m["obs.scrape_ms"] = p50_ms(traced["scrape_s"])
    m["obs.trace_fetch_ms"] = p50_ms(traced["trace_fetch_s"])


# -- the waterfall ----------------------------------------------------------

SERVICE_RUNGS = (
    ("core", None),
    ("service", "service.ingest_events_per_s"),
    ("persistence (+WAL)", "persistence.wal_events_per_s"),
    ("shard inline", "shard.inline_events_per_s"),
    ("exec process", "exec.process_events_per_s"),
    ("exec cluster TCP relaxed", "exec.cluster_relaxed_events_per_s"),
    ("gateway HTTP (end to end)", None),
)
PROTO_RUNGS = (
    ("core", None),
    ("cluster relaxed in-process", "net.cluster_relaxed_inproc_events_per_s"),
    ("cluster relaxed TCP (end to end)", None),
)


def waterfall(rungs, m: dict, core_s: float, end_to_end: float) -> list:
    """Per rung: events/s, ratio to the rung below, and self time (its
    seconds per event minus the rung below's) as a share of end-to-end
    seconds per event.  The shares telescope to 1 by construction."""
    rows = []
    below = None
    for label, metric in rungs:
        if metric is not None:
            rate = m[metric]
        else:
            rate = 1.0 / core_s if below is None else end_to_end
        self_s = 1.0 / rate - (0.0 if below is None else 1.0 / below)
        rows.append({
            "rung": label,
            "events_per_s": rate,
            "ratio_to_below": None if below is None else rate / below,
            "self_us_per_event": 1e6 * self_s,
            "self_share": self_s * end_to_end,
        })
        below = rate
    return rows

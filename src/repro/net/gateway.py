"""HTTP/JSON query gateway over a multi-tenant tracking service.

A small asyncio HTTP/1.1 server (stdlib only — hand-rolled request
parsing over ``asyncio.start_server``) exposing the
:class:`~repro.service.TrackingService` surface:

====== ========================== ========================================
GET    /healthz                    liveness + ingest-queue gauges
GET    /metrics                    Prometheus text exposition (open)
GET    /v1/metrics                 the same registry as JSON
GET    /v1/trace                   cross-process trace spans
                                   (``?trace_id=``/``?name=``/``?limit=``)
GET    /v1/alerts                  alert rules, states and recent events
GET    /v1/status                  full service status (pods-style)
GET    /v1/jobs                    registered jobs, compact
POST   /v1/jobs                    register: ``{"name", "spec", ...}``
DELETE /v1/jobs/<name>             unregister
POST   /v1/ingest                  ``{"site_ids": [...], "items": [...]}``
POST   /v1/query                   ``{"job", "method", "args"}``
GET    /v1/query/<job>             ``?method=...&arg=...`` (repeatable)
POST   /v1/subscribe               register a standing query (SSE)
GET    /v1/subscriptions           live standing queries, compact
DELETE /v1/subscribe/<id>          drop a standing query
GET    /v1/stream/<id>             Server-Sent-Events delta stream
====== ========================== ========================================

Ingestion goes through the :class:`~repro.service.AsyncBatchIngestor`:
requests are coalesced into engine batches and admission is bounded —
when the queue is full the handler *waits* (the client sees latency,
never a drop), and a 200 response means the events have been applied
(post-WAL when the service is durable).

Queries and mutations take the ingestor's service lock on an executor
thread, so readers always see a batch boundary, and the event loop is
never blocked by protocol work.

**Observability.**  Each gateway owns a
:class:`~repro.obs.MetricsRegistry` (pass ``registry=`` to share one):
request counters/latency histograms per route template, rejection
counters, queue gauges, plus scrape-time collector bridges into the
service (``metrics_sample`` — engine totals, WAL bytes, per-job comm,
per-shard space), the exec plane (per-backend dispatch-latency
histograms, the pending-fence gauge) and cluster transports (frame and
byte counters).  ``/metrics`` and ``/healthz`` read the same registry,
so the two surfaces cannot disagree.  Scrapes run under the service
lock; on a relaxed sharded facade they fence outstanding batches,
exactly like ``/v1/status``.

**Standing queries.**  ``POST /v1/subscribe`` registers a spec —
``{"kind": "query", "job", "method", "args"}`` (delta on every change
of the answer), ``{"kind": "threshold", ..., "op", "value"}`` (event
when the predicate flips), or ``{"kind": "metrics", "metric"}`` (delta
on a metric family's total) — and ``GET /v1/stream/<id>`` serves the
deltas over SSE.  Evaluation is push-based: the ingestor's
``on_applied`` hook marks the plane dirty after every coalescing
round, and one evaluator task re-evaluates all standing queries under
the service lock — clients stop polling.

**Alerting.**  Pass ``alert_rules=`` (the parsed ``--alert-rules``
manifest) and the same evaluator also computes each alert rule's raw
value per coalescing round, steps the
:class:`~repro.obs.AlertManager` state machines, and routes
firing/resolved transitions to the manifest's sinks.  Every event
carries the ``trace_id`` of the round that flipped it, and
``/v1/trace?trace_id=`` resolves that exemplar to the stitched
cross-process dispatch — gateway ``round`` span, facade ``dispatch``
span, and remote hubs' ``ingest`` spans (collected over the exec
plane's ``collect_spans`` command and retained gateway-side).

**Tracing.**  ``POST /v1/ingest`` mints a ``trace_id`` (returned in
the 200) and the coalescing round that applies the request adopts the
first queued request's trace; the context rides the exec plane's
command envelopes into worker threads, subprocesses and remote hub
actors, so one ``GET /v1/trace?trace_id=<id>`` shows the whole path.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import math
import time
from collections import deque
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from ..obs import (
    AlertManager,
    FleetMonitor,
    FleetTarget,
    MetricsRegistry,
    SpanRecorder,
    SubscriptionHub,
    filter_spans,
    new_trace_id,
    register_process_metrics,
    render_prometheus,
    render_sse_event,
)
from ..obs.metrics import DEFAULT_BUCKETS, LATENCY_BUCKETS, SIZE_BUCKETS
from ..obs.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from ..service import ServiceError, TrackingService
from ..service.async_ingest import AsyncBatchIngestor
from ..service.errors import DuplicateJobError, UnknownJobError
from ..service.jobspec import parse_job_spec, parse_query_literal
from .transport import LoopThread

__all__ = ["Gateway", "GatewayThread", "TokenBucket", "jsonable"]

#: seconds between SSE keep-alive comments on an idle stream
_SSE_KEEPALIVE = 15.0

#: client reconnect hint (the SSE ``retry:`` field), milliseconds
_SSE_RETRY_MS = 3000

#: scrape-side cache of the service's ``metrics_sample`` (a fan-out on
#: sharded facades); scrapes within the TTL reuse the last sample
_SAMPLE_TTL = 0.5

_MAX_BODY = 64 * 1024 * 1024
_MAX_HEADER_LINE = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class TokenBucket:
    """Event-rate limiter for ingest admission (quota enforcement).

    Classic token bucket: ``rate`` tokens (events) per second refill up
    to ``burst``.  :meth:`try_admit` is non-blocking — it either debits
    the request or returns the seconds until enough tokens exist, which
    the gateway surfaces as ``Retry-After`` on a 429.  A request larger
    than the whole burst is admitted whenever the bucket is full (the
    balance goes negative, charging the overdraft to later requests), so
    oversized batches degrade to serial instead of being unserveable.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def try_admit(self, n: int) -> float:
        """Admit ``n`` events now (return 0.0) or return the wait, in
        seconds, after which a retry would succeed."""
        now = self._clock()
        self.tokens = min(
            self.burst, self.tokens + (now - self._last) * self.rate
        )
        self._last = now
        need = min(float(n), self.burst)
        if self.tokens >= need:
            self.tokens -= n
            return 0.0
        return (need - self.tokens) / self.rate


class _HttpError(Exception):
    def __init__(self, status: int, message: str, headers: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


class _Raw:
    """A non-JSON response payload (body bytes + content type)."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: str, content_type: str):
        self.body = body.encode()
        self.content_type = content_type


class _SSEStream:
    """Route-result marker: hijack this connection into an SSE stream."""

    __slots__ = ("subscription",)

    def __init__(self, subscription):
        self.subscription = subscription


def jsonable(value):
    """Make a query result JSON-renderable without losing structure.

    Tuples and sets become lists; dict keys that are not strings are
    stringified via ``json``-style rendering (so a tuple key shows as
    ``"[tenant, item]"`` rather than crashing the encoder).
    """
    if isinstance(value, dict):
        return {_key(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    return value


def _key(key) -> str:
    if isinstance(key, str):
        return key
    try:
        return json.dumps(jsonable(key), separators=(",", ":"))
    except (TypeError, ValueError):
        return repr(key)


def _route_template(path: str) -> str:
    """Collapse a request path to its route template.

    Request metrics are labelled by template (``/v1/query/{job}``, not
    the literal path), so a client cycling job names or probing random
    URLs cannot blow up the label cardinality.
    """
    if path in ("/healthz", "/metrics"):
        return path
    segments = [s for s in path.split("/") if s]
    if segments[:1] == ["v1"] and len(segments) >= 2:
        head = segments[1]
        if head in (
            "status", "metrics", "trace", "alerts", "ingest", "query",
            "jobs", "subscribe", "subscriptions", "stream", "fleet",
        ):
            if len(segments) == 2:
                return f"/v1/{head}"
            if head == "fleet":
                return "/v1/fleet/events"
            if head == "jobs":
                return "/v1/jobs/{name}"
            if head == "query":
                return "/v1/query/{job}"
            if head == "subscribe":
                return "/v1/subscribe/{id}"
            if head == "stream":
                return "/v1/stream/{id}"
    return "other"


#: comparison operators a threshold subscription may use
_THRESHOLD_OPS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


class Gateway:
    """The asyncio HTTP server; owns an ingest queue, not the service.

    Parameters
    ----------
    service:
        The :class:`TrackingService` to expose (caller keeps ownership —
        and responsibility for ``close()``).
    host / port:
        Bind address; port 0 picks an ephemeral port (see :attr:`port`).
    capacity_events / max_batch_events:
        Ingest-queue bound and coalescing ceiling
        (:class:`AsyncBatchIngestor`).
    default_eps:
        Error target used when a registered job spec omits ``:EPS``.
    max_ingest_rate / ingest_burst:
        Ingest quota: admit at most ``max_ingest_rate`` events/second
        (token bucket of ``ingest_burst`` events, default one queue
        capacity).  Requests over quota get **429** with ``Retry-After``
        instead of queueing.  ``None`` (default) disables the limiter.
        Space budgets are enforced independently: while any job exceeds
        its registered ``space_budget_words``, further ingests get
        **413** until the operator widens the budget or drops the job.
    api_keys:
        Per-tenant authentication: a mapping of API key -> tenant
        label.  When set, every ``/v1`` request must carry
        ``Authorization: Bearer <key>`` — a missing/malformed header is
        **401**, an unknown key **403** (``/healthz`` stays open for
        probes).  The ingest token buckets are then scoped **per key**
        (each tenant gets its own ``max_ingest_rate``/``ingest_burst``
        budget) instead of one bucket per gateway.
    alert_rules:
        The parsed ``--alert-rules`` JSON manifest (see
        :meth:`repro.obs.AlertManager.from_manifest`): delivery sinks
        plus rules whose raw values the gateway evaluates each
        coalescing round.  ``None`` (default) runs without alerting;
        ``GET /v1/alerts`` then answers with an empty rule set.
    fleet_interval:
        Seconds between fleet heartbeat polls (``hub_stats`` to every
        shard hub — or to the in-process service when unsharded).  The
        monitor behind it feeds ``GET /v1/fleet``, the
        ``repro_fleet_*`` families, and ``fleet``-kind alert rules.
    """

    def __init__(
        self,
        service: TrackingService,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity_events: int = 1 << 16,
        max_batch_events: int = 8192,
        default_eps: float = 0.02,
        max_ingest_rate: Optional[float] = None,
        ingest_burst: Optional[int] = None,
        api_keys: Optional[dict] = None,
        registry: Optional[MetricsRegistry] = None,
        alert_rules: Optional[dict] = None,
        fleet_interval: float = 2.0,
    ):
        self.service = service
        self.host = host
        self._requested_port = port
        self.default_eps = default_eps
        self.ingestor = AsyncBatchIngestor(
            service,
            capacity_events=capacity_events,
            max_batch_events=max_batch_events,
        )
        if api_keys is not None:
            if not isinstance(api_keys, dict) or not api_keys or not all(
                isinstance(k, str) and k and isinstance(v, str)
                for k, v in api_keys.items()
            ):
                raise ValueError(
                    "api_keys must be a non-empty mapping of key -> tenant"
                )
        self.api_keys = dict(api_keys) if api_keys else None
        self._rate = max_ingest_rate
        self._burst = ingest_burst or capacity_events
        self.rate_limiter: Optional[TokenBucket] = None
        if max_ingest_rate is not None and self.api_keys is None:
            self.rate_limiter = TokenBucket(max_ingest_rate, self._burst)
        #: per-key token buckets (lazily created; auth mode only)
        self.key_buckets: dict = {}
        self._server: Optional[asyncio.base_events.Server] = None
        #: the dispatch-plane span buffer (the facade's when sharded,
        #: else a gateway-owned recorder so /v1/trace always answers).
        #: Explicit None check: an empty SpanRecorder is falsy (__len__).
        service_spans = getattr(service, "spans", None)
        self.spans: SpanRecorder = (
            service_spans if service_spans is not None else SpanRecorder()
        )
        # The ingestor records its per-round "round" spans here too, so
        # gateway, facade and (unsharded) hub spans share one buffer.
        self.ingestor.spans = self.spans
        #: hub-side spans already collected from remote shard hubs
        #: (collection *drains* their buffers, so the gateway retains
        #: what it has seen for repeated /v1/trace reads)
        self._hub_spans: deque = deque(maxlen=4096)
        #: trace id of the most recently applied coalescing round — the
        #: exemplar stamped onto alert transition events
        self._last_trace_id: Optional[str] = None
        self.subscriptions = SubscriptionHub()
        self._dirty: Optional[asyncio.Event] = None
        self._evaluator_task: Optional[asyncio.Task] = None
        self._stream_writers: set = set()
        self._sample_cache: Optional[dict] = None
        self._sample_time = 0.0
        self.registry = registry if registry is not None else MetricsRegistry()
        self.alerts: Optional[AlertManager] = (
            None
            if alert_rules is None
            else AlertManager.from_manifest(alert_rules, registry=self.registry)
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.fleet = self._init_fleet(fleet_interval)
        self._init_metrics()

    def _init_fleet(self, fleet_interval: float) -> FleetMonitor:
        """One poll target per shard hub; the service itself unsharded.

        Each poll posts ``hub_stats`` down the hub's command pipe
        *under the ingest lock* — the pipes are FIFO and not safe
        against interleaved dispatch, so polls queue behind coalescing
        rounds exactly like scrapes and status reads do.  Liveness
        transitions wake the evaluator (via ``call_soon_threadsafe``)
        only when ``fleet``-kind alert rules exist: their values change
        with time, not with ingest, so the ingest-driven wakeup alone
        would never fire a hub-down alert on a quiet gateway.
        """
        targets = []
        backends = list(getattr(self.service, "backends", None) or ())
        if backends:
            def make_poll(backend):
                def poll():
                    with self.ingestor.lock:
                        return backend.dispatch_run("hub_stats")

                return poll

            for shard, backend in enumerate(backends):
                targets.append(
                    FleetTarget(
                        str(shard),
                        make_poll(backend),
                        address=(
                            getattr(backend, "address", None)
                            or type(backend).__name__
                        ),
                        pending=(lambda b=backend: b.pending),
                    )
                )
        else:
            from ..exec.workers import hub_stats

            def poll_local():
                with self.ingestor.lock:
                    return hub_stats(self.service)

            targets.append(
                FleetTarget("0", poll_local, address="in-process")
            )
        self._fleet_wakes = self.alerts is not None and any(
            rule.spec.get("kind") == "fleet"
            for rule in self.alerts.rules.values()
        )
        return FleetMonitor(
            targets,
            interval=fleet_interval,
            spans=self.spans,
            on_round=self._on_fleet_round,
        )

    def _on_fleet_round(self) -> None:
        """Fleet-poll callback (monitor thread): nudge the evaluator."""
        if not self._fleet_wakes:
            return
        loop, dirty = self._loop, self._dirty
        if loop is None or dirty is None:
            return
        try:
            loop.call_soon_threadsafe(dirty.set)
        except RuntimeError:
            pass  # loop already closed

    # -- metrics wiring ----------------------------------------------------

    def _init_metrics(self) -> None:
        """Declare the gateway's families and bridge every layer in.

        Hot paths own plain counters or standalone instruments; the
        registry reaches them through ``set_function`` gauges,
        ``attach``-ed children, and scrape-time collectors — nothing
        here adds work to the per-event ingest path.
        """
        r = self.registry
        register_process_metrics(r)
        self.fleet.register_metrics(r)
        self.m_requests = r.counter(
            "repro_gateway_requests_total",
            "HTTP requests served, by route template, method and status.",
            ["route", "method", "status"],
        )
        self.m_request_seconds = r.histogram(
            "repro_gateway_request_seconds",
            "Request handling latency by route template.",
            ["route"],
            buckets=LATENCY_BUCKETS,
        )
        self.m_inflight = r.gauge(
            "repro_gateway_inflight_requests",
            "Requests currently being handled, by route template.",
            ["route"],
        )
        self.m_route_errors = r.counter(
            "repro_gateway_errors_total",
            "Responses with a 5xx status, by route template (the "
            "top-level handler's exception path).",
            ["route"],
        )
        self.m_rejections = r.counter(
            "repro_gateway_rejections_total",
            "Requests refused by the auth (401/403), space-budget (413) "
            "and quota (429) guards.",
            ["code"],
        )
        for code in ("401", "403", "413", "429"):
            self.m_rejections.labels(code)
        self.m_ingested = r.counter(
            "repro_gateway_events_ingested_total",
            "Events accepted through /v1/ingest, per tenant.",
            ["tenant"],
        )
        self.m_batch_events = r.histogram(
            "repro_gateway_batch_events",
            "Events per applied coalescing round.",
            buckets=SIZE_BUCKETS,
        )
        self.m_apply_seconds = r.histogram(
            "repro_gateway_apply_seconds",
            "Engine apply latency per coalescing round.",
            buckets=DEFAULT_BUCKETS,
        )
        r.gauge(
            "repro_gateway_queue_depth_events",
            "Events admitted but not yet applied.",
        ).set_function(lambda: self.ingestor.queued_events)
        r.gauge(
            "repro_gateway_queue_capacity_events",
            "Ingest queue bound, in events.",
        ).set_function(lambda: self.ingestor.capacity_events)
        r.gauge(
            "repro_gateway_subscriptions",
            "Registered standing queries.",
        ).set_function(lambda: len(self.subscriptions))
        r.gauge(
            "repro_gateway_streams",
            "Open SSE streaming connections.",
        ).set_function(lambda: len(self._stream_writers))
        self.m_queue_stats = r.counter(
            "repro_gateway_ingest_queue_stat",
            "AsyncBatchIngestor running totals, by stat name.",
            ["stat"],
        )
        # -- service layer (bridged from metrics_sample at scrape time)
        self.m_service_elements = r.counter(
            "repro_service_elements_total",
            "Events applied to the service, all jobs observing each.",
        )
        self.m_engine_batches = r.counter(
            "repro_service_ingest_batches_total",
            "Engine calls (coalesced batches applied).",
        )
        self.m_engine_site_calls = r.counter(
            "repro_service_ingest_site_calls_total",
            "Site on_elements calls the engine made, over all jobs "
            "(elements * jobs / this = mean slice per call).",
        )
        self.m_wal_bytes = r.counter(
            "repro_service_wal_bytes_total",
            "Bytes appended to write-ahead logs (0 without durability).",
        )
        self.m_wal_records = r.counter(
            "repro_service_wal_records_total",
            "Records appended to write-ahead logs.",
        )
        self.m_comm_messages = r.counter(
            "repro_service_comm_messages_total",
            "Protocol messages, fleet-wide, by channel.",
            ["channel"],
        )
        self.m_comm_words = r.counter(
            "repro_service_comm_words_total",
            "Protocol words, fleet-wide, by channel.",
            ["channel"],
        )
        self.m_job_elements = r.counter(
            "repro_service_job_elements_total",
            "Events observed per job.",
            ["job"],
        )
        self.m_job_comm_words = r.counter(
            "repro_service_job_comm_words_total",
            "Protocol words per job (its own ledger).",
            ["job"],
        )
        self.m_space_used = r.gauge(
            "repro_shard_space_used_words",
            "High-water site space per shard and job (max over the "
            "shard's sites).",
            ["shard", "job"],
        )
        self.m_space_available = r.gauge(
            "repro_shard_space_available_words",
            "Budget headroom per shard and job (budgeted jobs only).",
            ["shard", "job"],
        )
        self.m_shard_elements = r.counter(
            "repro_shard_elements_total",
            "Events routed to each shard hub.",
            ["shard"],
        )
        r.register_collector(self._collect_queue_stats)
        r.register_collector(self._collect_service)
        # -- shard merge plane + exec plane (facade-owned instruments)
        merge_latency = getattr(self.service, "merge_latency", None)
        if merge_latency is not None:
            fam = r.histogram(
                "repro_shard_merge_seconds",
                "Cross-shard query merge latency (fan-out included).",
                buckets=DEFAULT_BUCKETS,
            )
            fam.attach((), merge_latency)
            fam = r.histogram(
                "repro_shard_merge_candidates",
                "Candidate-union sizes of quantile/heavy-hitter/top-k "
                "merges.",
                buckets=SIZE_BUCKETS,
            )
            fam.attach((), self.service.merge_candidates)
            fam = r.histogram(
                "repro_shard_merge_fanouts",
                "Fan-out rounds (one fenced round trip to every hub "
                "each) per merged query.",
                buckets=SIZE_BUCKETS,
            )
            fam.attach((), self.service.merge_fanouts)
        backends = list(getattr(self.service, "backends", None) or ())
        if backends:
            fam = r.histogram(
                "repro_exec_dispatch_seconds",
                "Per-backend submit-to-collect latency; under relaxed "
                "dispatch this is the in-flight window.",
                ["shard"],
                buckets=LATENCY_BUCKETS,
            )
            for shard, backend in enumerate(backends):
                fam.attach((str(shard),), backend.latency)
            r.gauge(
                "repro_exec_pending_commands",
                "Commands posted to shard hubs but not collected (the "
                "pending-fence depth).",
            ).set_function(lambda: self.service.pending_commands)
        # -- windowed relaxed dispatch (facade-owned; see
        #    docs/relaxed-mode.md → "Windowing")
        coalesced = getattr(self.service, "coalesced_runs", None)
        if coalesced is not None:
            fam = r.histogram(
                "repro_exec_coalesced_runs_per_frame",
                "Run weight of each windowed sub-batch command posted "
                "to a shard hub (runs riding one frame).",
                buckets=SIZE_BUCKETS,
            )
            fam.attach((), coalesced)
            r.gauge(
                "repro_exec_inflight_runs",
                "Runs posted under the relaxed window but not yet "
                "collected.",
            ).set_function(lambda: self.service.inflight_runs())
            self.m_window_stalls = r.counter(
                "repro_exec_window_stalls_total",
                "Posts that collected an in-flight reply to free "
                "window credit before proceeding.",
            )
            r.register_collector(self._collect_dispatch)
        transports = [
            backend._transport
            for backend in backends
            if getattr(backend, "_transport", None) is not None
        ]
        if transports:
            self.m_net_bytes = r.counter(
                "repro_net_bytes_total",
                "Transport bytes over cluster-backend connections.",
                ["direction"],
            )
            self.m_net_frames = r.counter(
                "repro_net_frames_total",
                "Transport frames over cluster-backend connections.",
                ["direction"],
            )
            self._transports = transports
            r.register_collector(self._collect_net)

    def _collect_queue_stats(self) -> None:
        for stat, value in self.ingestor.stats.items():
            # mirror externally owned monotonic totals: assignment, not
            # inc, so the bridge is idempotent across scrapes
            self.m_queue_stats.labels(stat).value = float(value)

    def _service_sample(self) -> dict:
        now = time.monotonic()
        if (
            self._sample_cache is None
            or now - self._sample_time >= _SAMPLE_TTL
        ):
            self._sample_cache = self.service.metrics_sample()
            self._sample_time = now
        return self._sample_cache

    def _collect_service(self) -> None:
        sample = self._service_sample()
        self.m_service_elements.labels().value = float(sample["elements"])
        self.m_engine_batches.labels().value = float(
            sample["engine"].get("batches", 0)
        )
        self.m_engine_site_calls.labels().value = float(
            sample["engine"].get("site_calls", 0)
        )
        self.m_wal_bytes.labels().value = float(sample["wal_bytes"])
        self.m_wal_records.labels().value = float(sample["wal_records"])
        for channel in ("uplink", "downlink", "broadcast"):
            self.m_comm_messages.labels(channel).value = float(
                sample["comm"].get(f"{channel}_messages", 0)
            )
            self.m_comm_words.labels(channel).value = float(
                sample["comm"].get(f"{channel}_words", 0)
            )
        for name, info in sample["jobs"].items():
            self.m_job_elements.labels(name).value = float(info["elements"])
            self.m_job_comm_words.labels(name).value = float(
                info["comm"].get("total_words", 0)
            )
            budget = info.get("budget")
            shards = info.get("shards") or [
                {"shard": 0, "space": info["space"]}
            ]
            for entry in shards:
                shard = str(entry["shard"])
                used = entry["space"]["max_site_words"]
                self.m_space_used.labels(shard, name).set(used)
                if budget is not None:
                    self.m_space_available.labels(shard, name).set(
                        budget - used
                    )
        for entry in sample.get("shards") or [
            {"shard": 0, "elements": sample["elements"]}
        ]:
            self.m_shard_elements.labels(str(entry["shard"])).value = float(
                entry["elements"]
            )

    def _collect_dispatch(self) -> None:
        """Bridge the facade's plain windowed-dispatch counters."""
        self.m_window_stalls.labels().value = float(
            self.service.dispatch_stats()["window_stalls"]
        )

    def _collect_net(self) -> None:
        totals = {"sent": [0, 0], "received": [0, 0]}
        for transport in self._transports:
            stats = transport.stats
            for direction in totals:
                totals[direction][0] += stats.get(f"bytes_{direction}", 0)
                totals[direction][1] += stats.get(f"frames_{direction}", 0)
        for direction, (nbytes, nframes) in totals.items():
            self.m_net_bytes.labels(direction).value = float(nbytes)
            self.m_net_frames.labels(direction).value = float(nframes)

    # -- rejection counters (registry-backed; /healthz reads these) --------

    @property
    def rejected_429(self) -> int:
        return int(self.m_rejections.labels("429").value)

    @property
    def rejected_413(self) -> int:
        return int(self.m_rejections.labels("413").value)

    @property
    def rejected_401(self) -> int:
        return int(self.m_rejections.labels("401").value)

    @property
    def rejected_403(self) -> int:
        return int(self.m_rejections.labels("403").value)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "Gateway":
        await self.ingestor.start()
        self._loop = asyncio.get_running_loop()
        self._dirty = asyncio.Event()
        self.ingestor.on_applied.append(self._on_applied)
        self._evaluator_task = asyncio.ensure_future(self._evaluator())
        self.fleet.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )
        return self

    def _on_applied(self, events: int, seconds: float) -> None:
        """Ingestor callback after each applied coalescing round."""
        self.m_batch_events.observe(events)
        self.m_apply_seconds.observe(seconds)
        self._last_trace_id = self.ingestor.last_trace_id
        # the TTL cache only dedupes *concurrent* scrapes; an applied
        # batch must be visible to the next scrape (and to metrics-kind
        # standing queries) immediately
        self._sample_cache = None
        if self._dirty is not None:
            self._dirty.set()

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def close(self) -> None:
        # stop heartbeating first: a poll in flight holds the ingest
        # lock and may be blocked on a dead hub, so join it off-loop
        await asyncio.get_running_loop().run_in_executor(
            None, self.fleet.stop
        )
        if self._server is not None:
            self._server.close()
            # SSE connections are long-lived by design; abort them so
            # wait_closed() (which joins handlers on newer Pythons)
            # cannot hang on a subscribed client.
            for writer in list(self._stream_writers):
                try:
                    writer.transport.abort()
                except Exception:
                    pass
            await self._server.wait_closed()
            self._server = None
        if self._evaluator_task is not None:
            self._evaluator_task.cancel()
            try:
                await self._evaluator_task
            except asyncio.CancelledError:
                pass
            self._evaluator_task = None
        await self.ingestor.close()
        if self.alerts is not None:
            # joins the delivery thread; off-loop so a slow sink's
            # in-flight emit cannot stall the event loop
            await asyncio.get_running_loop().run_in_executor(
                None, self.alerts.close
            )

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    # Parse-level failures (malformed request line, huge
                    # header/body) still deserve their coded response;
                    # the stream position is unknown afterwards, so the
                    # connection closes.
                    await self._respond(
                        writer, exc.status, {"error": exc.message}, True
                    )
                    break
                if request is None:
                    break
                method, path, query, headers, body = request
                extra_headers = None
                route = _route_template(path)
                inflight = self.m_inflight.labels(route)
                inflight.inc()
                started = time.perf_counter()
                try:
                    try:
                        key = self._authenticate(path, headers)
                        status, payload = await self._route(
                            method, path, query, body, key
                        )
                    except _HttpError as exc:
                        status, payload = exc.status, {"error": exc.message}
                        extra_headers = exc.headers
                    except (UnknownJobError, AttributeError) as exc:
                        status, payload = 404, {"error": str(exc)}
                    except DuplicateJobError as exc:
                        status, payload = 409, {"error": str(exc)}
                    except (ValueError, TypeError, ServiceError) as exc:
                        status, payload = 400, {"error": str(exc)}
                    except Exception as exc:  # keep serving other clients
                        status, payload = 500, {
                            "error": f"{type(exc).__name__}: {exc}"
                        }
                finally:
                    inflight.dec()
                self.m_requests.labels(route, method, str(status)).inc()
                self.m_request_seconds.labels(route).observe(
                    time.perf_counter() - started
                )
                if status >= 500:
                    self.m_route_errors.labels(route).inc()
                if isinstance(payload, _SSEStream):
                    # Hijack: the connection becomes a one-way event
                    # stream and closes when either side gives up.
                    await self._stream(
                        reader, writer, payload.subscription, headers
                    )
                    break
                close = headers.get("connection", "").lower() == "close"
                await self._respond(
                    writer, status, payload, close, extra_headers
                )
                if close:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            OSError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers = {}
        while True:
            header = await reader.readline()
            if len(header) > _MAX_HEADER_LINE:
                raise _HttpError(400, "header line too long")
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", 0) or 0)
        except ValueError:
            raise _HttpError(400, "malformed Content-Length header") from None
        if length > _MAX_BODY:
            raise _HttpError(413, f"body exceeds {_MAX_BODY} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        # query stays a pair list: repeatable keys (``arg``) must survive
        return method.upper(), split.path, parse_qsl(split.query), headers, body

    async def _respond(
        self, writer, status, payload, close, headers: Optional[dict] = None
    ) -> None:
        if isinstance(payload, _Raw):
            body = payload.body
            content_type = payload.content_type
        else:
            body = json.dumps(payload, separators=(",", ":")).encode()
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        connection = "close" if close else "keep-alive"
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {connection}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # -- auth --------------------------------------------------------------

    def _authenticate(self, path: str, headers: dict) -> Optional[str]:
        """Resolve the request's API key (None when auth is off).

        ``/healthz`` and ``/metrics`` stay open so liveness probes and
        scrapers work without credentials; everything else requires a
        valid ``Authorization: Bearer <key>`` when ``api_keys`` is set.
        """
        if self.api_keys is None or path in ("/healthz", "/metrics"):
            return None
        header = headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        token = token.strip()
        if not header or scheme.lower() != "bearer" or not token:
            self.m_rejections.labels("401").inc()
            raise _HttpError(
                401,
                "missing or malformed Authorization header "
                "(expected: Bearer <api-key>)",
                headers={"WWW-Authenticate": "Bearer"},
            )
        # Constant-time scan of the (small, bounded) key set: no early
        # exit and no short-circuiting equality, so the 403 path's
        # timing does not leak how much of a candidate key matched.
        matched = None
        token_bytes = token.encode()
        for known in self.api_keys:
            if hmac.compare_digest(token_bytes, known.encode()):
                matched = known
        if matched is None:
            self.m_rejections.labels("403").inc()
            raise _HttpError(403, "unknown API key")
        return matched

    def _bucket_for(self, key: Optional[str]) -> Optional[TokenBucket]:
        """The token bucket charging this request's ingest quota.

        Without auth there is one gateway-wide bucket; with auth each
        key gets its own (created on first use), so one tenant's burst
        cannot starve another's.
        """
        if self._rate is None:
            return None
        if self.api_keys is None or key is None:
            return self.rate_limiter
        bucket = self.key_buckets.get(key)
        if bucket is None:
            bucket = self.key_buckets[key] = TokenBucket(
                self._rate, self._burst
            )
        return bucket

    # -- routing -----------------------------------------------------------

    async def _route(self, method, path, query, body, key=None):
        segments = [s for s in path.split("/") if s]
        if path == "/healthz" and method == "GET":
            return 200, {
                "ok": True,
                "elements": self.service.elements_processed,
                "jobs": sorted(self.service.jobs),
                "queue": dict(
                    self.ingestor.stats,
                    queued_events=self.ingestor.queued_events,
                    capacity_events=self.ingestor.capacity_events,
                ),
                "quota": {
                    "max_ingest_rate": self._rate,
                    "rejected_429": self.rejected_429,
                    "rejected_413": self.rejected_413,
                },
                "auth": {
                    "enabled": self.api_keys is not None,
                    "keys": (
                        None if self.api_keys is None else len(self.api_keys)
                    ),
                    "rejected_401": self.rejected_401,
                    "rejected_403": self.rejected_403,
                },
            }
        if path == "/metrics" and method == "GET":
            # Collect under the service lock so bridged samples land on
            # batch boundaries (fences a relaxed facade, like /v1/status).
            text = await self._locked(render_prometheus, self.registry)
            return 200, _Raw(text, _PROMETHEUS_CONTENT_TYPE)
        if segments[:1] != ["v1"]:
            raise _HttpError(404, f"no route {path!r}")
        rest = segments[1:]
        if rest == ["metrics"] and method == "GET":
            return 200, await self._locked(self.registry.as_dict)
        if rest == ["trace"] and method == "GET":
            return 200, await self._trace(dict(query))
        if rest == ["alerts"] and method == "GET":
            if self.alerts is None:
                return 200, {
                    "rules": [], "sinks": {}, "events": [],
                    "dead_letters": [],
                }
            return 200, jsonable(self.alerts.describe())
        if rest == ["fleet"] and method == "GET":
            return 200, jsonable(self.fleet.snapshot())
        if rest == ["fleet", "events"] and method == "GET":
            params = dict(query)
            try:
                limit = int(params.get("limit", 0) or 0) or None
            except ValueError:
                raise _HttpError(400, "malformed limit") from None
            return 200, {"events": jsonable(self.fleet.events(limit))}
        if rest == ["subscribe"] and method == "POST":
            return await self._subscribe(self._json_body(body))
        if rest == ["subscriptions"] and method == "GET":
            return 200, {
                "subscriptions": [
                    sub.describe() for sub in self.subscriptions.all()
                ]
            }
        if len(rest) == 2 and rest[0] == "subscribe" and method == "DELETE":
            if not self.subscriptions.unsubscribe(rest[1]):
                raise _HttpError(404, f"no subscription {rest[1]!r}")
            return 200, {"unsubscribed": rest[1]}
        if len(rest) == 2 and rest[0] == "stream" and method == "GET":
            subscription = self.subscriptions.get(rest[1])
            if subscription is None:
                raise _HttpError(404, f"no subscription {rest[1]!r}")
            return 200, _SSEStream(subscription)
        if rest == ["status"] and method == "GET":
            return 200, jsonable(await self._locked(self.service.status))
        if rest == ["jobs"]:
            if method == "GET":
                return 200, {
                    "jobs": {
                        name: {
                            "scheme": job.scheme.name,
                            "elements": job.elements_processed,
                        }
                        for name, job in self.service.jobs.items()
                    }
                }
            if method == "POST":
                return await self._register(self._json_body(body))
            raise _HttpError(405, f"{method} not allowed on /v1/jobs")
        if len(rest) == 2 and rest[0] == "jobs" and method == "DELETE":
            await self._locked(self.service.unregister, rest[1])
            return 200, {"unregistered": rest[1]}
        if rest == ["ingest"] and method == "POST":
            return await self._ingest(self._json_body(body), key)
        if rest == ["query"] and method == "POST":
            payload = self._json_body(body)
            return await self._query(
                payload.get("job"),
                payload.get("method"),
                payload.get("args") or [],
            )
        if len(rest) == 2 and rest[0] == "query" and method == "GET":
            params = dict(query)
            args = [
                parse_query_literal(value) for key, value in query if key == "arg"
            ]
            return await self._query(rest[1], params.get("method"), args)
        raise _HttpError(404, f"no route {method} {path!r}")

    # -- handlers ----------------------------------------------------------

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            raise _HttpError(400, "expected a JSON body")
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise _HttpError(400, f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    async def _locked(self, fn, *args, **kwargs):
        """Run a service operation under the ingest lock, off-loop."""
        loop = asyncio.get_running_loop()

        def call():
            with self.ingestor.lock:
                return fn(*args, **kwargs)

        return await loop.run_in_executor(None, call)

    async def _register(self, payload):
        name = payload.get("name")
        spec = payload.get("spec")
        if not name or not isinstance(name, str):
            raise _HttpError(400, "register needs a job 'name'")
        if not spec or not isinstance(spec, str):
            raise _HttpError(
                400, "register needs a 'spec' like 'count/randomized:0.01'"
            )
        _, problem, scheme = parse_job_spec(
            f"{name}={spec}", payload.get("eps", self.default_eps)
        )
        await self._locked(
            self.service.register,
            name,
            scheme,
            seed=payload.get("seed"),
            space_budget_words=payload.get("space_budget_words"),
        )
        return 200, {
            "registered": name,
            "problem": problem,
            "scheme": scheme.name,
        }

    async def _ingest(self, payload, key=None):
        site_ids = payload.get("site_ids")
        if not isinstance(site_ids, list) or not site_ids:
            raise _HttpError(400, "ingest needs a non-empty 'site_ids' list")
        items = payload.get("items")
        if items is not None and (
            not isinstance(items, list) or len(items) != len(site_ids)
        ):
            raise _HttpError(400, "'items' must match 'site_ids' in length")
        bucket = self._bucket_for(key)
        if bucket is not None:
            wait = bucket.try_admit(len(site_ids))
            if wait > 0.0:
                self.m_rejections.labels("429").inc()
                scope = "" if key is None else " for this API key"
                raise _HttpError(
                    429,
                    f"ingest rate limit exceeded{scope} "
                    f"({bucket.rate:g} events/s); retry in "
                    f"{wait:.2f}s",
                    headers={"Retry-After": str(max(1, math.ceil(wait)))},
                )
        if self.service.has_space_budgets():
            overages = await self._locked(self.service.space_overages)
            if overages:
                self.m_rejections.labels("413").inc()
                detail = ", ".join(
                    f"{name} (used {info['used']} > budget "
                    f"{info['budget']} words)"
                    for name, info in sorted(overages.items())
                )
                raise _HttpError(
                    413, f"space budget exceeded for job(s): {detail}"
                )
        trace_id = new_trace_id()
        ingested = await self.ingestor.submit(
            site_ids, items, trace_id=trace_id
        )
        tenant = (
            "default"
            if key is None or self.api_keys is None
            else self.api_keys[key]
        )
        self.m_ingested.labels(tenant).inc(ingested)
        return 200, {
            "ingested": ingested,
            "elements": self.service.elements_processed,
            "trace_id": trace_id,
        }

    async def _trace(self, params: dict):
        """``GET /v1/trace``: the stitched cross-process span view.

        Gathers gateway-side spans (rounds, dispatch/fence/merge) and
        hub-side spans (collected from placed hubs over the exec plane,
        then retained), merges them in start order, and applies the
        ``?name=`` / ``?trace_id=`` / ``?limit=`` filters.
        """
        limit = params.get("limit")
        if limit is not None:
            try:
                limit = int(limit)
            except ValueError:
                raise _HttpError(400, "'limit' must be an integer") from None
            if limit < 0:
                raise _HttpError(400, "'limit' must be >= 0")
        spans = await self._locked(self._stitched_spans)
        spans = filter_spans(
            spans,
            name=params.get("name"),
            trace_id=params.get("trace_id"),
            limit=limit,
        )
        return {"spans": jsonable(spans)}

    def _stitched_spans(self) -> list:
        """Merge gateway- and hub-side spans (runs under the lock).

        ``collect_spans`` *drains* hub buffers (fencing relaxed batches
        like any collecting command), so collected spans are retained
        in a gateway-side ring — repeated reads keep seeing them.  On
        an unsharded service the hub recorder *is* ``self.spans`` and
        there is nothing to collect.
        """
        collect = getattr(self.service, "collect_spans", None)
        if collect is not None:
            for span in collect():
                self._hub_spans.append(span)
        merged = list(self.spans.dump()) + list(self._hub_spans)
        merged.sort(key=lambda s: s.get("start") or 0.0)
        return merged

    async def _query(self, job, method, args):
        if not job or not isinstance(job, str):
            raise _HttpError(400, "query needs a 'job' name")
        if not isinstance(args, list):
            raise _HttpError(400, "'args' must be a list")
        result = await self._locked(self.service.query, job, method, *args)
        return 200, {
            "job": job,
            "method": method,
            "args": args,
            "result": jsonable(result),
        }

    # -- standing queries (SSE) --------------------------------------------

    def _validate_spec(self, payload: dict) -> dict:
        kind = payload.get("kind", "query")
        if kind not in ("query", "threshold", "metrics"):
            raise _HttpError(
                400, "subscription 'kind' must be query, threshold or metrics"
            )
        spec = {"kind": kind}
        if kind == "metrics":
            metric = payload.get("metric")
            if not metric or not isinstance(metric, str):
                raise _HttpError(
                    400, "a metrics subscription needs a 'metric' family name"
                )
            spec["metric"] = metric
            return spec
        job = payload.get("job")
        if not job or not isinstance(job, str):
            raise _HttpError(400, "subscription needs a 'job' name")
        if job not in self.service.jobs:
            raise _HttpError(404, f"no job {job!r}")
        args = payload.get("args") or []
        if not isinstance(args, list):
            raise _HttpError(400, "'args' must be a list")
        spec.update({"job": job, "method": payload.get("method"), "args": args})
        if kind == "threshold":
            op = payload.get("op")
            if op not in _THRESHOLD_OPS:
                raise _HttpError(
                    400,
                    f"threshold 'op' must be one of "
                    f"{sorted(_THRESHOLD_OPS)}",
                )
            value = payload.get("value")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise _HttpError(400, "threshold 'value' must be a number")
            spec.update({"op": op, "value": value})
        return spec

    async def _subscribe(self, payload: dict):
        spec = self._validate_spec(payload)
        try:
            sub = self.subscriptions.subscribe(spec)
        except OverflowError as exc:
            raise _HttpError(429, str(exc)) from None
        try:
            # Baseline evaluation: deltas are relative to the answer at
            # subscribe time, so a client never sees a phantom first
            # delta for state that predates it.
            sub.last_value = await self._locked(self._evaluate_spec, spec)
        except BaseException:
            self.subscriptions.unsubscribe(sub.sid)
            raise
        return 200, {
            "subscription": sub.sid,
            "stream": f"/v1/stream/{sub.sid}",
            "value": jsonable(sub.last_value),
        }

    def _evaluate_spec(self, spec: dict):
        """Evaluate one standing query (runs under the service lock)."""
        if spec["kind"] == "metrics":
            return self._metric_total(spec["metric"])
        value = self.service.query(
            spec["job"], spec["method"], *spec["args"]
        )
        if spec["kind"] == "query":
            return jsonable(value)
        crossed = _THRESHOLD_OPS[spec["op"]](float(value), float(spec["value"]))
        return {
            "crossed": crossed,
            "value": float(value),
            "op": spec["op"],
            "threshold": spec["value"],
        }

    def _rule_value(self, spec: dict) -> float:
        """One alert rule's raw value (runs under the service lock).

        ``threshold`` rules evaluate a job query, ``metrics`` rules a
        registry family total, ``fleet`` rules a liveness/capacity
        quantity from the fleet monitor, and ``error_bound`` rules the
        composed accuracy accounting — the facade's ``error_bound``
        when it has one, else the paper's ``epsilon * n`` directly.
        """
        kind = spec.get("kind", "threshold")
        if kind == "metrics":
            return float(self._metric_total(spec["metric"]))
        if kind == "fleet":
            return float(self.fleet.rule_value(spec["metric"]))
        if kind == "error_bound":
            error_bound = getattr(self.service, "error_bound", None)
            if error_bound is not None:
                return float(error_bound(spec["job"])["bound"])
            job = self.service.job(spec["job"])
            epsilon = getattr(job.scheme, "epsilon", None)
            if epsilon is None:
                raise ValueError(
                    f"job {spec['job']!r} scheme has no epsilon"
                )
            return float(epsilon) * job.elements_processed
        return float(
            self.service.query(
                spec["job"], spec.get("method"), *(spec.get("args") or ())
            )
        )

    def _metric_total(self, name: str) -> float:
        """One metric family's total over all children (count for
        histograms), straight from the registry."""
        family = self.registry.as_dict().get(name)
        if family is None:
            raise ValueError(f"no metric family {name!r}")
        total = 0.0
        for sample in family["samples"]:
            value = sample["value"]
            total += value["count"] if isinstance(value, dict) else value
        return total

    @staticmethod
    def _ckey(spec: dict, value):
        """The change key: a delta fires when this differs.

        Threshold subscriptions fire on predicate *flips*, not on every
        underlying value change; everything else compares the answer.
        """
        if spec["kind"] == "threshold" and isinstance(value, dict):
            return value.get("crossed")
        return value

    async def _evaluator(self) -> None:
        """The push plane: re-evaluate standing queries after ingest.

        Woken by the ingestor's ``on_applied`` hook (never by a timer),
        it evaluates *all* subscriptions in one trip under the service
        lock — one coalescing round costs one lock acquisition however
        many standing queries exist — then publishes a delta to each
        subscription whose change key moved.
        """
        while True:
            await self._dirty.wait()
            self._dirty.clear()
            subs = self.subscriptions.all()
            rules = (
                list(self.alerts.rules.values())
                if self.alerts is not None
                else []
            )
            if not subs and not rules:
                continue

            def eval_all(subs=subs, rules=rules):
                results = []
                rule_values = {}
                with self.ingestor.lock:
                    for sub in subs:
                        try:
                            results.append((sub, self._evaluate_spec(sub.spec), None))
                        except Exception as exc:
                            results.append((sub, None, exc))
                    for rule in rules:
                        try:
                            rule_values[rule.name] = self._rule_value(
                                rule.spec
                            )
                        except Exception:
                            rule_values[rule.name] = None
                return results, rule_values

            loop = asyncio.get_running_loop()
            results, rule_values = await loop.run_in_executor(None, eval_all)
            if rules:
                self.alerts.step(rule_values, trace_id=self._last_trace_id)
                # A quiet gateway must still complete pending -> firing:
                # schedule a re-evaluation for the earliest `for` expiry
                # (the step itself needs no new ingest, only time).
                deadline = self.alerts.pending_deadline()
                if deadline is not None:
                    delay = max(0.0, deadline - time.monotonic()) + 0.02
                    loop.call_later(delay, self._dirty.set)
            elements = self.service.elements_processed
            for sub, value, error in results:
                if self.subscriptions.get(sub.sid) is not sub:
                    continue  # unsubscribed while evaluating
                if error is not None:
                    value = {"error": f"{type(error).__name__}: {error}"}
                previous = sub.last_value
                first = sub.never_evaluated
                if not first and self._ckey(sub.spec, value) == self._ckey(
                    sub.spec, previous
                ):
                    continue
                sub.last_value = value
                event = (
                    "error"
                    if error is not None
                    else (
                        "threshold"
                        if sub.spec["kind"] == "threshold"
                        else "delta"
                    )
                )
                sub.publish(
                    {
                        "elements": elements,
                        "value": jsonable(value),
                        "previous": None if first else jsonable(previous),
                    },
                    event=event,
                )

    async def _stream(self, reader, writer, sub, headers: dict) -> None:
        """Serve one SSE connection until either side disconnects.

        Honors ``Last-Event-ID`` (replayed from the subscription's ring
        buffer), then forwards live events as they are published, with
        keep-alive comments on idle streams so proxies do not reap the
        connection.
        """
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        )
        queue = sub.attach_listener()
        self._stream_writers.add(writer)
        eof_task = asyncio.ensure_future(reader.read(1))
        get_task = None
        try:
            writer.write(head.encode("latin-1"))
            writer.write(
                render_sse_event(
                    json.dumps({"subscription": sub.sid}),
                    event="hello",
                    retry=_SSE_RETRY_MS,
                ).encode()
            )
            last_id = headers.get("last-event-id")
            if last_id is not None:
                try:
                    last = int(last_id)
                except ValueError:
                    last = None
                if last is not None:
                    for event_id, event, data in sub.replay_after(last):
                        writer.write(
                            render_sse_event(
                                data, event=event, id=event_id
                            ).encode()
                        )
            await writer.drain()
            while True:
                if get_task is None:
                    get_task = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    {get_task, eof_task},
                    timeout=_SSE_KEEPALIVE,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if eof_task in done:
                    break  # client closed (or half-closed) its side
                if get_task in done:
                    event_id, event, data = get_task.result()
                    get_task = None
                    writer.write(
                        render_sse_event(
                            data, event=event, id=event_id
                        ).encode()
                    )
                else:
                    writer.write(b": keep-alive\n\n")
                await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._stream_writers.discard(writer)
            sub.detach_listener(queue)
            for task in (eof_task, get_task):
                if task is not None and not task.done():
                    task.cancel()


class GatewayThread:
    """Run a gateway (and its loop) on a background thread.

    For benchmarks, examples and tests that need a live HTTP endpoint
    inside one process::

        with GatewayThread(service) as gw:
            urllib.request.urlopen(gw.url + "/healthz")
    """

    def __init__(self, service: TrackingService, **gateway_kwargs):
        self.service = service
        self.gateway_kwargs = gateway_kwargs
        self.gateway: Optional[Gateway] = None
        self._loop: Optional[LoopThread] = None

    def __enter__(self) -> "GatewayThread":
        self._loop = LoopThread("repro-gateway")
        self.gateway = self._loop.call(
            Gateway(self.service, **self.gateway_kwargs).start(), timeout=60
        )
        return self

    @property
    def url(self) -> str:
        return self.gateway.url

    def __exit__(self, *exc) -> None:
        self._loop.call(self.gateway.close(), timeout=60)
        self._loop.close()

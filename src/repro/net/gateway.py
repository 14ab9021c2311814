"""HTTP/JSON query gateway over a multi-tenant tracking service.

A small asyncio HTTP/1.1 server (stdlib only — hand-rolled request
parsing over ``asyncio.start_server``) exposing the
:class:`~repro.shard.ShardedTrackingService` surface — one shard hub or
many, so every topology has one status, fleet and metrics shape.  The
routes are the rows of :attr:`Gateway._ROUTES` (each says what it
serves): the one table that dispatch, the 404 / 405 answers and the
``route`` label of the request metrics are all read from.

Ingestion goes through the :class:`~repro.service.AsyncBatchIngestor`:
requests are coalesced into engine batches and admission is bounded —
when the queue is full the handler *waits* (the client sees latency,
never a drop), and a 200 response means the events have been applied
(post-WAL when the service is durable).

Queries and mutations take the ingestor's service lock on an executor
thread, so readers always see a batch boundary, and the event loop is
never blocked by protocol work.

**Observability.**  Each gateway owns a
:class:`~repro.obs.MetricsRegistry` (pass ``registry=`` to share one)
and declares only its own ``repro_gateway_*`` families on it: request
counters/latency histograms per route template, rejection counters,
queue gauges.  Every other layer — service, shard facade, exec
backends, cluster transports, fleet monitor, alert manager — declares
and bridges its own through ``register_metrics(registry)``
(``docs/observability.md`` names each family's owner).  ``/metrics``
and ``/healthz`` read the same registry, so the two surfaces cannot
disagree.  Scrapes run under the service lock; on a relaxed facade
they fence outstanding batches, exactly like ``/v1/status``.

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
from typing import TYPE_CHECKING, Optional
from urllib.parse import parse_qsl, urlsplit

import numpy as _np

from ..obs import (
    AlertManager,
    FleetMonitor,
    MetricsRegistry,
    SpanRecorder,
    Subscription,
    SubscriptionHub,
    filter_spans,
    new_trace_id,
    register_process_metrics,
    render_prometheus,
    render_sse_event,
)
from ..obs.alerts import check_comparison, holds
from ..obs.metrics import DEFAULT_BUCKETS, LATENCY_BUCKETS, SIZE_BUCKETS
from ..obs.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from ..service import ServiceError
from ..service.async_ingest import AsyncBatchIngestor
from ..service.errors import DuplicateJobError, UnknownJobError
from ..service.jobspec import parse_job_spec, parse_query_literal
from .transport import LoopThread

if TYPE_CHECKING:  # the facade imports the exec plane, which imports net
    from ..shard import ShardedTrackingService

__all__ = ["Gateway", "GatewayThread", "TokenBucket", "jsonable"]

#: seconds between SSE keep-alive comments on an idle stream
_SSE_KEEPALIVE = 15.0

#: client reconnect hint (the SSE ``retry:`` field), milliseconds
_SSE_RETRY_MS = 3000

#: scrape-side cache of the service's ``metrics_sample`` (a fan-out to
#: the shard hubs); scrapes within the TTL reuse the last sample
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


def jsonable(value):
    """Make a query result JSON-renderable without losing structure.

    Tuples, sets and typed columns (numpy arrays, e.g. a
    ``rank_table()``'s values and ranks) become lists; dict keys that
    are not strings are stringified via ``json``-style rendering (so a
    tuple key shows as ``"[tenant, item]"`` rather than crashing the
    encoder).
    """
    if isinstance(value, _np.ndarray):
        return value.tolist()
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


class _Request:
    """One parsed request; ``key`` (the authenticated API key) and
    ``param`` (the route template's ``{parameter}``) are filled in on
    the way to the handler."""

    __slots__ = ("method", "path", "query", "headers", "body", "key", "param")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        #: a pair list: repeatable keys (``arg``) must survive
        self.query = query
        self.headers = headers
        self.body = body
        self.key = None
        self.param = None


def _route_table(*routes) -> dict:
    """``{path: (template, {method: handler})}`` from ``(method,
    template, handler)`` rows; a template ending in a ``{parameter}`` is
    keyed by the 1-tuple of the path before it (no request path is a
    tuple, so a literal lookup can never hit one)."""
    table: dict = {}
    for method, template, handler in routes:
        head, _, last = template.rpartition("/")
        key = (head,) if last.startswith("{") else template
        table.setdefault(key, (template, {}))[1][method] = handler
    return table


class Gateway:
    """The asyncio HTTP server; owns an ingest queue, not the service.

    Parameters
    ----------
    service:
        The :class:`~repro.shard.ShardedTrackingService` to expose
        (caller keeps ownership — and responsibility for ``close()``).
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
        shard hub).  The monitor behind it feeds ``GET /v1/fleet``, the
        ``repro_fleet_*`` families, and ``fleet``-kind alert rules.
    """

    def __init__(
        self,
        service: ShardedTrackingService,
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
        #: ingest token buckets by API key; ``None`` keys the gateway-wide
        #: one charged without auth (built now, so a bad rate or burst
        #: fails the launch; per-key ones on first use)
        self._buckets: dict = {}
        if max_ingest_rate is not None:
            self._buckets[None] = TokenBucket(max_ingest_rate, self._burst)
        self._server: Optional[asyncio.base_events.Server] = None
        #: the facade's dispatch-plane span buffer.  The ingestor
        #: records its per-round "round" spans here too, so gateway and
        #: facade spans share one buffer (hub spans are collected).
        self.spans: SpanRecorder = service.spans
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
        """Heartbeat the service's poll targets (one per shard hub), each
        poll *under the ingest lock*.

        Liveness transitions wake the evaluator (via
        ``call_soon_threadsafe``) only when ``fleet``-kind alert rules
        exist: their values change with time, not with ingest, so the
        ingest-driven wakeup alone would never fire a hub-down alert on
        a quiet gateway.
        """
        fleet_rules = self.alerts is not None and any(
            rule.spec.get("kind") == "fleet"
            for rule in self.alerts.rules.values()
        )
        return FleetMonitor(
            self.service.fleet_targets(self.ingestor.lock),
            interval=fleet_interval,
            spans=self.spans,
            on_round=self._on_fleet_round if fleet_rules else None,
        )

    def _on_fleet_round(self) -> None:
        """Fleet-poll callback (monitor thread): nudge the evaluator."""
        loop, dirty = self._loop, self._dirty
        if loop is None or dirty is None:
            return
        try:
            loop.call_soon_threadsafe(dirty.set)
        except RuntimeError:
            pass  # loop already closed

    # -- metrics wiring ----------------------------------------------------

    def _init_metrics(self) -> None:
        """Declare the gateway's own families; every other layer
        declares and bridges its own (``register_metrics``).

        Hot paths own plain counters or standalone instruments; the
        registry reaches them through ``set_function`` gauges,
        ``attach``-ed children, and scrape-time collectors — nothing
        here adds work to the per-event ingest path.
        """
        r = self.registry
        register_process_metrics(r)
        self.fleet.register_metrics(r)
        self.service.register_metrics(r, self._service_sample)
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
        r.register_collector(self._collect_queue_stats)

    def _collect_queue_stats(self) -> None:
        for stat, value in self.ingestor.stats.items():
            # mirror externally owned monotonic totals: assignment, not
            # inc, so the bridge is idempotent across scrapes
            self.m_queue_stats.labels(stat).value = float(value)

    def _service_sample(self) -> dict:
        """The service's ``metrics_sample`` (a fan-out to the shard
        hubs), shared by scrapes within ``_SAMPLE_TTL``."""
        now = time.monotonic()
        if (
            self._sample_cache is None
            or now - self._sample_time >= _SAMPLE_TTL
        ):
            self._sample_cache = self.service.metrics_sample()
            self._sample_time = now
        return self._sample_cache

    def _rejected(self, code: str) -> int:
        """Requests refused with ``code`` so far (/healthz reads the
        registry, so it cannot disagree with /metrics)."""
        return int(self.m_rejections.labels(code).value)

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
                method, headers = request.method, request.headers
                extra_headers = None
                route, methods, request.param = self._resolve(request.path)
                inflight = self.m_inflight.labels(route)
                inflight.inc()
                started = time.perf_counter()
                try:
                    try:
                        request.key = self._authenticate(request.path, headers)
                        status, payload = await self._dispatch(
                            route, methods, request
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
                if isinstance(payload, Subscription):
                    # Hijack: the connection becomes a one-way event
                    # stream and closes when either side gives up.
                    await self._stream(reader, writer, payload, headers)
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
        return _Request(
            method.upper(), split.path, parse_qsl(split.query), headers, body
        )

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

        Without auth ``key`` is ``None`` and there is one gateway-wide
        bucket; with auth each key gets its own, so one tenant's burst
        cannot starve another's.
        """
        if self._rate is None:
            return None
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = TokenBucket(self._rate, self._burst)
        return bucket

    # -- routing -----------------------------------------------------------

    def _resolve(self, path: str):
        """``(route template, {method: handler}, parameter)`` of a path.

        The template is what request metrics are labelled by
        (``/v1/query/{job}``, not the literal path; ``other`` for a path
        no template matches), so a client cycling job names or probing
        random URLs cannot blow up the label cardinality.  Under ``/v1``
        doubled and trailing slashes are forgiven, and a path one
        segment longer than a ``{parameter}`` template binds it.
        """
        entry = self._ROUTES.get(path)
        param = None
        if entry is None:
            segments = [s for s in path.split("/") if s]
            if segments[:1] == ["v1"]:
                entry = self._ROUTES.get("/" + "/".join(segments))
                if entry is None:
                    param = segments.pop()
                    entry = self._ROUTES.get(("/" + "/".join(segments),))
        if entry is None:
            return "other", {}, None
        return entry[0], entry[1], param

    async def _dispatch(self, route: str, methods: dict, request: _Request):
        handler = methods.get(request.method)
        if handler is not None:
            return await handler(self, request)
        # 405 only where the resource answers several methods — the
        # surface clients already see; anything else is "no such route"
        if len(methods) > 1:
            raise _HttpError(405, f"{request.method} not allowed on {route}")
        if [s for s in request.path.split("/") if s][:1] == ["v1"]:
            raise _HttpError(
                404, f"no route {request.method} {request.path!r}"
            )
        raise _HttpError(404, f"no route {request.path!r}")

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

    async def _get_healthz(self, request):
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
                "rejected_429": self._rejected("429"),
                "rejected_413": self._rejected("413"),
            },
            "auth": {
                "enabled": self.api_keys is not None,
                "keys": (
                    None if self.api_keys is None else len(self.api_keys)
                ),
                "rejected_401": self._rejected("401"),
                "rejected_403": self._rejected("403"),
            },
        }

    async def _get_metrics(self, request):
        # Collect under the service lock so bridged samples land on
        # batch boundaries (fences a relaxed facade, like /v1/status).
        text = await self._locked(render_prometheus, self.registry)
        return 200, _Raw(text, _PROMETHEUS_CONTENT_TYPE)

    async def _get_metrics_json(self, request):
        return 200, await self._locked(self.registry.as_dict)

    async def _get_alerts(self, request):
        if self.alerts is None:
            return 200, {
                "rules": [], "sinks": {}, "events": [], "dead_letters": [],
            }
        return 200, jsonable(self.alerts.describe())

    async def _get_fleet(self, request):
        return 200, jsonable(self.fleet.snapshot())

    async def _get_fleet_events(self, request):
        try:
            limit = int(dict(request.query).get("limit", 0) or 0) or None
        except ValueError:
            raise _HttpError(400, "malformed limit") from None
        return 200, {"events": jsonable(self.fleet.events(limit))}

    async def _get_status(self, request):
        return 200, jsonable(await self._locked(self.service.status))

    async def _get_jobs(self, request):
        return 200, {
            "jobs": {
                name: {
                    "scheme": job.scheme.name,
                    "elements": job.elements_processed,
                }
                for name, job in self.service.jobs.items()
            }
        }

    async def _delete_job(self, request):
        await self._locked(self.service.unregister, request.param)
        return 200, {"unregistered": request.param}

    async def _post_job(self, request):
        payload = self._json_body(request.body)
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

    async def _post_ingest(self, request):
        payload, key = self._json_body(request.body), request.key
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

    async def _get_trace(self, request):
        """``GET /v1/trace``: the stitched cross-process span view.

        Gathers gateway-side spans (rounds, dispatch/fence/merge) and
        hub-side spans (collected from placed hubs over the exec plane,
        then retained), merges them in start order, and applies the
        ``?name=`` / ``?trace_id=`` / ``?limit=`` filters.
        """
        params = dict(request.query)
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
        return 200, {"spans": jsonable(spans)}

    def _stitched_spans(self) -> list:
        """Merge gateway- and hub-side spans (runs under the lock).

        ``collect_spans`` *drains* hub buffers (fencing relaxed batches
        like any collecting command), so collected spans are retained
        in a gateway-side ring — repeated reads keep seeing them.
        """
        self._hub_spans.extend(self.service.collect_spans())
        merged = list(self.spans.dump()) + list(self._hub_spans)
        merged.sort(key=lambda s: s.get("start") or 0.0)
        return merged

    async def _post_query(self, request):
        payload = self._json_body(request.body)
        return await self._query(
            payload.get("job"), payload.get("method"), payload.get("args") or []
        )

    async def _get_query(self, request):
        args = [
            parse_query_literal(value)
            for key, value in request.query
            if key == "arg"
        ]
        return await self._query(
            request.param, dict(request.query).get("method"), args
        )

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
            check_comparison(payload, "threshold")  # ValueError -> 400
            spec.update({"op": payload["op"], "value": payload["value"]})
        return spec

    async def _post_subscribe(self, request):
        spec = self._validate_spec(self._json_body(request.body))
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

    async def _get_subscriptions(self, request):
        return 200, {
            "subscriptions": [
                sub.describe() for sub in self.subscriptions.all()
            ]
        }

    async def _delete_subscription(self, request):
        if not self.subscriptions.unsubscribe(request.param):
            raise _HttpError(404, f"no subscription {request.param!r}")
        return 200, {"unsubscribed": request.param}

    async def _get_stream(self, request):
        subscription = self.subscriptions.get(request.param)
        if subscription is None:
            raise _HttpError(404, f"no subscription {request.param!r}")
        return 200, subscription  # _handle streams it

    def _raw_value(self, spec: dict):
        """What a standing query or an alert rule is about, before any
        comparison (runs under the service lock).

        ``metrics`` reads a registry family total, ``fleet`` a
        liveness/capacity quantity from the fleet monitor,
        ``error_bound`` the service's additive error accounting (the
        paper's ``epsilon * n``, composed across shards), and
        ``threshold`` / ``query`` a job query.
        """
        kind = spec.get("kind", "threshold")
        if kind == "metrics":
            return self._metric_total(spec["metric"])
        if kind == "fleet":
            return self.fleet.rule_value(spec["metric"])
        if kind == "error_bound":
            return self.service.error_bound(spec["job"])["bound"]
        return self.service.query(
            spec["job"], spec.get("method"), *(spec.get("args") or ())
        )

    def _evaluate_spec(self, spec: dict):
        """Evaluate one standing query (runs under the service lock)."""
        value = self._raw_value(spec)
        if spec["kind"] == "query":
            return jsonable(value)
        if spec["kind"] == "threshold":
            return {
                "crossed": holds(spec, value),
                "value": float(value),
                "op": spec["op"],
                "threshold": spec["value"],
            }
        return value

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
                for sub in subs:
                    try:
                        results.append((sub, self._evaluate_spec(sub.spec), None))
                    except Exception as exc:
                        results.append((sub, None, exc))
                for rule in rules:
                    try:
                        rule_values[rule.name] = float(
                            self._raw_value(rule.spec)
                        )
                    except Exception:
                        rule_values[rule.name] = None
                return results, rule_values

            results, rule_values = await self._locked(eval_all)
            if rules:
                self.alerts.step(rule_values, trace_id=self._last_trace_id)
                # A quiet gateway must still complete pending -> firing:
                # schedule a re-evaluation for the earliest `for` expiry
                # (the step itself needs no new ingest, only time).
                deadline = self.alerts.pending_deadline()
                if deadline is not None:
                    delay = max(0.0, deadline - time.monotonic()) + 0.02
                    asyncio.get_running_loop().call_later(
                        delay, self._dirty.set
                    )
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

        def emit(data, **fields) -> None:
            writer.write(render_sse_event(data, **fields).encode())

        queue = sub.attach_listener()
        self._stream_writers.add(writer)
        eof_task = asyncio.ensure_future(reader.read(1))
        get_task = None
        try:
            writer.write(head.encode("latin-1"))
            emit(
                json.dumps({"subscription": sub.sid}),
                event="hello",
                retry=_SSE_RETRY_MS,
            )
            last_id = headers.get("last-event-id")
            if last_id is not None:
                try:
                    last = int(last_id)
                except ValueError:
                    last = None
                if last is not None:
                    for event_id, event, data in sub.replay_after(last):
                        emit(data, event=event, id=event_id)
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
                    emit(data, event=event, id=event_id)
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


    #: The route set, written down once: dispatch, the 404 / 405 answers
    #: and the ``route`` metric label are read from here.  ``/healthz``
    #: and ``/metrics`` stay open when API keys are on.
    _ROUTES = _route_table(
        # liveness + ingest-queue gauges
        ("GET", "/healthz", _get_healthz),
        # the registry: Prometheus text exposition, and the same as JSON
        ("GET", "/metrics", _get_metrics),
        ("GET", "/v1/metrics", _get_metrics_json),
        # cross-process trace spans (?trace_id= / ?name= / ?limit=)
        ("GET", "/v1/trace", _get_trace),
        # alert rules, states and recent events
        ("GET", "/v1/alerts", _get_alerts),
        # hub liveness + capacity, and its transitions (?limit=)
        ("GET", "/v1/fleet", _get_fleet),
        ("GET", "/v1/fleet/events", _get_fleet_events),
        # full service status (pods-style)
        ("GET", "/v1/status", _get_status),
        # the registry: list, register {"name", "spec", ...}, unregister
        ("GET", "/v1/jobs", _get_jobs),
        ("POST", "/v1/jobs", _post_job),
        ("DELETE", "/v1/jobs/{name}", _delete_job),
        # {"site_ids": [...], "items": [...]}
        ("POST", "/v1/ingest", _post_ingest),
        # {"job", "method", "args"}, or ?method=...&arg=... (repeatable)
        ("POST", "/v1/query", _post_query),
        ("GET", "/v1/query/{job}", _get_query),
        # standing queries: register, list, drop, and the SSE delta stream
        ("POST", "/v1/subscribe", _post_subscribe),
        ("GET", "/v1/subscriptions", _get_subscriptions),
        ("DELETE", "/v1/subscribe/{id}", _delete_subscription),
        ("GET", "/v1/stream/{id}", _get_stream),
    )


class GatewayThread:
    """Run a gateway (and its loop) on a background thread.

    For benchmarks, examples and tests that need a live HTTP endpoint
    inside one process::

        with GatewayThread(service) as gw:
            urllib.request.urlopen(gw.url + "/healthz")
    """

    def __init__(self, service: ShardedTrackingService, **gateway_kwargs):
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

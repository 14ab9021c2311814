"""Fleet telemetry: hub liveness/capacity aggregation for the gateway.

The exec plane gives the gateway a command pipe to every shard hub;
this module supervises those pipes.  A :class:`FleetMonitor` polls each
hub's ``hub_stats`` command on an interval, steps a per-hub liveness
state machine, and keeps the capacity picture (space used vs. budget,
overcommit ratio — the MAAS pods-API resource surface) that
``GET /v1/fleet`` and the ``repro_fleet_*`` Prometheus families serve.
It is the observe-only half of the ROADMAP's self-healing control
plane: the next layer up reads this surface to *place* and *heal*;
nothing here mutates the fleet.

Liveness state machine (per hub)::

                 ok, fast                    ok x recovery_polls
    unknown ───────────────▶ up ◀─────────────────────────────┐
       │                      │                               │
       │ fail x down_failures │ slow reply or failed poll     │
       │                      ▼                               │
       │                  degraded ──────────────────────▶ (up)
       │                      │ fail x down_failures
       ▼                      ▼
      down ◀──────────────────┘
        │  ok x recovery_polls: "recovered" (straight to up)
        └─ further failures: silent (one "down" event per episode)

Hysteresis is deliberate on both edges: a hub must *fail*
``down_failures`` consecutive polls to be declared down, and must
*answer* ``recovery_polls`` consecutive polls (fast) to be declared up
again — a flapping hub emits one ``down`` and one ``recovered`` per
episode, never a stream.  A hub that answers but slower than
``stale_after`` is stale: ``degraded``, not ``down``.

The obs package stays dependency-free, so the monitor never imports
the exec plane.  Callers hand it :class:`FleetTarget`\\ s — a name, the
dispatch mode the hub is driven in, and a zero-argument ``poll``
callable (the sharded facade wires each one to
``backend.dispatch_run("hub_stats")`` under the ingest lock, so polls
never interleave with dispatch on the FIFO command pipes, and reads
the fleet record out of the hub's self-report).

Locking: the monitor's own lock guards state and is *never* held while
a poll callable runs — poll callables take the ingest lock, and the
registry collector (which runs under the ingest lock at scrape time)
takes the monitor lock, so holding both in the opposite order would
deadlock the scrape path.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Optional, Sequence

from collections import deque

from .metrics import LATENCY_BUCKETS, Histogram
from .tracing import SpanRecorder, new_trace_id, trace_scope

__all__ = [
    "FleetMonitor", "FleetTarget", "FLEET_RULE_METRICS", "space_capacity",
]

#: quantities a ``fleet``-kind alert rule may reference
FLEET_RULE_METRICS = (
    "hubs_up",
    "hubs_degraded",
    "hubs_down",
    "hubs_unknown",
    "capacity_ratio",
    "heartbeat_age_seconds",
)

#: liveness states, ordered by health for the numeric state gauge
STATES = ("down", "degraded", "up", "unknown")
_STATE_CODE = {"down": 0.0, "degraded": 1.0, "up": 2.0, "unknown": -1.0}

_EVENTS_RING = 256


def space_capacity(used_words: Iterable[int],
                   budget_words: Iterable[Optional[int]]) -> dict:
    """Space used vs. budget in the overcommit style: the totals of the
    given words, budgets that are None left out; ``ratio`` is
    used/budget, None while no budget is set."""
    used = sum(used_words)
    budgets = [budget for budget in budget_words if budget is not None]
    budget = sum(budgets)
    return {
        "used_words": used,
        "budget_words": budget if budgets else None,
        "ratio": used / budget if budget else None,
    }


class FleetTarget:
    """One pollable hub: a name, an address label, and a poll callable.

    ``poll()`` must return the hub's fleet record — ``heartbeat``,
    ``elements``, ``rounds``, ``site_calls``, per-job ``jobs``,
    ``capacity`` (see :func:`space_capacity`) and ``process`` — or
    raise on a dead / unreachable hub.  ``pending`` optionally reports
    the hub's uncollected-command depth (the facade wires it to the
    backend's ``pending`` property); ``dispatch_mode`` is how the hub's
    driver posts to it (``lockstep``/``relaxed``/``windowed``).
    """

    __slots__ = ("name", "address", "poll", "pending", "dispatch_mode")

    def __init__(
        self,
        name: str,
        poll: Callable[[], dict],
        address: Optional[str] = None,
        pending: Optional[Callable[[], int]] = None,
        dispatch_mode: str = "lockstep",
    ) -> None:
        self.name = str(name)
        self.address = address
        self.poll = poll
        self.pending = pending
        self.dispatch_mode = dispatch_mode


class _HubState:
    """Mutable per-hub bookkeeping the monitor lock guards."""

    __slots__ = (
        "target", "state", "state_since", "heartbeat", "last_ok",
        "last_seen_wall", "consecutive_failures", "consecutive_ok",
        "polls", "failures", "rtt", "last_rtt_s", "stats", "last_error",
        "last_trace_id",
    )

    def __init__(self, target: FleetTarget) -> None:
        self.target = target
        self.state = "unknown"
        self.state_since = None
        self.heartbeat = 0
        self.last_ok = None       # monotonic clock of last successful poll
        self.last_seen_wall = None
        self.consecutive_failures = 0
        self.consecutive_ok = 0
        self.polls = 0
        self.failures = 0
        self.rtt = Histogram(LATENCY_BUCKETS)
        self.last_rtt_s = None
        self.stats = None         # last fleet record polled
        self.last_error = None
        self.last_trace_id = None


class FleetMonitor:
    """Background poller stepping every hub's liveness state machine."""

    def __init__(
        self,
        targets: Iterable[FleetTarget],
        interval: float = 2.0,
        stale_after: Optional[float] = None,
        down_failures: int = 2,
        recovery_polls: int = 2,
        clock: Callable[[], float] = time.monotonic,
        spans: Optional[SpanRecorder] = None,
        on_round: Optional[Callable[[], None]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if down_failures < 1 or recovery_polls < 1:
            raise ValueError("hysteresis thresholds must be >= 1")
        self.interval = float(interval)
        #: a reply slower than this is a *stale* heartbeat (degraded)
        self.stale_after = (
            float(stale_after) if stale_after is not None else self.interval
        )
        self.down_failures = int(down_failures)
        self.recovery_polls = int(recovery_polls)
        self._clock = clock
        self.spans = spans if spans is not None else SpanRecorder()
        self._on_round = on_round
        self._hubs = [_HubState(t) for t in targets]
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=_EVENTS_RING)
        self._event_counts: dict = {}
        self._rounds = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the daemon poll loop (idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="fleet-monitor", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the poll loop; joins up to ``timeout`` seconds."""
        self._stop.set()
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_round()
            except Exception:  # pragma: no cover - belt and braces
                pass
            self._stop.wait(self.interval)

    # -- polling + state machine -------------------------------------------

    def poll_round(self) -> None:
        """Poll every hub once and step each state machine.

        Synchronous and reentrant-safe; the background thread calls it
        on the interval, tests call it directly with a fake clock.
        """
        for hub in self._hubs:
            self._poll_hub(hub)
        with self._lock:
            self._rounds += 1
        if self._on_round is not None:
            try:
                self._on_round()
            except Exception:  # pragma: no cover
                pass

    def _poll_hub(self, hub: _HubState) -> None:
        trace_id = new_trace_id()
        started = self._clock()
        result = None
        error = None
        try:
            with trace_scope({"trace_id": trace_id}):
                with self.spans.span("fleet_poll", hub=hub.target.name):
                    result = hub.target.poll()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        rtt = self._clock() - started
        now = self._clock()
        with self._lock:
            hub.polls += 1
            hub.last_trace_id = trace_id
            if error is None:
                hub.rtt.observe(rtt)
                hub.last_rtt_s = rtt
                hub.last_ok = now
                hub.last_seen_wall = time.time()
                hub.stats = result if isinstance(result, dict) else None
                if hub.stats is not None:
                    hub.heartbeat = int(hub.stats.get("heartbeat", 0))
                hub.consecutive_failures = 0
                if rtt <= self.stale_after:
                    hub.consecutive_ok += 1
                    self._step(hub, "ok", trace_id, None)
                else:
                    hub.consecutive_ok = 0
                    self._step(
                        hub, "stale", trace_id,
                        f"heartbeat rtt {rtt:.3f}s > "
                        f"stale_after {self.stale_after:g}s",
                    )
            else:
                hub.failures += 1
                hub.consecutive_failures += 1
                hub.consecutive_ok = 0
                hub.last_error = error
                self._step(hub, "fail", trace_id, error)

    def _step(self, hub: _HubState, signal: str, trace_id, detail) -> None:
        """One transition of the up/degraded/down machine (lock held)."""
        state = hub.state
        if signal == "fail":
            if hub.consecutive_failures >= self.down_failures:
                if state != "down":
                    self._transition(hub, "down", trace_id, detail)
            elif state in ("up", "unknown"):
                self._transition(hub, "degraded", trace_id, detail)
            return
        if state == "unknown":
            # first successful heartbeat: the hub joined the fleet
            self._transition(
                hub,
                "up" if signal == "ok" else "degraded",
                trace_id,
                detail,
                event="joined",
            )
            return
        if signal == "stale":
            if state == "up":
                self._transition(hub, "degraded", trace_id, detail)
            return
        # signal == "ok"
        if state in ("degraded", "down"):
            if hub.consecutive_ok >= self.recovery_polls:
                self._transition(
                    hub, "up", trace_id, detail, event="recovered"
                )

    def _transition(
        self, hub: _HubState, state: str, trace_id, detail, event=None
    ) -> None:
        previous = hub.state
        hub.state = state
        hub.state_since = self._clock()
        record = {
            "at": time.time(),
            "hub": hub.target.name,
            "event": event or state,
            "from": previous,
            "state": state,
            "heartbeat": hub.heartbeat,
            "trace_id": trace_id,
            "detail": detail,
        }
        self._events.append(record)
        name = record["event"]
        self._event_counts[name] = self._event_counts.get(name, 0) + 1

    # -- read surfaces -----------------------------------------------------

    def snapshot(self) -> dict:
        """The ``GET /v1/fleet`` view: per-hub state + fleet capacity."""
        now = self._clock()
        with self._lock:
            hubs = [self._hub_view(hub, now) for hub in self._hubs]
            rounds = self._rounds
            events_total = sum(self._event_counts.values())
        states = {name: 0 for name in STATES}
        for view in hubs:
            states[view["state"]] += 1
        hub_capacities = [view["capacity"] or {} for view in hubs]
        return {
            "interval_s": self.interval,
            "stale_after_s": self.stale_after,
            "down_failures": self.down_failures,
            "recovery_polls": self.recovery_polls,
            "rounds": rounds,
            "hubs": hubs,
            "states": states,
            "capacity": space_capacity(
                [c.get("used_words") or 0 for c in hub_capacities],
                [c.get("budget_words") for c in hub_capacities],
            ),
            "events_total": events_total,
        }

    def _hub_view(self, hub: _HubState, now: float) -> dict:
        stats = hub.stats or {}
        process = stats.get("process") or {}
        pending = None
        if hub.target.pending is not None:
            try:
                pending = hub.target.pending()
            except Exception:
                pending = None
        return {
            "hub": hub.target.name,
            "address": hub.target.address,
            "state": hub.state,
            "state_age_s": (
                now - hub.state_since if hub.state_since is not None else None
            ),
            "heartbeat": hub.heartbeat,
            "last_seen_s": (
                now - hub.last_ok if hub.last_ok is not None else None
            ),
            "rtt_ms": {
                "last": (
                    hub.last_rtt_s * 1e3
                    if hub.last_rtt_s is not None else None
                ),
                "mean": (
                    hub.rtt.sum / hub.rtt.count * 1e3
                    if hub.rtt.count else None
                ),
                "count": hub.rtt.count,
            },
            "polls": hub.polls,
            "failures": hub.failures,
            "pending": pending,
            "dispatch_mode": hub.target.dispatch_mode,
            "elements": stats.get("elements"),
            "rounds": stats.get("rounds"),
            "site_calls": stats.get("site_calls"),
            "jobs": stats.get("jobs"),
            "capacity": stats.get("capacity"),
            "process": {
                "rss_bytes": process.get("rss_bytes"),
                "open_fds": process.get("open_fds"),
                "uptime_s": process.get("uptime_s"),
                "pid": process.get("pid"),
            } if process else None,
            "error": hub.last_error,
        }

    def events(self, limit: Optional[int] = None) -> list:
        """Newest-last fleet events (joined/degraded/down/recovered)."""
        with self._lock:
            records = list(self._events)
        if limit is not None:
            records = records[-limit:] if limit > 0 else []
        return [dict(r) for r in records]

    def rule_value(self, metric: str) -> float:
        """The raw value a ``fleet``-kind alert rule compares against."""
        if metric not in FLEET_RULE_METRICS:
            raise ValueError(
                f"unknown fleet metric {metric!r}; "
                f"expected one of {', '.join(FLEET_RULE_METRICS)}"
            )
        now = self._clock()
        with self._lock:
            if metric.startswith("hubs_"):
                state = metric[len("hubs_"):]
                return float(
                    sum(1 for h in self._hubs if h.state == state)
                )
            if metric == "capacity_ratio":
                best = 0.0
                for hub in self._hubs:
                    capacity = (hub.stats or {}).get("capacity") or {}
                    ratio = capacity.get("ratio")
                    if ratio is not None:
                        best = max(best, float(ratio))
                return best
            # heartbeat_age_seconds: the oldest hub's silence; a hub
            # never heard from counts its age since monitoring began
            worst = 0.0
            for hub in self._hubs:
                if hub.last_ok is not None:
                    worst = max(worst, now - hub.last_ok)
                elif hub.polls:
                    worst = max(worst, hub.polls * self.interval)
            return worst

    # -- registry bridge ---------------------------------------------------

    def register_metrics(self, registry) -> None:
        """Declare the ``repro_fleet_*`` families; values land at scrape.

        RTT histograms are the monitor's own instruments, attached; the
        rest are mirror-gauges/counters a collector refreshes from the
        monitor's state, so the poll path never touches the registry.
        """
        fam = registry.histogram(
            "repro_fleet_heartbeat_seconds",
            "hub_stats heartbeat round-trip latency per hub.",
            ["hub"],
            buckets=LATENCY_BUCKETS,
        )
        for hub in self._hubs:
            fam.attach((hub.target.name,), hub.rtt)
        self._m_polls = registry.counter(
            "repro_fleet_heartbeats_total",
            "Heartbeat polls per hub by outcome.",
            ["hub", "outcome"],
        )
        self._m_state = registry.gauge(
            "repro_fleet_hub_state",
            "Liveness state per hub (2=up, 1=degraded, 0=down, "
            "-1=unknown).",
            ["hub"],
        )
        self._m_states = registry.gauge(
            "repro_fleet_hubs",
            "Hubs currently in each liveness state.",
            ["state"],
        )
        self._m_last_seen = registry.gauge(
            "repro_fleet_last_seen_seconds",
            "Seconds since each hub's last successful heartbeat.",
            ["hub"],
        )
        self._m_heartbeat = registry.gauge(
            "repro_fleet_heartbeat_sequence",
            "Monotonic heartbeat sequence reported by each hub "
            "(a restart shows as a reset).",
            ["hub"],
        )
        self._m_used = registry.gauge(
            "repro_fleet_space_used_words",
            "Max per-site sketch words in use, per hub.",
            ["hub"],
        )
        self._m_budget = registry.gauge(
            "repro_fleet_space_budget_words",
            "Configured space budget words, per hub (absent budgets "
            "export 0).",
            ["hub"],
        )
        self._m_ratio = registry.gauge(
            "repro_fleet_capacity_ratio",
            "used/budget space fraction per hub (overcommit ratio).",
            ["hub"],
        )
        self._m_elements = registry.counter(
            "repro_fleet_elements_total",
            "Stream elements applied, per hub.",
            ["hub"],
        )
        self._m_pending = registry.gauge(
            "repro_fleet_pending_commands",
            "Commands posted but not collected, per hub.",
            ["hub"],
        )
        self._m_rss = registry.gauge(
            "repro_fleet_hub_rss_bytes",
            "Resident set size of each hub process.",
            ["hub"],
        )
        self._m_uptime = registry.gauge(
            "repro_fleet_hub_uptime_seconds",
            "Uptime of each hub process.",
            ["hub"],
        )
        self._m_events = registry.counter(
            "repro_fleet_events_total",
            "Fleet liveness transitions by event kind.",
            ["event"],
        )
        registry.register_collector(self._collect)

    def _collect(self) -> None:
        now = self._clock()
        with self._lock:
            states = {name: 0 for name in STATES}
            for hub in self._hubs:
                name = hub.target.name
                states[hub.state] += 1
                self._m_polls.labels(name, "ok").value = float(
                    hub.polls - hub.failures
                )
                self._m_polls.labels(name, "error").value = float(
                    hub.failures
                )
                self._m_state.labels(name).value = _STATE_CODE[hub.state]
                if hub.last_ok is not None:
                    self._m_last_seen.labels(name).value = now - hub.last_ok
                self._m_heartbeat.labels(name).value = float(hub.heartbeat)
                stats = hub.stats or {}
                capacity = stats.get("capacity") or {}
                self._m_used.labels(name).value = float(
                    capacity.get("used_words") or 0
                )
                self._m_budget.labels(name).value = float(
                    capacity.get("budget_words") or 0
                )
                if capacity.get("ratio") is not None:
                    self._m_ratio.labels(name).value = float(
                        capacity["ratio"]
                    )
                self._m_elements.labels(name).value = float(
                    stats.get("elements") or 0
                )
                if hub.target.pending is not None:
                    try:
                        self._m_pending.labels(name).value = float(
                            hub.target.pending()
                        )
                    except Exception:
                        pass
                process = stats.get("process") or {}
                if process:
                    self._m_rss.labels(name).value = float(
                        process.get("rss_bytes") or 0
                    )
                    self._m_uptime.labels(name).value = float(
                        process.get("uptime_s") or 0
                    )
            for state, count in states.items():
                self._m_states.labels(state).value = float(count)
            for event, count in self._event_counts.items():
                self._m_events.labels(event).value = float(count)

"""Alert routing: rule state machines and pluggable delivery sinks.

The observability plane's closing loop.  Threshold subscriptions (PR 6)
fire predicate flips over SSE, but an SSE stream nobody is tailing is a
dashboard, not an alert.  :class:`AlertManager` turns predicates into
routed operator events:

* **Rules** load from a JSON manifest (``--alert-rules FILE`` on
  ``repro gateway``).  Each rule names a predicate source — a job
  query threshold (``kind: threshold``), a metric-family total
  (``kind: metrics``), or the paper's composed error accounting
  (``kind: error_bound``) — plus an operator/value, a ``for`` duration,
  a ``rearm`` holdoff, target sinks and free-form labels.
* **State machine** per rule: ``ok → pending(for) → firing →
  resolved(→ ok)``.  A predicate must hold for ``for`` seconds before
  the rule fires (transient spikes never page), and after a resolve the
  rule cannot re-enter ``pending`` until ``rearm`` seconds pass — the
  hysteresis that keeps a quantile flapping around its threshold from
  storming the sinks.
* **Sinks**: ``webhook`` (JSON POST with bounded retry/backoff and a
  dead-letter counter), ``exec`` (a subprocess with a timeout, the
  event as JSON on stdin), ``logfile`` (JSON lines), and always the
  in-memory ring behind ``GET /v1/alerts``.  Delivery runs on one
  background thread through a bounded queue, so a slow webhook can
  never stall the gateway's evaluator.
* **Exemplars**: every transition event carries the ``trace_id`` of
  the ingest round that flipped it, so ``/v1/trace?trace_id=`` shows
  the exact cross-process dispatch that caused the page.

Evaluation stays where the service lock lives: the *gateway* computes
each rule's raw value (same machinery as standing queries) and calls
:meth:`AlertManager.step` with the ``{rule: value}`` map; this module
owns comparison, state, and delivery — and is fully instrumented
(firing gauge, transition counters, sink latency/failure metrics).
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
import time
import urllib.error
import urllib.request
from collections import deque
from typing import Dict, List, Optional

from .metrics import DEFAULT_BUCKETS, MetricsRegistry

__all__ = [
    "AlertManager",
    "AlertRule",
    "ExecSink",
    "LogfileSink",
    "SinkError",
    "WebhookSink",
]

#: comparison operators of a predicate — alert rules and the gateway's
#: threshold subscriptions both validate and evaluate against this table
COMPARISONS = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


def check_comparison(spec: dict, what: str) -> None:
    """Reject a predicate whose ``op`` / ``value`` cannot be evaluated;
    ``what`` names the predicate in the message."""
    if spec.get("op") not in COMPARISONS:
        raise ValueError(
            f"{what} 'op' must be one of {sorted(COMPARISONS)}"
        )
    value = spec.get("value")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{what} 'value' must be a number")


def holds(spec: dict, value: float) -> bool:
    """Does the raw ``value`` satisfy the predicate ``spec`` states?"""
    return COMPARISONS[spec["op"]](float(value), float(spec["value"]))


#: rule predicate sources and the fields each requires
_RULE_KINDS = {
    "threshold": ("job",),
    "metrics": ("metric",),
    "error_bound": ("job",),
    # fleet rules compare a FleetMonitor quantity (hubs_down,
    # capacity_ratio, ...) named by the same ``metric`` field the
    # metrics kind uses; the gateway resolves it against /v1/fleet state
    "fleet": ("metric",),
}

#: transition events kept for ``GET /v1/alerts``
_EVENT_RING = 256

#: dead-lettered events kept for post-mortems
_DEAD_RING = 64

#: sink dispatches that may queue before new ones are dropped (counted)
_QUEUE_BOUND = 256


class SinkError(RuntimeError):
    """A sink failed to deliver an event (after any internal retries)."""


class WebhookSink:
    """JSON POST with bounded retry/backoff.

    Retries transport-level failures and non-2xx responses up to
    ``retries`` times with exponential backoff starting at
    ``backoff`` seconds; exhaustion raises :class:`SinkError`, which
    the manager counts as a dead letter.
    """

    kind = "webhook"

    def __init__(
        self,
        url: str,
        timeout: float = 5.0,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        if not url or not isinstance(url, str):
            raise ValueError("webhook sink needs a 'url'")
        self.url = url
        self.timeout = float(timeout)
        self.retries = max(0, int(retries))
        self.backoff = max(0.0, float(backoff))

    def emit(self, event: dict) -> None:
        body = json.dumps(event, sort_keys=True).encode()
        last: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * (2 ** (attempt - 1)))
            request = urllib.request.Request(
                self.url,
                data=body,
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    if 200 <= response.status < 300:
                        return
                    last = SinkError(
                        f"webhook {self.url} answered {response.status}"
                    )
            except (urllib.error.URLError, OSError, ValueError) as exc:
                last = exc
        raise SinkError(
            f"webhook {self.url} failed after {self.retries + 1} "
            f"attempt(s): {last}"
        ) from last


class ExecSink:
    """Run a command per event, the event as JSON on stdin."""

    kind = "exec"

    def __init__(self, command, timeout: float = 10.0):
        if (
            not command
            or not isinstance(command, (list, tuple))
            or not all(isinstance(part, str) for part in command)
        ):
            raise ValueError(
                "exec sink needs a 'command' list of strings"
            )
        self.command = list(command)
        self.timeout = float(timeout)

    def emit(self, event: dict) -> None:
        try:
            proc = subprocess.run(
                self.command,
                input=json.dumps(event, sort_keys=True).encode(),
                capture_output=True,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise SinkError(f"exec sink {self.command[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise SinkError(
                f"exec sink {self.command[0]!r} exited "
                f"{proc.returncode}: {proc.stderr.decode(errors='replace')[:200]}"
            )


class LogfileSink:
    """Append one JSON line per event (open/append/close — the rate is
    operator-speed, and short-lived handles survive log rotation)."""

    kind = "logfile"

    def __init__(self, path: str):
        if not path or not isinstance(path, str):
            raise ValueError("logfile sink needs a 'path'")
        self.path = path

    def emit(self, event: dict) -> None:
        try:
            with open(self.path, "a") as f:
                f.write(json.dumps(event, sort_keys=True) + "\n")
        except OSError as exc:
            raise SinkError(f"logfile sink {self.path!r}: {exc}") from exc


_SINK_TYPES = {"webhook": WebhookSink, "exec": ExecSink, "logfile": LogfileSink}


def _build_sink(name: str, config: dict):
    if not isinstance(config, dict):
        raise ValueError(f"sink {name!r} must be a JSON object")
    kind = config.get("type")
    if kind not in _SINK_TYPES:
        raise ValueError(
            f"sink {name!r} has unknown type {kind!r}; choose from "
            f"{sorted(_SINK_TYPES)}"
        )
    kwargs = {k: v for k, v in config.items() if k != "type"}
    try:
        return _SINK_TYPES[kind](**kwargs)
    except TypeError as exc:
        raise ValueError(f"sink {name!r}: {exc}") from None


class AlertRule:
    """One rule: a predicate source plus its transition state machine."""

    __slots__ = (
        "name", "spec", "for_s", "rearm_s", "sinks", "labels",
        "state", "pending_since", "rearm_until", "last_value",
        "fired_count",
    )

    def __init__(
        self,
        name: str,
        spec: dict,
        for_s: float = 0.0,
        rearm_s: float = 0.0,
        sinks: Optional[List[str]] = None,
        labels: Optional[dict] = None,
    ):
        if not name or not isinstance(name, str):
            raise ValueError("alert rule needs a non-empty 'name'")
        kind = spec.get("kind")
        if kind not in _RULE_KINDS:
            raise ValueError(
                f"rule {name!r}: 'kind' must be one of "
                f"{sorted(_RULE_KINDS)}"
            )
        for field in _RULE_KINDS[kind]:
            if not spec.get(field) or not isinstance(spec[field], str):
                raise ValueError(
                    f"rule {name!r} ({kind}) needs a {field!r} string"
                )
        check_comparison(spec, f"rule {name!r}:")
        if for_s < 0 or rearm_s < 0:
            raise ValueError(
                f"rule {name!r}: 'for' and 'rearm' must be >= 0"
            )
        self.name = name
        self.spec = dict(spec)
        self.for_s = float(for_s)
        self.rearm_s = float(rearm_s)
        self.sinks = list(sinks or [])
        self.labels = dict(labels or {})
        self.state = "ok"
        self.pending_since: Optional[float] = None
        self.rearm_until = 0.0
        self.last_value: Optional[float] = None
        self.fired_count = 0

    def active(self, value: float) -> bool:
        """Does ``value`` satisfy the rule's predicate?"""
        return holds(self.spec, value)

    def step(self, value: float, now: float) -> Optional[str]:
        """Advance the state machine one evaluation; returns the emitted
        transition (``"firing"`` / ``"resolved"``) or ``None``.

        ``ok → pending`` is gated by the re-arm holdoff; ``pending →
        firing`` by the ``for`` duration (``for=0`` fires on the same
        evaluation).  A predicate that lets go mid-``pending`` returns
        to ``ok`` silently — it never fired, so nothing resolves.
        """
        self.last_value = float(value)
        active = self.active(value)
        if self.state == "ok":
            if active and now >= self.rearm_until:
                self.state = "pending"
                self.pending_since = now
                return self._maybe_fire(now)
            return None
        if self.state == "pending":
            if not active:
                self.state = "ok"
                self.pending_since = None
                return None
            return self._maybe_fire(now)
        # firing
        if not active:
            self.state = "ok"
            self.pending_since = None
            self.rearm_until = now + self.rearm_s
            return "resolved"
        return None

    def _maybe_fire(self, now: float) -> Optional[str]:
        if now - self.pending_since >= self.for_s:
            self.state = "firing"
            self.fired_count += 1
            return "firing"
        return None

    def pending_deadline(self) -> Optional[float]:
        """When a held predicate would fire (``None`` unless pending)."""
        if self.state != "pending" or self.pending_since is None:
            return None
        return self.pending_since + self.for_s

    def describe(self) -> dict:
        return {
            "name": self.name,
            "spec": dict(self.spec),
            "for": self.for_s,
            "rearm": self.rearm_s,
            "sinks": list(self.sinks),
            "labels": dict(self.labels),
            "state": self.state,
            "last_value": self.last_value,
            "fired_count": self.fired_count,
        }


class AlertManager:
    """Rules, sinks, the event ring, and the delivery thread.

    Parameters
    ----------
    rules / sinks:
        Parsed :class:`AlertRule` objects and ``{name: sink}`` — use
        :meth:`from_manifest` for the JSON form the CLI loads.
    registry:
        The :class:`MetricsRegistry` to declare alert metrics on
        (the gateway passes its own); ``None`` makes a private one.
    clock:
        State-machine time source (monotonic; injectable for tests).
    """

    def __init__(
        self,
        rules: List[AlertRule],
        sinks: Optional[Dict[str, object]] = None,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
    ):
        self.sinks = dict(sinks or {})
        names = set()
        for rule in rules:
            if rule.name in names:
                raise ValueError(f"duplicate alert rule {rule.name!r}")
            names.add(rule.name)
            for sink in rule.sinks:
                if sink not in self.sinks:
                    raise ValueError(
                        f"rule {rule.name!r} routes to unknown sink "
                        f"{sink!r}; declared: {sorted(self.sinks)}"
                    )
        self.rules: Dict[str, AlertRule] = {r.name: r for r in rules}
        self._clock = clock
        self._events: deque = deque(maxlen=_EVENT_RING)
        self._dead: deque = deque(maxlen=_DEAD_RING)
        self._queue: queue.Queue = queue.Queue(maxsize=_QUEUE_BOUND)
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        registry.gauge(
            "repro_alerts_rules", "Alert rules loaded.",
        ).set_function(lambda: len(self.rules))
        registry.gauge(
            "repro_alerts_firing", "Alert rules currently firing.",
        ).set_function(
            lambda: sum(
                1 for r in self.rules.values() if r.state == "firing"
            )
        )
        self.m_transitions = registry.counter(
            "repro_alerts_transitions_total",
            "Rule state transitions emitted, by rule and new state.",
            ["rule", "state"],
        )
        self.m_evals = registry.counter(
            "repro_alerts_evals_total",
            "Rule evaluations stepped through the state machines.",
        )
        self.m_eval_errors = registry.counter(
            "repro_alerts_eval_errors_total",
            "Evaluation rounds where a rule's value was unavailable.",
            ["rule"],
        )
        self.m_sink_seconds = registry.histogram(
            "repro_alerts_sink_dispatch_seconds",
            "Sink delivery latency (retries included), by sink.",
            ["sink"],
            buckets=DEFAULT_BUCKETS,
        )
        self.m_sink_failures = registry.counter(
            "repro_alerts_sink_failures_total",
            "Sink deliveries that failed after retries, by sink.",
            ["sink"],
        )
        self.m_dead_letters = registry.counter(
            "repro_alerts_dead_letters_total",
            "Events a sink could not deliver (kept in the dead ring).",
            ["sink"],
        )
        self.m_dropped = registry.counter(
            "repro_alerts_queue_dropped_total",
            "Dispatches dropped because the delivery queue was full.",
        )
        if self.sinks:
            self._worker = threading.Thread(
                target=self._deliver, name="repro-alert-sinks", daemon=True
            )
            self._worker.start()

    # -- manifest ----------------------------------------------------------

    @classmethod
    def from_manifest(
        cls,
        manifest: dict,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
    ) -> "AlertManager":
        """Build a manager from the ``--alert-rules`` JSON document::

            {
              "sinks": {
                "ops":   {"type": "webhook", "url": "http://...",
                          "timeout": 5, "retries": 2, "backoff": 0.25},
                "pager": {"type": "exec", "command": ["./page.sh"],
                          "timeout": 10},
                "audit": {"type": "logfile", "path": "alerts.log"}
              },
              "rules": [
                {"name": "hh-hot", "kind": "threshold", "job": "hh",
                 "method": "estimate", "args": [], "op": ">",
                 "value": 50000, "for": 5, "rearm": 30,
                 "sinks": ["ops", "audit"],
                 "labels": {"severity": "page"}}
              ]
            }
        """
        if not isinstance(manifest, dict):
            raise ValueError("alert manifest must be a JSON object")
        sink_configs = manifest.get("sinks") or {}
        if not isinstance(sink_configs, dict):
            raise ValueError("'sinks' must be an object of name -> config")
        sinks = {
            name: _build_sink(name, config)
            for name, config in sink_configs.items()
        }
        rule_entries = manifest.get("rules")
        if not isinstance(rule_entries, list) or not rule_entries:
            raise ValueError("'rules' must be a non-empty list")
        rules = []
        for entry in rule_entries:
            if not isinstance(entry, dict):
                raise ValueError("each rule must be a JSON object")
            spec = {
                key: entry[key]
                for key in ("kind", "job", "metric", "method", "args",
                            "op", "value")
                if key in entry
            }
            spec.setdefault("kind", "threshold")
            rules.append(
                AlertRule(
                    entry.get("name"),
                    spec,
                    for_s=entry.get("for", 0.0),
                    rearm_s=entry.get("rearm", 0.0),
                    sinks=entry.get("sinks"),
                    labels=entry.get("labels"),
                )
            )
        return cls(rules, sinks=sinks, registry=registry, clock=clock)

    # -- evaluation --------------------------------------------------------

    def step(
        self,
        values: Dict[str, Optional[float]],
        now: Optional[float] = None,
        trace_id: Optional[str] = None,
    ) -> List[dict]:
        """Advance every rule with its freshly evaluated value.

        ``values`` maps rule name to the raw predicate value (``None``
        when evaluation failed — the rule holds its state and the miss
        is counted).  Emitted transitions are appended to the event
        ring, stamped with ``trace_id`` (the ingest round that flipped
        them), and dispatched to the rule's sinks.  Returns the events.
        """
        now = self._clock() if now is None else now
        events = []
        for name, rule in self.rules.items():
            if name not in values:
                continue
            value = values[name]
            if value is None:
                self.m_eval_errors.labels(name).inc()
                continue
            self.m_evals.inc()
            transition = rule.step(value, now)
            if transition is None:
                continue
            event = {
                "rule": name,
                "state": transition,
                "value": rule.last_value,
                "op": rule.spec["op"],
                "threshold": rule.spec["value"],
                "kind": rule.spec["kind"],
                "source": rule.spec.get("job") or rule.spec.get("metric"),
                "for": rule.for_s,
                "labels": dict(rule.labels),
                "at": time.time(),
                "trace_id": trace_id,
            }
            self.m_transitions.labels(name, transition).inc()
            self._events.append(event)
            events.append(event)
            for sink_name in rule.sinks:
                self._enqueue(sink_name, event)
        return events

    def pending_deadline(self) -> Optional[float]:
        """Earliest instant a pending rule would fire if its predicate
        holds (the gateway schedules a re-evaluation for it); ``None``
        when nothing is pending."""
        deadlines = [
            d
            for d in (
                rule.pending_deadline() for rule in self.rules.values()
            )
            if d is not None
        ]
        return min(deadlines) if deadlines else None

    # -- delivery ----------------------------------------------------------

    def _enqueue(self, sink_name: str, event: dict) -> None:
        try:
            self._queue.put_nowait((sink_name, event))
        except queue.Full:
            self.m_dropped.inc()

    def _deliver(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            sink_name, event = item
            self.dispatch_now(sink_name, event)

    def dispatch_now(self, sink_name: str, event: dict) -> bool:
        """Deliver one event synchronously (the worker's inner step;
        also the bench/test hook).  Returns delivery success."""
        sink = self.sinks.get(sink_name)
        if sink is None:
            return False
        started = time.perf_counter()
        try:
            sink.emit(event)
            return True
        except Exception as exc:
            self.m_sink_failures.labels(sink_name).inc()
            self.m_dead_letters.labels(sink_name).inc()
            self._dead.append(
                {"sink": sink_name, "error": str(exc), "event": event}
            )
            return False
        finally:
            self.m_sink_seconds.labels(sink_name).observe(
                time.perf_counter() - started
            )

    def flush(self, timeout: float = 5.0) -> bool:
        """Wait for the delivery queue to drain (tests, shutdown)."""
        deadline = time.monotonic() + timeout
        while not self._queue.empty():
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.01)
        return True

    # -- introspection -----------------------------------------------------

    def events(self, limit: Optional[int] = None) -> List[dict]:
        """Recent transition events, oldest first."""
        events = [dict(e) for e in self._events]
        if limit is not None and limit >= 0:
            events = events[len(events) - limit:] if limit else []
        return events

    def dead_letters(self) -> List[dict]:
        """Events no sink could deliver, oldest first."""
        return [dict(e) for e in self._dead]

    def describe(self) -> dict:
        """The ``GET /v1/alerts`` payload."""
        return {
            "rules": [rule.describe() for rule in self.rules.values()],
            "sinks": {
                name: type(sink).kind for name, sink in self.sinks.items()
            },
            "events": self.events(),
            "dead_letters": self.dead_letters(),
        }

    def close(self, timeout: float = 5.0) -> None:
        """Drain and stop the delivery thread; idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._worker is not None:
            self._queue.put(None)
            self._worker.join(timeout=timeout)
            self._worker = None

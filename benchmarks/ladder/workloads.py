"""The four workloads: what they are, why, and their seeded inputs.

Inputs come from ``numpy.random.default_rng(seed)`` in vectorised form
(``repro.workloads`` generators are per-event Python iterators — minutes
at these sizes) and are JSON-encoded once (``Inputs.encode_bodies``),
before any timed region.  A run splits ``--seconds`` evenly over its
fresh-stack trials, and a trial's size is ``rate x its seconds``: the
nominal rates below were calibrated so a trial's measured phases
(ingest, refreshes, recovery) take about its share on the reference box,
while the inputs — and with them every message count and answer — stay a
pure function of ``(workload, seed, seconds, trials)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

NUM_SITES = 16
REQUEST_EVENTS = 2048
#: ``Cluster.ingest`` call size on the site-actor workload
PROTO_CALL_EVENTS = 8192
DEFAULT_EPS = 0.02
ITEM_DOMAIN = 5000
ZIPF_A = 1.2
#: fixed probe values for ``estimate_rank`` accuracy (the Zipf mass sits
#: at small values; the tail is near-uniform after ``% ITEM_DOMAIN``)
RANK_PROBES = (2, 4, 16, 256, 2500)
TOP_TRUE_ITEMS = 10

COUNT_JOBS = (
    "total=count/randomized:0.01", "total-lb=count/deterministic:0.01",
)
MIXED_JOBS = (
    "total=count/randomized:0.01",
    "hot=frequency/randomized:0.02",
    "p99=rank/randomized:0.02",
)
PROTO_JOBS = ("total-lb=count/deterministic:0.01",)

# A dashboard refresh: five queries back to back on one connection.
COUNT_PANEL = (
    ("total", None, ()), ("total", None, ()), ("total", None, ()),
    ("total-lb", None, ()), ("total-lb", None, ()),
)
MIXED_PANEL = (
    ("total", None, ()),
    ("p99", "quantile", (0.5,)),
    ("p99", "quantile", (0.99,)),
    ("hot", "top_items", (10,)),
    ("hot", "heavy_hitters", (0.05,)),
)
PROTO_PANEL = (("total-lb", None, ()),) * 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``closed`` (one client, next request after the reply), ``open``
    #: (fixed schedule, ingest beside dashboard reads) or ``proto``
    #: (the site-actor ``Cluster``, no gateway)
    loop: str
    jobs: tuple
    panel: tuple
    #: events per second of a trial's seconds; fixes the input size
    rate: int
    #: consecutive events bound for one site
    burst: int
    #: whether requests carry the ``items`` column
    items: bool
    #: dashboard refreshes per second of a trial's seconds after the
    #: ingest, on the quiet system; in the open loop, per second of real
    #: time beside the ingest
    refresh_rate: int
    #: open loop only: ingest requests per second of real time
    pace: int = 0


WORKLOADS = (
    Workload(
        "count-bursty",
        "Count schemes are nearly free, so JSON parse, queue, routing, "
        "frame codec, TCP, WAL and dispatch do the work: "
        "transport/codec changes show here, core changes must not.",
        "closed", COUNT_JOBS, COUNT_PANEL, rate=300_000, burst=64,
        items=False, refresh_rate=40,
    ),
    Workload(
        "mixed-uniform",
        "All three randomized trackers on run-length-1 arrivals: core "
        "and decompose_runs dominate and the layers above are a small "
        "tax, so scheme/sketch changes show here, transport must not.",
        "closed", MIXED_JOBS, MIXED_PANEL, rate=40_000, burst=1,
        items=True, refresh_rate=5,
    ),
    Workload(
        "read-write",
        "Open loop at a third of capacity, ingest beside dashboard "
        "refreshes: every merged read fences the relaxed pipeline across "
        "two TCP hubs, so work deferred to read time shows as a cost.",
        "open", MIXED_JOBS, MIXED_PANEL, rate=16 * REQUEST_EVENTS, burst=64,
        items=True, refresh_rate=4, pace=20,
    ),
    Workload(
        "proto-relaxed-tcp",
        "The site-actor plane (net/actors hub loop, its credit window, "
        "columnar super-runs) is off the service path; deterministic "
        "count stays exact under relaxed dispatch, so it must equal "
        "Simulation.",
        "proto", PROTO_JOBS, PROTO_PANEL, rate=1_600_000, burst=64,
        items=False, refresh_rate=100,
    ),
)
BY_NAME = {w.name: w for w in WORKLOADS}

#: fewest refreshes any pass issues (a median needs a sample)
MIN_REFRESHES = 20
#: ``--smoke`` shrinks every workload by this factor
SMOKE_SHRINK = 50


@dataclass
class Inputs:
    """One workload's generated stream, sliced into requests."""

    workload: Workload
    seed: int
    site_ids: np.ndarray
    #: always generated, so per-scheme and per-query rungs can run all
    #: three problems on any arrival pattern; whether the workload's own
    #: requests carry it is ``workload.items``
    items: np.ndarray
    #: ``(lo, hi)`` event ranges, one per request / ``Cluster.ingest`` call
    requests: list
    #: dashboard refreshes to issue (after the ingest on a closed loop)
    refreshes: int
    #: pre-encoded ``POST /v1/ingest`` bodies, one per request
    bodies: list = field(default_factory=list)

    @property
    def events(self) -> int:
        return self.requests[-1][1]

    def columns(self, lo: int, hi: int, items: Optional[bool] = None):
        """The event range as ``(site_ids, items)`` numpy columns; the
        items column is None when the workload's requests carry none
        (override with ``items=True``)."""
        carry = self.workload.items if items is None else items
        return self.site_ids[lo:hi], self.items[lo:hi] if carry else None

    def encode_bodies(self) -> "Inputs":
        self.bodies = [
            encode_body(*self.columns(lo, hi)) for lo, hi in self.requests
        ]
        return self

    @cached_property
    def accuracy_probes(self) -> list:
        """``(job, method, args, truth, eps)`` queries scored against
        numpy ground truth: count vs n, ``estimate_rank`` at fixed
        values, ``estimate_frequency`` of the truly most frequent items."""
        n = self.events + 1  # + the warm-up event
        eps = {
            spec.partition("=")[0]: float(spec.rpartition(":")[2])
            for spec in self.workload.jobs
        }
        probes = [
            (name, None, (), float(n), eps[name])
            for name in eps if name.startswith("total")
        ]
        if "p99" in eps:
            # The warm-up event carries item 1.
            values = np.concatenate((self.items[: self.events], [1]))
            for probe in RANK_PROBES:
                truth = float(np.count_nonzero(values < probe))
                probes.append(
                    ("p99", "estimate_rank", (probe,), truth, eps["p99"])
                )
            counts = np.bincount(values, minlength=ITEM_DOMAIN)
            top = np.argsort(-counts, kind="stable")[:TOP_TRUE_ITEMS]
            for item in top.tolist():
                probes.append((
                    "hot", "estimate_frequency", (item,),
                    float(counts[item]), eps["hot"],
                ))
        return probes

    def prefix(self, events: int) -> "Inputs":
        """The first ``events`` events, rounded up to whole requests."""
        count = max(1, -(-events // self.requests[0][1]))
        return Inputs(
            self.workload, self.seed, self.site_ids, self.items,
            self.requests[:count], MIN_REFRESHES, self.bodies[:count],
        )


#: decimal text of every value a column can hold (site ids and items)
_DECIMAL = [str(i) for i in range(max(NUM_SITES, ITEM_DOMAIN))]


def _encode_ints(values: np.ndarray) -> str:
    return ",".join(map(_DECIMAL.__getitem__, values.tolist()))


def encode_body(site_ids: np.ndarray, items: Optional[np.ndarray]) -> bytes:
    body = '{"site_ids":[' + _encode_ints(site_ids) + "]"
    if items is not None:
        body += ',"items":[' + _encode_ints(items) + "]"
    return (body + "}").encode()


def generate(
    workload: Workload, seed: int, seconds: float, shrink: int = 1
) -> Inputs:
    """The workload's inputs for one run: same arguments, same bytes."""
    rng = np.random.default_rng(seed)
    call = PROTO_CALL_EVENTS if workload.loop == "proto" else REQUEST_EVENTS
    calls = max(4, round(workload.rate * seconds / shrink / call))
    n = calls * call
    bursts = rng.integers(0, NUM_SITES, size=n // workload.burst)
    site_ids = np.repeat(bursts, workload.burst).astype(np.int64)
    items = (rng.zipf(ZIPF_A, size=n) % ITEM_DOMAIN).astype(np.int64)
    requests = [(i * call, (i + 1) * call) for i in range(calls)]
    refreshes = max(
        MIN_REFRESHES, round(workload.refresh_rate * seconds / shrink)
    )
    return Inputs(workload, seed, site_ids, items, requests, refreshes)


#: the one warm-up request of ``setup_s``: a single event to site 0 with
#: a unit item, identical on the stack and in the reference
WARMUP_BODY = b'{"site_ids":[0],"items":[1]}'


def query_path(job: str, method: Optional[str], args: tuple) -> str:
    path = f"/v1/query/{job}"
    params = [] if method is None else [f"method={method}"]
    params += [f"arg={a}" for a in args]
    return path + ("?" + "&".join(params) if params else "")

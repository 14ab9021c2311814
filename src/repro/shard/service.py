"""The sharded multi-tenant tracking service.

A :class:`ShardedTrackingService` partitions the site fleet across
``num_shards`` shard-local hubs (each a full
:class:`~repro.service.TrackingService`: engine, per-job Network
ledgers, optional checkpoint bundle) behind the *same*
register/ingest/query surface as a single service.  It is the one
public service: the HTTP gateway, ``repro serve`` / ``repro restore``
and the benchmarks all run on it, with ``num_shards=1`` (one inline hub)
unless told to partition.

* **Routing**: a :class:`~repro.shard.router.ShardRouter` hash-
  partitions global site ids; one facade ``ingest`` splits the batch
  and drives every hub through the execution plane (inline, worker
  threads, worker processes, or remote TCP hubs — see
  :mod:`repro.exec`).  Per-shard event order is preserved, so each
  hub's transcript is deterministic given the seed.
* **Query merging**: cross-shard reads go through the merge plane
  (:mod:`repro.shard.merge`): counts sum, frequency candidate sets
  union + re-threshold, rank functions add.  Per-shard hubs run at the
  job's full epsilon; the composed bound is still ``eps * n`` (see the
  merge module's error-composition notes and :meth:`error_bound`).
* **Determinism**: per-shard job seeds derive from the job seed and the
  shard index, so shards draw independent randomness.  With
  ``num_shards=1`` the partition is the identity and seeds are passed
  through untouched — a one-shard facade is transcript-identical to an
  unsharded :class:`TrackingService` (asserted in the equivalence
  tests), which also makes it the honest baseline for scaling runs.
* **Durability**: ``checkpoint_dir`` arms per-hub WAL+snapshot bundles
  under ``shard-NN/`` plus a ``shards.json`` manifest;
  :meth:`restore` rebuilds the facade and recovers every hub.
* **Placement**: hubs are exec-plane workers (:mod:`repro.exec`):
  ``inline`` / ``thread`` / ``process`` place them locally, and
  ``cluster`` places each hub on a ``repro hub`` TCP actor —
  distributed shard hubs behind one facade/gateway.
* **Pipelining**: ``relaxed=True`` posts every hub's sub-batch without
  waiting for acks (per-hub FIFO keeps each hub's transcript exact);
  reads, checkpoints and registry changes fence first.  On remote hubs
  this turns one round trip per batch into none.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional

import numpy as _np

from ..exec import EXECUTORS, make_group
from ..exec.dispatch import CreditWindow
from ..exec.workers import hub_spec
from ..obs.fleet import FleetTarget, space_capacity
from ..obs.metrics import DEFAULT_BUCKETS, SIZE_BUCKETS, Histogram
from ..obs.tracing import SpanRecorder
from ..persistence.snapshot import latest_snapshot, list_snapshots
from ..runtime import TrackingScheme, derive_seed
from ..runtime.batching import as_column, batches_from_stream
from ..service.errors import DuplicateJobError, UnknownJobError
from ..service.service import register_service_metrics
from .merge import (
    MERGEABLE_METHODS,
    UnmergeableQueryError,
    composed_error_bound,
    merged_query,
)
from .router import ShardRouter

__all__ = ["ShardedTrackingService", "ShardJobView"]

_MANIFEST = "shards.json"
_MANIFEST_FORMAT = "repro-shards-v1"


class ShardJobView:
    """The facade's handle for one registered job.

    Mirrors the slice of :class:`~repro.service.TrackingJob` the
    frontends read (``name``, ``scheme``, ``seed``,
    ``elements_processed``, ``space_budget_words``); protocol state
    lives only in the shard hubs.
    """

    __slots__ = (
        "name", "scheme", "seed", "space_budget_words", "_service",
        "_elements_offset",
    )

    def __init__(self, name, scheme, seed, space_budget_words, service,
                 elements_offset):
        self.name = name
        self.scheme = scheme
        self.seed = seed
        self.space_budget_words = space_budget_words
        self._service = service
        self._elements_offset = elements_offset

    @property
    def elements_processed(self) -> int:
        """Events this job observed (jobs see everything ingested after
        their registration; the facade routes every event)."""
        return self._service.elements_processed - self._elements_offset

    @property
    def problem(self) -> str:
        """Problem family from the scheme's table name."""
        return self.scheme.name.split("/", 1)[0]

    def __repr__(self) -> str:
        return (
            f"ShardJobView(name={self.name!r}, scheme={self.scheme.name!r}, "
            f"elements={self.elements_processed})"
        )


class ShardedTrackingService:
    """Partitioned ingest with merged cross-shard queries.

    Parameters mirror :class:`~repro.service.TrackingService` plus:

    num_shards:
        Shard-local hubs to partition the ``num_sites`` fleet across
        (``1 <= num_shards <= num_sites``).
    executor:
        ``"inline"`` (sequential, deterministic reference),
        ``"thread"`` (one worker thread per hub), ``"process"`` (one
        worker process per hub; ingest is pipelined across hubs and
        scales with cores) or ``"cluster"`` (each hub on a
        ``repro hub`` TCP actor — see ``hub_addresses``).
    hub_addresses:
        For ``executor="cluster"``: addresses of running ``repro hub``
        hosts; hub ``i`` lands on ``hub_addresses[i % len]``.  ``None``
        self-hosts one TCP exec host on an ephemeral local port.
    relaxed:
        Pipelined ingest: post every hub's sub-batch without collecting
        acks (reads/checkpoints fence first).  Per-hub transcripts are
        unchanged — per-hub FIFO preserves each hub's event order — so
        answers are identical to lockstep; an ingest error surfaces at
        the next fencing call instead of the posting call (see
        ``docs/relaxed-mode.md``).  Empty sub-batches are skipped
        entirely (no command, no frame).
    window / per_site_depth:
        Relaxed-mode in-flight bounds (``docs/relaxed-mode.md`` →
        "Windowing"): at most ``window`` runs (maximal same-site
        stretches, counted per posted sub-batch) in flight across the
        fleet and ``per_site_depth`` outstanding sub-batch commands per
        shard hub.  When posting would exceed a credit the facade
        collects the *oldest* outstanding reply only — never a full
        fence — so pipelining continues while memory stays flat on
        unbounded streams.  None (default) leaves a dimension
        unbounded; either without ``relaxed=True`` is a ``ValueError``.
    """

    def __init__(
        self,
        num_sites: int,
        num_shards: int = 1,
        seed: int = 0,
        one_way: bool = False,
        uplink_drop_rate: float = 0.0,
        space_sample_interval: int = 4096,
        space_budget_words: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        wal_sync: bool = False,
        executor: str = "inline",
        hub_addresses: Optional[List[str]] = None,
        relaxed: bool = False,
        window: Optional[int] = None,
        per_site_depth: Optional[int] = None,
        _restore: Optional[List[str]] = None,
    ):
        self.router = ShardRouter(num_sites, num_shards)
        self.num_sites = num_sites
        self.num_shards = num_shards
        self.seed = seed
        self.one_way = one_way
        self.uplink_drop_rate = uplink_drop_rate
        self.space_budget_words = space_budget_words
        self.executor = executor
        self.relaxed = bool(relaxed)
        # The fleet's in-flight ledger (one slot per shard hub), built
        # before any worker is spawned so bad bounds leak nothing.
        ledger = CreditWindow(
            num_shards,
            relaxed=relaxed,
            window=window,
            per_site_depth=per_site_depth,
        )
        self.window = window
        self.per_site_depth = per_site_depth
        #: run weight of each relaxed sub-batch posted — the
        #: facade-level coalescing figure (runs per command frame)
        self.coalesced_runs = Histogram(SIZE_BUCKETS)
        self.elements_processed = 0
        self._jobs: Dict[str, ShardJobView] = {}
        #: dispatch-plane telemetry, owned here and always on (two
        #: clock reads per fan-out): spans for dispatch/merge/fence,
        #: histograms for merge latency, candidate-union sizes and
        #: fan-out rounds per merged query (:meth:`register_metrics`
        #: attaches them to a registry).
        self.spans = SpanRecorder()
        self.merge_latency = Histogram(DEFAULT_BUCKETS)
        self.merge_candidates = Histogram(SIZE_BUCKETS)
        self.merge_fanouts = Histogram(SIZE_BUCKETS)
        self._checkpoint_dir = checkpoint_dir
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown shard executor {executor!r}; choose from "
                f"{EXECUTORS}"
            )
        if hub_addresses and executor != "cluster":
            raise ValueError(
                "hub_addresses only applies to executor='cluster'"
            )
        configs = []
        for shard in range(num_shards):
            # restore() hands each hub the bundle it recovers from
            if _restore is not None:
                config = {"restore_from": _restore[shard]}
            else:
                config = {
                    "num_sites": self.router.shard_size(shard),
                    "seed": self._shard_seed(seed, shard),
                    "one_way": one_way,
                    "uplink_drop_rate": uplink_drop_rate,
                    "space_sample_interval": space_sample_interval,
                    "space_budget_words": space_budget_words,
                }
            config["wal_sync"] = wal_sync
            if checkpoint_dir is not None and _restore is None:
                config["checkpoint_dir"] = self._shard_dir(
                    checkpoint_dir, shard
                )
            configs.append(config)
        if checkpoint_dir is not None and _restore is None:
            self._write_manifest(checkpoint_dir)
        self._group = make_group(
            executor,
            [hub_spec(config) for config in configs],
            hub_addresses=hub_addresses,
            ledger=ledger,
        )
        if _restore is not None:
            self._rebuild_from_shards()

    # -- seeds & layout ----------------------------------------------------

    def _shard_seed(self, base: int, shard: int) -> int:
        """Per-shard derivation; the one-shard facade passes seeds
        through so it reproduces the unsharded transcript exactly."""
        if self.num_shards == 1:
            return base
        return derive_seed(base, "shard", shard)

    @staticmethod
    def _shard_dir(checkpoint_dir: str, shard: int) -> str:
        return os.path.join(checkpoint_dir, f"shard-{shard:02d}")

    def _write_manifest(self, checkpoint_dir: str) -> None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        path = os.path.join(checkpoint_dir, _MANIFEST)
        # A manifest, or the snapshot a single-service bundle starts
        # with: either way a fresh layout here would shadow that state.
        if os.path.exists(path) or list_snapshots(checkpoint_dir):
            raise ValueError(
                f"checkpoint dir {checkpoint_dir!r} already holds state; "
                "resume it with ShardedTrackingService.restore(...), or "
                "pass --resume to `repro serve` / `repro gateway`"
            )
        manifest = {
            "format": _MANIFEST_FORMAT,
            "num_sites": self.num_sites,
            "num_shards": self.num_shards,
            "seed": self.seed,
            "one_way": self.one_way,
            "uplink_drop_rate": self.uplink_drop_rate,
            "space_budget_words": self.space_budget_words,
        }
        with open(path, "w") as f:
            json.dump(manifest, f, indent=2, sort_keys=True)
            f.write("\n")

    # -- job registry ------------------------------------------------------

    def register(
        self,
        name: str,
        scheme: TrackingScheme,
        seed: Optional[int] = None,
        space_budget_words: Optional[int] = None,
    ) -> ShardJobView:
        """Register a named job on every shard hub.

        The job seed resolves exactly like the unsharded service
        (``derive_seed(service_seed, "job", name)``); each hub then gets
        an independent per-shard derivation of it, so shard randomness
        is uncorrelated and the variance composition argument holds.
        """
        if not name or not isinstance(name, str):
            raise ValueError("job name must be a non-empty string")
        if name in self._jobs:
            raise DuplicateJobError(f"job {name!r} is already registered")
        resolved_seed = (
            derive_seed(self.seed, "job", name) if seed is None else seed
        )
        resolved_budget = (
            self.space_budget_words
            if space_budget_words is None
            else space_budget_words
        )
        self._group.map(
            "register",
            [
                (name, scheme, self._shard_seed(resolved_seed, shard),
                 resolved_budget)
                for shard in range(self.num_shards)
            ],
        )
        view = ShardJobView(
            name, scheme, resolved_seed, resolved_budget, self,
            elements_offset=self.elements_processed,
        )
        self._jobs[name] = view
        return view

    def unregister(self, name: str) -> ShardJobView:
        """Remove a job from every shard hub; returns its view."""
        checked = self._checked(name)
        self._group.map(
            "unregister", [(checked,)] * self.num_shards
        )
        return self._jobs.pop(checked)

    def job(self, name: str) -> ShardJobView:
        return self._jobs[self._checked(name)]

    def _checked(self, name: str) -> str:
        if name not in self._jobs:
            raise UnknownJobError(
                f"no job named {name!r}; registered: {sorted(self._jobs)}"
            )
        return name

    @property
    def jobs(self) -> Dict[str, ShardJobView]:
        return dict(self._jobs)

    def __contains__(self, name: str) -> bool:
        return name in self._jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def __getitem__(self, name: str) -> ShardJobView:
        return self.job(name)

    # -- ingestion ---------------------------------------------------------

    @property
    def dispatch_mode(self) -> str:
        """``"lockstep"``, ``"relaxed"`` or ``"windowed"``."""
        return self._group.ledger.mode

    def dispatch_stats(self) -> dict:
        """Facade-level dispatch counters: the fleet ledger's, the
        method :meth:`~repro.net.actors.CoordinatorHub.dispatch_stats`
        answers from (frames and runs count ingest sub-batches only)."""
        return self._group.ledger.stats()

    def inflight_runs(self) -> int:
        """Runs posted under relaxed dispatch but not yet collected."""
        return self._group.ledger.weight

    def ingest(self, site_ids, items=None) -> int:
        """Route one ordered batch across the shard hubs.

        Site ids are validated (and the batch rejected atomically) before
        any hub sees an event.  Every hub's sub-batch is posted before
        any ack is collected, so placed hubs (process/cluster) apply
        their slices concurrently; with ``relaxed=True`` no ack is
        collected at all — the next fencing operation (query, status,
        checkpoint, registry change) drains outstanding batches and
        surfaces any deferred ingest error.

        The batch enters here: each column takes its carrier once
        (:func:`~repro.runtime.batching.as_column`), so numeric columns
        reach every hub — and its WAL — as typed arrays.  A column that
        is the caller's own object is copied: a relaxed post may run
        after this returns, when the caller may have refilled it.
        """
        parts = self.router.split(
            _owned(site_ids), None if items is None else _owned(items)
        )
        if not parts:
            return 0
        per_shard = [([], None) for _ in range(self.num_shards)]
        total = 0
        for shard, local_ids, shard_items in parts:
            per_shard[shard] = (local_ids, shard_items)
            total += len(local_ids)
        with self.spans.span(
            "dispatch",
            events=total,
            shards=len(parts),
            relaxed=self.relaxed,
        ):
            if not self.relaxed:
                total = sum(self._group.map("ingest", per_shard))
            else:
                # The router already validated and sized the batch;
                # counts are known without acks, so posting (under the
                # in-flight credits) is the whole job.  The window
                # counts runs; with no window a sub-batch weighs 1.
                for shard, (local_ids, shard_items) in enumerate(per_shard):
                    if len(local_ids) == 0:
                        continue  # no events for this hub: no frame
                    weight = (
                        _run_count(local_ids) if self.window is not None
                        else 1
                    )
                    self._group.post(
                        shard, weight, "ingest", local_ids, shard_items
                    )
                    self.coalesced_runs.observe(weight)
        self.elements_processed += total
        return total

    def fence(self) -> None:
        """Drain outstanding relaxed batches (no-op in lockstep mode).

        Every read/checkpoint/registry operation fences implicitly (a
        merged read once per fan-out round: 1 or 2, see
        :mod:`repro.shard.merge`);
        call this to surface deferred ingest errors at a point of your
        choosing (e.g. at the end of a load phase).
        """
        pending = self._group.pending
        if pending:
            with self.spans.span("fence", pending_commands=pending):
                self._group.collect()

    def ingest_stream(self, stream: Iterable, batch_size: int = 8192) -> int:
        """Drain an iterable of ``(site_id, item)`` pairs in batches."""
        return sum(
            self.ingest(site_ids, items)
            for site_ids, items in batches_from_stream(stream, batch_size)
        )

    # -- queries -----------------------------------------------------------

    def query(self, name: str, method: Optional[str] = None, *args, **kwargs):
        """Run a merged cross-shard query on one job.

        Additive queries (``estimate``, ``estimate_total``,
        ``estimate_rank``, ``estimate_frequency`` and the default query)
        sum per-shard answers; ``quantile``, ``heavy_hitters`` and
        ``top_items`` run the candidate-union merges.  Anything else
        raises :class:`UnmergeableQueryError` — reach one hub's full
        surface with :meth:`query_shard`.
        """
        view = self.job(name)
        if self.num_shards == 1:
            # Degenerate partition: the single hub *is* the service, so
            # its entire query surface is available unmerged.
            _, result = self._group.map(
                "query", [(name, method, args, kwargs)]
            )[0]
            return result

        rounds = 0

        def fanout(sub_queries):
            # One round: one command to every hub and one fenced reply
            # back, however many sub-queries it carries — several ride
            # the hub's ``multi`` command, one goes as the plain
            # ``query`` it is (no wrapper to encode and unwrap).
            nonlocal rounds
            rounds += 1
            queries = [
                (name, sub_method, sub_args, sub_kwargs)
                for sub_method, sub_args, sub_kwargs in sub_queries
            ]
            if len(queries) == 1:
                replies = self._group.map("query", queries * self.num_shards)
                return [[reply] for reply in replies]
            commands = [("query", query) for query in queries]
            return self._group.map(
                "multi", [(commands,)] * self.num_shards
            )

        started = time.perf_counter()
        with self.spans.span(
            "merge",
            job=name,
            method=method or "default",
            shards=self.num_shards,
        ) as attrs:
            def observe(size):
                self.merge_candidates.observe(size)
                attrs["candidates"] = size

            try:
                result = merged_query(
                    fanout, view.problem, method, args, kwargs,
                    observe_candidates=observe,
                )
            except AttributeError as exc:
                if method not in ("quantile", "heavy_hitters", "top_items"):
                    raise
                # The hubs refused a merge hook, not the caller's
                # method: say what the caller can do about it.
                raise UnmergeableQueryError(
                    f"job {name!r} ({view.scheme.name}) cannot answer "
                    f"{method!r} across shards: {exc}; mergeable methods: "
                    f"{list(MERGEABLE_METHODS)}"
                ) from None
            finally:
                self.merge_fanouts.observe(rounds)
                attrs["fanouts"] = rounds
        self.merge_latency.observe(time.perf_counter() - started)
        return result

    def query_shard(self, shard: int, name: str,
                    method: Optional[str] = None, *args, **kwargs):
        """Run a query on one shard hub only (its full query surface)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        self._checked(name)
        _, result = self._group.call(
            shard, "query", name, method, args, kwargs
        )
        return result

    def error_bound(self, name: str) -> dict:
        """Composed additive error accounting for one job's merges.

        ``bound`` is ``epsilon * n_total`` — identical to the unsharded
        guarantee; see :func:`repro.shard.merge.composed_error_bound`.
        """
        view = self.job(name)
        epsilon = getattr(view.scheme, "epsilon", None)
        if epsilon is None:
            raise ValueError(
                f"job {name!r} scheme {view.scheme.name!r} has no epsilon"
            )
        shard_elements = self._group.map(
            "elements", [()] * self.num_shards
        )
        return composed_error_bound(epsilon, shard_elements)

    # -- budgets -----------------------------------------------------------

    def has_space_budgets(self) -> bool:
        """True when any registered job carries a space budget."""
        return any(
            view.space_budget_words is not None
            for view in self._jobs.values()
        )

    def space_overages(self) -> dict:
        """Jobs whose high-water site space exceeds their budget.

        The per-job overage is evaluated on every shard hub and the
        worst shard reported, mirroring the unsharded semantics (the
        budget bounds any single site's footprint).
        """
        merged: dict = {}
        for shard_overages in self._group.map(
            "space_overages", [()] * self.num_shards
        ):
            for job_name, info in shard_overages.items():
                current = merged.get(job_name)
                if current is None or info["used"] > current["used"]:
                    merged[job_name] = info
        return merged

    # -- status ------------------------------------------------------------

    def _hub_reports(self) -> list:
        """Every hub's ``hub_stats`` self-report, in shard order: one
        fan-out, which fences outstanding relaxed batches first."""
        return self._group.map("hub_stats", [()] * self.num_shards)

    def _merged_jobs(self, reports: list) -> dict:
        """Per-job ledgers merged across hub reports: ``comm`` and
        dropped uplinks sum; site ``space`` takes the worst shard's max
        and the mean of means, coordinator words sum.  ``shard_space``
        keeps each hub's own marks, in shard order."""
        merged: dict = {}
        for name in self._jobs:
            per_shard = [report["jobs"][name] for report in reports]
            spaces = [job["space"] for job in per_shard]
            merged[name] = {
                "comm": _sum_dicts([job["comm"] for job in per_shard]),
                "dropped_uplink_messages": sum(
                    job["dropped_uplink_messages"] for job in per_shard
                ),
                "space": {
                    "max_site_words": max(
                        space["max_site_words"] for space in spaces
                    ),
                    "mean_site_words": sum(
                        space["mean_site_words"] for space in spaces
                    ) / len(spaces),
                    "coordinator_words": sum(
                        space["coordinator_words"] for space in spaces
                    ),
                },
                "shard_space": spaces,
            }
        return merged

    def status(self) -> dict:
        """Fleet snapshot: merged per-job ledgers + per-shard detail.

        Each job's ``space`` is the pods-style resource triple: the
        budget as ``total``, the merged marks as ``used``, and
        ``available = total - used.max_site_words`` when a budget is
        set.  ``accuracy.estimate`` is the job's merged default query
        (None for a job without a mergeable one).
        """
        reports = self._hub_reports()
        merged = self._merged_jobs(reports)
        jobs: dict = {}
        for view in self._jobs.values():
            job = merged[view.name]
            used = job["space"]
            budget = view.space_budget_words
            estimate = None
            try:
                estimate = self.query(view.name)
            except (AttributeError, UnmergeableQueryError):
                pass  # jobs without a (mergeable) default query stay None
            jobs[view.name] = {
                "name": view.name,
                "scheme": view.scheme.name,
                "elements": view.elements_processed,
                "comm": job["comm"],
                "dropped_uplink_messages": job["dropped_uplink_messages"],
                "space": {
                    "total": budget,
                    "used": used,
                    "available": (
                        None if budget is None
                        else budget - used["max_site_words"]
                    ),
                },
                "accuracy": {
                    "epsilon": getattr(view.scheme, "epsilon", None),
                    "estimate": estimate,
                },
            }
        return {
            "sites": self.num_sites,
            "shards": self.num_shards,
            "executor": self.executor,
            "relaxed": self.relaxed,
            "dispatch_mode": self.dispatch_mode,
            "window": self.window,
            "per_site_depth": self.per_site_depth,
            "one_way": self.one_way,
            "uplink_drop_rate": self.uplink_drop_rate,
            "elements": self.elements_processed,
            "comm": _sum_dicts([report["comm"] for report in reports]),
            "jobs": jobs,
            "shard_detail": [
                {
                    "shard": shard,
                    "sites": self.router.shard_size(shard),
                    "elements": report["elements"],
                    "comm": report["comm"],
                }
                for shard, report in enumerate(reports)
            ],
        }

    def collect_spans(self) -> list:
        """Drain every hub's span buffer (cross-process trace stitching).

        Hub-side ``ingest`` spans are recorded wherever the hub lives —
        another thread, a subprocess, a remote ``repro hub`` actor —
        and buffered there; this fans the ``collect_spans`` command out
        (fencing outstanding relaxed batches like any collecting call)
        and returns the union, each span annotated with its shard
        index.  Draining means a span is shipped exactly once; the
        caller (the gateway's ``/v1/trace``) retains what it needs.

        Collection is best-effort per hub: a dead shard's buffered
        spans are unreachable anyway, and the trace surface must stay
        readable while the fleet plane is reporting that hub ``down``
        (the alert exemplar points here) — so unreachable hubs are
        skipped rather than failing the whole fan-out.
        """
        collected: list = []
        for shard, backend in enumerate(self._group.backends):
            try:
                spans = backend.dispatch_run("collect_spans")
            except Exception:
                continue
            for span in spans or ():
                span["shard"] = shard
                collected.append(span)
        return collected

    def metrics_sample(self) -> dict:
        """Fleet telemetry: merged totals plus per-shard detail.

        Reads the same hub self-reports as :meth:`status` (no query
        evaluation anywhere), so the gateway's scrape path sees remote
        hubs' engine/WAL/space numbers.
        """
        reports = self._hub_reports()
        merged = self._merged_jobs(reports)
        jobs: dict = {}
        for view in self._jobs.values():
            job = merged[view.name]
            jobs[view.name] = {
                "elements": view.elements_processed,
                "comm": job["comm"],
                "space": job["space"],
                "budget": view.space_budget_words,
                "shards": [
                    {"shard": shard, "space": space}
                    for shard, space in enumerate(job["shard_space"])
                ],
            }
        return {
            "elements": self.elements_processed,
            "engine": _sum_dicts([report["engine"] for report in reports]),
            "comm": _sum_dicts([report["comm"] for report in reports]),
            "wal_bytes": sum(report["wal_bytes"] for report in reports),
            "wal_records": sum(report["wal_records"] for report in reports),
            "jobs": jobs,
            "shards": [
                {
                    "shard": shard,
                    "elements": report["elements"],
                    "wal_bytes": report["wal_bytes"],
                }
                for shard, report in enumerate(reports)
            ],
        }

    def register_metrics(self, registry, sample) -> None:
        """Declare the service, shard-merge and exec-plane families on
        ``registry``; ``sample()`` supplies :meth:`metrics_sample` at
        scrape time (a frontend may pass a cached one).  Histograms are
        this facade's own instruments, attached; plain counters are
        mirrored by a collector."""
        register_service_metrics(registry, sample)
        for name, help_text, buckets, instrument in (
            ("repro_shard_merge_seconds",
             "Cross-shard query merge latency (fan-out included).",
             DEFAULT_BUCKETS, self.merge_latency),
            ("repro_shard_merge_candidates",
             "Candidate-union sizes of quantile/heavy-hitter/top-k "
             "merges.",
             SIZE_BUCKETS, self.merge_candidates),
            ("repro_shard_merge_fanouts",
             "Fan-out rounds (one fenced round trip to every hub "
             "each) per merged query.",
             SIZE_BUCKETS, self.merge_fanouts),
            # windowed relaxed dispatch: docs/relaxed-mode.md, "Windowing"
            ("repro_exec_coalesced_runs_per_frame",
             "Run weight of each windowed sub-batch command posted "
             "to a shard hub (runs riding one frame).",
             SIZE_BUCKETS, self.coalesced_runs),
        ):
            registry.histogram(name, help_text, buckets=buckets).attach(
                (), instrument
            )
        for shard, backend in enumerate(self._group.backends):
            backend.register_metrics(registry, shard)
        registry.gauge(
            "repro_exec_pending_commands",
            "Commands posted to shard hubs but not collected (the "
            "pending-fence depth).",
        ).set_function(lambda: self.pending_commands)
        registry.gauge(
            "repro_exec_inflight_runs",
            "Runs posted under the relaxed window but not yet "
            "collected.",
        ).set_function(self.inflight_runs)
        window_stalls = registry.counter(
            "repro_exec_window_stalls_total",
            "Posts that collected an in-flight reply to free "
            "window credit before proceeding.",
        )

        def collect() -> None:
            window_stalls.labels().value = float(
                self.dispatch_stats()["window_stalls"]
            )

        registry.register_collector(collect)

    def fleet_targets(self, lock) -> list:
        """The fleet plane's poll targets: one per shard hub.

        Each poll posts ``hub_stats`` down the hub's command pipe under
        ``lock`` (the frontend's ingest lock) — the pipes are FIFO and
        not safe against interleaved dispatch, so polls queue behind
        ingest rounds exactly like scrapes and status reads do — and
        reads the fleet record out of that report.  The dispatch mode
        is this facade's: hubs do not know how they are posted to.
        """
        def target(shard, backend):
            def poll() -> dict:
                with lock:
                    report = backend.dispatch_run("hub_stats")
                return _fleet_record(report)

            return FleetTarget(
                str(shard),
                poll,
                address=backend.address,
                pending=lambda: backend.pending,
                dispatch_mode=self.dispatch_mode,
            )

        return [
            target(shard, backend)
            for shard, backend in enumerate(self._group.backends)
        ]

    # -- persistence -------------------------------------------------------

    def checkpoint(self) -> list:
        """Snapshot every shard hub; returns the per-shard paths."""
        if self._checkpoint_dir is None:
            raise RuntimeError(
                "no checkpoint_dir configured; pass checkpoint_dir= to "
                "ShardedTrackingService"
            )
        return self._group.map("checkpoint", [()] * self.num_shards)

    @classmethod
    def restore(
        cls,
        checkpoint_dir: str,
        executor: str = "inline",
        wal_sync: bool = False,
        hub_addresses: Optional[List[str]] = None,
        relaxed: bool = False,
        window: Optional[int] = None,
        per_site_depth: Optional[int] = None,
    ) -> "ShardedTrackingService":
        """Recover a sharded service from its checkpoint directory.

        Reads ``shards.json``, restores every ``shard-NN/`` bundle
        (snapshot + WAL tail, exactly like a single service), and
        rebuilds the facade's job views from the recovered hubs.  With
        ``executor="cluster"`` the bundles are restored *on the hub
        hosts* (paths are resolved on their filesystem), so remote
        shard hubs recover in place behind the same facade.

        A directory without ``shards.json`` is one
        :class:`~repro.service.TrackingService`'s own bundle (what
        ``TrackingService(checkpoint_dir=...)`` writes, and what
        ``repro serve`` wrote before it ran this facade): it resumes as
        a one-shard layout whose hub recovers the directory in place,
        with the manifest fields taken from its newest snapshot's
        ``config``.  Nothing is rewritten, so the directory stays a
        single-service bundle.
        """
        path = os.path.join(checkpoint_dir, _MANIFEST)
        try:
            with open(path) as f:
                manifest = json.load(f)
        except FileNotFoundError:
            state = latest_snapshot(checkpoint_dir)
            if state is None:
                raise FileNotFoundError(
                    f"no shard manifest or snapshot under "
                    f"{checkpoint_dir!r}; nothing to restore"
                ) from None
            manifest = dict(state["config"], num_shards=1)
            bundles = [checkpoint_dir]
        else:
            if manifest.get("format") != _MANIFEST_FORMAT:
                raise ValueError(
                    f"unsupported shard manifest format "
                    f"{manifest.get('format')!r} in {path!r}"
                )
            bundles = [
                cls._shard_dir(checkpoint_dir, shard)
                for shard in range(manifest["num_shards"])
            ]
        return cls(
            num_sites=manifest["num_sites"],
            num_shards=manifest["num_shards"],
            seed=manifest["seed"],
            one_way=manifest["one_way"],
            uplink_drop_rate=manifest["uplink_drop_rate"],
            space_budget_words=manifest["space_budget_words"],
            checkpoint_dir=checkpoint_dir,
            wal_sync=wal_sync,
            executor=executor,
            hub_addresses=hub_addresses,
            relaxed=relaxed,
            window=window,
            per_site_depth=per_site_depth,
            _restore=bundles,
        )

    def _rebuild_from_shards(self) -> None:
        """Reconstruct job views and counters from restored hubs.

        One ``multi`` round trip per hub (manifest + element counter
        together), posted to every hub before collecting from any, so
        placed hubs answer concurrently.
        """
        for backend in self._group.backends:
            backend.submit_many([("job_manifest", ()), ("elements", ())])
        replies = [
            backend.drain()[-1] for backend in self._group.backends
        ]
        manifests = [reply[0] for reply in replies]
        totals = [reply[1] for reply in replies]
        self.elements_processed = sum(totals)
        for entry in manifests[0]:
            per_shard_elements = sum(
                next(
                    e["elements"]
                    for e in shard_manifest
                    if e["name"] == entry["name"]
                )
                for shard_manifest in manifests
            )
            # The per-shard job seed of shard 0 equals the facade-level
            # resolved seed only when num_shards == 1; reconstruct the
            # facade seed where possible, else keep shard 0's (views
            # only report it).
            self._jobs[entry["name"]] = ShardJobView(
                entry["name"],
                entry["scheme"],
                entry["seed"],
                entry["space_budget_words"],
                self,
                elements_offset=self.elements_processed
                - per_shard_elements,
            )

    @property
    def backends(self) -> list:
        """The per-shard exec backends, in shard order.

        Each carries its part of the exec plane's telemetry: a
        ``latency`` histogram (submit-to-collect, i.e. the relaxed
        in-flight window) and a ``pending`` count.
        """
        return list(self._group.backends)

    @property
    def pending_commands(self) -> int:
        """Commands posted but not collected (the pending-fence gauge)."""
        return self._group.pending

    @property
    def checkpoint_dir(self) -> Optional[str]:
        return self._checkpoint_dir

    def close(self) -> None:
        """Shut down every hub (and worker/host) cleanly."""
        self._group.close()

    def topology(self) -> str:
        """The fleet layout in one operator-facing phrase: sites,
        shards, hub placement and the dispatch mode with its bounds."""
        mode = self.executor
        dispatch = self.dispatch_mode
        if dispatch != "lockstep":
            mode += f", {dispatch}"
            if dispatch == "windowed":
                bounds = []
                if self.window is not None:
                    bounds.append(f"window={self.window}")
                if self.per_site_depth is not None:
                    bounds.append(f"depth={self.per_site_depth}")
                mode += f" ({', '.join(bounds)})"
        return f"k={self.num_sites}, shards={self.num_shards} ({mode})"

    def __repr__(self) -> str:
        return (
            f"ShardedTrackingService(sites={self.num_sites}, "
            f"shards={self.num_shards}, executor={self.executor!r}, "
            f"jobs={len(self._jobs)}, elements={self.elements_processed})"
        )


def _owned(values):
    """``values`` in its carrier, never the caller's own object."""
    column = as_column(values)
    return column.copy() if column is values else column


def _run_count(site_ids) -> int:
    """Number of maximal same-site stretches in one ordered id array —
    the unit the in-flight ``window`` is accounted in (matching the
    hub-level run decomposition)."""
    if len(site_ids) == 0:
        return 0
    return int(_np.count_nonzero(site_ids[1:] != site_ids[:-1])) + 1


def _fleet_record(report: dict) -> dict:
    """The fleet monitor's view of one hub self-report: counters,
    per-job space used vs. budget, and the hub's capacity totals."""
    jobs = {
        name: {
            "elements": job["elements"],
            "space_words": job["space"]["max_site_words"],
            "space_budget_words": job["budget"],
        }
        for name, job in report["jobs"].items()
    }
    return {
        "heartbeat": report["heartbeat"],
        "elements": report["elements"],
        "rounds": report["engine"]["batches"],
        "site_calls": report["engine"]["site_calls"],
        "jobs": jobs,
        "capacity": space_capacity(
            [job["space_words"] for job in jobs.values()],
            [job["space_budget_words"] for job in jobs.values()],
        ),
        "process": report["process"],
    }


def _sum_dicts(dicts: list) -> dict:
    """Field-wise sum of same-shaped numeric dicts (comm snapshots)."""
    out: dict = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out

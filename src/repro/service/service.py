"""The multi-tenant tracking service.

One :class:`TrackingService` owns a fleet of ``k`` sites and multiplexes
any number of named tracking *jobs* — count, frequency, rank, or any
:class:`~repro.runtime.TrackingScheme` — over it.  Every ingested event
is observed by every job (each job tracks a different function of the
same shared stream), each job keeps its own communication and space
ledgers, and the service aggregates fleet-wide totals.

Typical use::

    service = TrackingService(num_sites=32, seed=7)
    service.register("total", RandomizedCountScheme(epsilon=0.01))
    service.register("p99-latency", RandomizedRankScheme(epsilon=0.01))
    service.ingest(site_ids, items)          # numpy arrays or sequences
    service.query("p99-latency", "quantile", 0.99)
    service.metrics_sample()                 # per-job + fleet ledgers
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..obs.tracing import SpanRecorder, current_trace
from ..runtime import CommStats, TrackingScheme, derive_seed
from .engine import BatchIngestEngine
from .errors import DuplicateJobError, UnknownJobError
from .job import TrackingJob

__all__ = ["TrackingService", "register_service_metrics"]


def register_service_metrics(registry, sample: Callable[[], dict]) -> None:
    """Declare the service layer's families on ``registry`` and bridge
    ``sample()`` into them at every scrape.

    ``sample`` returns the sharded facade's merged
    :meth:`~repro.shard.ShardedTrackingService.metrics_sample`: the
    :meth:`TrackingService.metrics_sample` fields summed over the hubs,
    plus a ``shards`` list of per-shard ``{"shard": ...}`` detail on
    the whole sample (``elements``) and on each job's entry
    (``space``).  Values are assigned, not incremented — the totals are
    owned by the service, so the bridge is idempotent across scrapes.
    """
    elements = registry.counter(
        "repro_service_elements_total",
        "Events applied to the service, all jobs observing each.",
    )
    engine_batches = registry.counter(
        "repro_service_ingest_batches_total",
        "Engine calls (coalesced batches applied).",
    )
    engine_site_calls = registry.counter(
        "repro_service_ingest_site_calls_total",
        "Site on_elements calls the engine made, over all jobs "
        "(elements * jobs / this = mean slice per call).",
    )
    wal_bytes = registry.counter(
        "repro_service_wal_bytes_total",
        "Bytes appended to write-ahead logs (0 without durability).",
    )
    wal_records = registry.counter(
        "repro_service_wal_records_total",
        "Records appended to write-ahead logs.",
    )
    comm_messages = registry.counter(
        "repro_service_comm_messages_total",
        "Protocol messages, fleet-wide, by channel.",
        ["channel"],
    )
    comm_words = registry.counter(
        "repro_service_comm_words_total",
        "Protocol words, fleet-wide, by channel.",
        ["channel"],
    )
    job_elements = registry.counter(
        "repro_service_job_elements_total",
        "Events observed per job.",
        ["job"],
    )
    job_comm_words = registry.counter(
        "repro_service_job_comm_words_total",
        "Protocol words per job (its own ledger).",
        ["job"],
    )
    space_used = registry.gauge(
        "repro_shard_space_used_words",
        "High-water site space per shard and job (max over the "
        "shard's sites).",
        ["shard", "job"],
    )
    space_available = registry.gauge(
        "repro_shard_space_available_words",
        "Budget headroom per shard and job (budgeted jobs only).",
        ["shard", "job"],
    )
    shard_elements = registry.counter(
        "repro_shard_elements_total",
        "Events routed to each shard hub.",
        ["shard"],
    )

    def collect() -> None:
        current = sample()
        elements.labels().value = float(current["elements"])
        engine_batches.labels().value = float(
            current["engine"].get("batches", 0)
        )
        engine_site_calls.labels().value = float(
            current["engine"].get("site_calls", 0)
        )
        wal_bytes.labels().value = float(current["wal_bytes"])
        wal_records.labels().value = float(current["wal_records"])
        for channel in ("uplink", "downlink", "broadcast"):
            comm_messages.labels(channel).value = float(
                current["comm"].get(f"{channel}_messages", 0)
            )
            comm_words.labels(channel).value = float(
                current["comm"].get(f"{channel}_words", 0)
            )
        for name, info in current["jobs"].items():
            job_elements.labels(name).value = float(info["elements"])
            job_comm_words.labels(name).value = float(
                info["comm"].get("total_words", 0)
            )
            budget = info["budget"]
            for entry in info["shards"]:
                shard = str(entry["shard"])
                used = entry["space"]["max_site_words"]
                space_used.labels(shard, name).set(used)
                if budget is not None:
                    space_available.labels(shard, name).set(budget - used)
        for entry in current["shards"]:
            shard_elements.labels(str(entry["shard"])).value = float(
                entry["elements"]
            )

    registry.register_collector(collect)


class TrackingService:
    """A shared site fleet serving many named tracking jobs.

    Parameters
    ----------
    num_sites:
        Fleet size ``k``, shared by every job.
    seed:
        Service root seed.  Each job's protocol seed is derived from it
        and the job name (override per job at :meth:`register`).
    one_way:
        Restrict the shared links to site -> coordinator traffic for all
        jobs (the Theorem 2.2 model).
    uplink_drop_rate:
        Fault injection applied to every job's uplink, with per-job
        independent loss streams derived from the job seed.
    space_sample_interval:
        Elements between full space sweeps during batched ingestion.
    space_budget_words:
        Default per-job site-space budget, checked by
        :meth:`space_overages` and reported as each job's ``budget`` by
        :meth:`metrics_sample` (the facade's ``status()`` turns it into
        the pods-style ``total``/``used``/``available``); None disables.
    checkpoint_dir:
        Enable durability: every ingested batch and job (un)registration
        is written ahead to a segmented WAL under this directory, and
        :meth:`checkpoint` persists full snapshots.  The directory must
        be fresh — resume an existing one with :meth:`restore`.
    wal_sync:
        fsync the WAL on every append.
    """

    def __init__(
        self,
        num_sites: int,
        seed: int = 0,
        one_way: bool = False,
        uplink_drop_rate: float = 0.0,
        space_sample_interval: int = 4096,
        space_budget_words: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        wal_sync: bool = False,
    ):
        if num_sites < 1:
            raise ValueError("need at least one site")
        self.num_sites = num_sites
        self.seed = seed
        self.one_way = one_way
        self.uplink_drop_rate = uplink_drop_rate
        self.space_budget_words = space_budget_words
        self.comm = CommStats()  # fleet-wide aggregate (all jobs)
        self.engine = BatchIngestEngine(space_sample_interval)
        self.elements_processed = 0
        #: span buffer for traced ingests.  Spans are only recorded
        #: while a trace context is active (a gateway round, a hub
        #: command carrying a trace), so untraced hot paths pay one
        #: thread-local read per batch and nothing more.  On shard
        #: hubs the facade drains this via the ``collect_spans``
        #: command.
        self.spans = SpanRecorder()
        self._jobs: Dict[str, TrackingJob] = {}
        self._manager = None  # CheckpointManager when durability is on
        self._wal = None
        self._wal_seq = -1  # last WAL record applied to in-memory state
        self._replaying = False
        if checkpoint_dir is not None:
            from ..persistence.recovery import CheckpointManager  # cycle

            manager = CheckpointManager(checkpoint_dir, sync=wal_sync)
            if manager.has_data():
                manager.close()
                raise ValueError(
                    f"checkpoint dir {checkpoint_dir!r} already holds "
                    "state; resume it with TrackingService.restore(...)"
                )
            self._attach_checkpoints(manager)
            # Initial snapshot: restore() then works even before the
            # first explicit checkpoint (pure-WAL cold replay).
            self.checkpoint()

    # -- job registry ------------------------------------------------------

    def register(
        self,
        name: str,
        scheme: TrackingScheme,
        seed: Optional[int] = None,
        space_budget_words: Optional[int] = None,
    ) -> TrackingJob:
        """Register a named job; returns its :class:`TrackingJob`.

        Raises :class:`DuplicateJobError` if the name is taken.  Jobs
        registered mid-stream only observe events ingested afterwards.
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
        if self._wal is not None and not self._replaying:
            # Write-ahead: the registration is durable before the job
            # exists, so recovery replays it at the same stream position.
            self._wal_seq = self._wal.append_register(
                name, scheme.state_dict(), resolved_seed, resolved_budget
            )
        try:
            job = TrackingJob(
                name,
                scheme,
                self.num_sites,
                resolved_seed,
                one_way=self.one_way,
                uplink_drop_rate=self.uplink_drop_rate,
                mirror=self.comm,
                space_budget_words=resolved_budget,
            )
        except BaseException:
            self._rollback_wal()
            raise
        self._jobs[name] = job
        return job

    def unregister(self, name: str) -> TrackingJob:
        """Remove and return a job; raises :class:`UnknownJobError`."""
        checked = self._checked(name)
        if self._wal is not None and not self._replaying:
            self._wal_seq = self._wal.append_unregister(checked)
        return self._jobs.pop(checked)

    def job(self, name: str) -> TrackingJob:
        """Look up a registered job by name."""
        return self._jobs[self._checked(name)]

    def _checked(self, name: str) -> str:
        if name not in self._jobs:
            raise UnknownJobError(
                f"no job named {name!r}; registered: {sorted(self._jobs)}"
            )
        return name

    @property
    def jobs(self) -> Dict[str, TrackingJob]:
        """Read-only view of the registry (insertion-ordered)."""
        return dict(self._jobs)

    def __contains__(self, name: str) -> bool:
        return name in self._jobs

    def __len__(self) -> int:
        return len(self._jobs)

    def __getitem__(self, name: str) -> TrackingJob:
        return self.job(name)

    # -- ingestion ---------------------------------------------------------

    def ingest(self, site_ids, items=None) -> int:
        """Ingest one ordered batch of events into every registered job.

        ``site_ids`` is a numpy integer array or sequence of site ids;
        ``items`` the matching payloads (None means the unit item, for
        count-style streams).  The batch is viewed by run and by site
        once and delivered to each job (whole per-site slices inside
        quiet stretches, arrival-order runs otherwise) — transcripts are
        identical to per-event driving with the same seeds.  Returns the
        batch size.

        With ``checkpoint_dir`` enabled the batch is appended to the WAL
        *before* any job observes it (write-ahead), so a crash at any
        point either replays the whole batch on recovery or none of it.
        """
        if self._wal is not None and not self._replaying:
            self._wal_seq = self._wal.append_batch(site_ids, items)
        try:
            if current_trace() is not None:
                with self.spans.span(
                    "ingest", events=len(site_ids), jobs=len(self._jobs)
                ):
                    n = self.engine.ingest(
                        self._jobs.values(), site_ids, items
                    )
            else:
                n = self.engine.ingest(self._jobs.values(), site_ids, items)
        except BaseException:
            # A logged-but-unappliable batch (bad site id, hostile item)
            # must not survive to poison every future restore.  The
            # in-memory stacks may be part-driven — same caveat as a
            # non-durable service whose ingest raised — but the durable
            # log stays consistent.
            self._rollback_wal()
            raise
        self.elements_processed += n
        return n

    # -- queries -----------------------------------------------------------

    def query(self, name: str, method: Optional[str] = None, *args, **kwargs):
        """Run a coordinator query on one job (see :meth:`TrackingJob.query`)."""
        return self.job(name).query(method, *args, **kwargs)

    def metrics_sample(self) -> dict:
        """One flat, JSON-safe sample of the service's ledgers.

        No query evaluation — a scrape must never run estimators — but
        each job's space high-water marks are refreshed with a sweep, so
        used/available words are current.  This is the body of the hub
        self-report (:func:`repro.exec.workers.hub_stats`) that the
        shard facade fans out and merges for its ``status()``, its
        ``metrics_sample()`` and the fleet monitor.
        """
        jobs = {}
        for name, job in self._jobs.items():
            job.sample_space()
            jobs[name] = {
                "elements": job.elements_processed,
                "comm": job.comm.as_metrics(),
                "dropped_uplink_messages": (
                    job.network.dropped_uplink_messages
                ),
                "space": job.space.as_metrics(),
                "budget": job.space_budget_words,
            }
        wal = self._wal
        return {
            "elements": self.elements_processed,
            "engine": dict(self.engine.stats),
            "comm": self.comm.as_metrics(),
            "wal_bytes": 0 if wal is None else wal.bytes_appended,
            "wal_records": 0 if wal is None else wal.records_appended,
            "jobs": jobs,
        }

    # -- budgets -----------------------------------------------------------

    def space_overages(self) -> dict:
        """Jobs whose high-water site space exceeds their budget.

        Reads the engine's sampled high-water marks without a fresh
        sweep, so it is O(jobs) and safe on a hot path; enforcement
        therefore lags a budget breach by at most one
        ``space_sample_interval`` of events.
        """
        out = {}
        for name, job in self._jobs.items():
            budget = job.space_budget_words
            if budget is None:
                continue
            used = job.space.max_site_words
            if used > budget:
                out[name] = {"used": used, "budget": budget}
        return out

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict:
        """Full-service snapshot: config, ledgers, every job's stack.

        The result is JSON-serializable and versioned (see
        :mod:`repro.persistence.snapshot` for the file envelope).
        :meth:`from_state` rebuilds a service that continues the exact
        transcript — same messages, same RNG draws, same query answers.
        """
        from ..persistence.codec import object_state  # deferred: cycle

        return {
            "config": {
                "num_sites": self.num_sites,
                "seed": self.seed,
                "one_way": self.one_way,
                "uplink_drop_rate": self.uplink_drop_rate,
                "space_sample_interval": self.engine.space_sample_interval,
                "space_budget_words": self.space_budget_words,
            },
            "elements_processed": self.elements_processed,
            "wal_seq": self._wal_seq,
            "comm": object_state(self.comm),
            "jobs": [job.state_dict() for job in self._jobs.values()],
        }

    @classmethod
    def from_state(cls, state: dict) -> "TrackingService":
        """Rebuild a service from :meth:`state_dict` output (in memory).

        The returned service has no checkpoint directory attached; the
        recovery manager wires one up after WAL replay.
        """
        from ..persistence.codec import decode_value, load_object_state

        config = state["config"]
        service = cls(
            num_sites=config["num_sites"],
            seed=config["seed"],
            one_way=config["one_way"],
            uplink_drop_rate=config["uplink_drop_rate"],
            space_sample_interval=config["space_sample_interval"],
            space_budget_words=config["space_budget_words"],
        )
        service.elements_processed = state["elements_processed"]
        service._wal_seq = state.get("wal_seq", -1)
        load_object_state(service.comm, state["comm"])
        for job_state in state["jobs"]:
            job = service.register(
                job_state["name"],
                decode_value(job_state["scheme"]),
                seed=job_state["seed"],
                space_budget_words=job_state["space_budget_words"],
            )
            job.load_state_dict(job_state)
        return service

    def checkpoint(self) -> str:
        """Write a snapshot, prune covered WAL segments; returns the path.

        Requires ``checkpoint_dir``.  After a checkpoint, recovery cost
        is one snapshot load plus only the WAL tail written since.
        """
        if self._manager is None:
            raise RuntimeError(
                "no checkpoint_dir configured; pass checkpoint_dir= to "
                "TrackingService or use state_dict() for in-memory snapshots"
            )
        return self._manager.save(self)

    @classmethod
    def restore(
        cls, checkpoint_dir: str, wal_sync: bool = False
    ) -> "TrackingService":
        """Recover a service from a checkpoint directory.

        Loads the newest snapshot, replays the WAL tail through the
        batched engine, and resumes durable logging to the same
        directory.  The result is transcript-identical to a service that
        never died.
        """
        from ..persistence.recovery import restore_service  # cycle

        return restore_service(checkpoint_dir, sync=wal_sync)

    def _attach_checkpoints(self, manager) -> None:
        """Adopt a recovery manager (post-construction wiring)."""
        self._manager = manager
        self._wal = manager.wal

    def _rollback_wal(self) -> None:
        """Undo the write-ahead record of a mutation whose apply failed."""
        if self._wal is not None and not self._replaying:
            self._wal.rollback_last()
            self._wal_seq -= 1

    def close(self) -> None:
        """Release the WAL file handle (no-op without durability)."""
        if self._manager is not None:
            self._manager.close()

    def __repr__(self) -> str:
        return (
            f"TrackingService(sites={self.num_sites}, jobs={len(self._jobs)}, "
            f"elements={self.elements_processed})"
        )

"""The hub worker and its command table.

A *worker* is the stateful object an :class:`~repro.exec.ExecBackend`
hosts; a *command table* maps operation names to plain functions
``fn(worker, *args)`` that run wherever the worker lives (the caller's
process, a subprocess, a ``repro hub`` actor).  One kind exists:

``hub``
    One full :class:`~repro.service.TrackingService` — engine, per-job
    ledgers, optional WAL+snapshot bundle.  This is the shard hub the
    sharded service places N of.

A hub reports on itself through one command, ``hub_stats``
(:func:`hub_stats`): the facade's ``status()`` and ``metrics_sample()``
and the gateway's fleet monitor all read that one report, so it is
defined once, here.  What a hub does not know — the dispatch mode its
facade posts under — the facade states itself.

Specs are plain dicts — ``{"kind": ..., "config": {...}}`` — so they
cross process boundaries by pickle and TCP boundaries through the
snapshot codec unchanged.
"""

from __future__ import annotations

import os

from .base import ExecError

__all__ = [
    "HUB_KIND",
    "build_worker",
    "close_worker",
    "worker_commands",
    "restore_spec",
    "hub_spec",
    "hub_stats",
]

HUB_KIND = "hub"


def hub_spec(config: dict) -> dict:
    """A hub-worker spec from a :class:`TrackingService` config dict."""
    return {"kind": HUB_KIND, "config": dict(config)}


def _hub_config(spec: dict) -> dict:
    """A spec's config dict; an unknown ``kind`` is an :class:`ExecError`."""
    if spec.get("kind", HUB_KIND) != HUB_KIND:
        raise ExecError(f"unknown worker kind {spec.get('kind')!r}")
    return dict(spec.get("config") or {})


def build_worker(spec: dict):
    """Build the worker a spec describes (runs on the worker's side)."""
    return _build_hub(_hub_config(spec))


def worker_commands(spec: dict) -> dict:
    """The command table for a spec's worker kind."""
    _hub_config(spec)
    return HUB_COMMANDS


def close_worker(worker) -> None:
    """Release a worker's resources (WAL handles)."""
    worker.close()


def restore_spec(spec: dict) -> dict:
    """The spec that rebuilds a worker from its durable source.

    Hub workers with a ``checkpoint_dir`` (or already built via
    ``restore_from``) recover from their bundle; one without has no
    durable source and raises :class:`ExecError`.
    """
    config = _hub_config(spec)
    source = config.get("restore_from") or config.get("checkpoint_dir")
    if not source:
        raise ExecError(
            "worker has no checkpoint_dir; nothing to restore from"
        )
    return hub_spec(
        {"restore_from": source, "wal_sync": config.get("wal_sync", False)}
    )


# -- hub workers -----------------------------------------------------------


def _build_hub(config: dict):
    from ..service import TrackingService  # deferred: service layer

    if config.get("restore_from"):
        return TrackingService.restore(
            config["restore_from"],
            wal_sync=config.get("wal_sync", False),
        )
    return TrackingService(
        **{k: v for k, v in config.items() if k != "restore_from"}
    )


def _hub_register(service, name, scheme, seed, budget):
    service.register(name, scheme, seed=seed, space_budget_words=budget)
    return True


def _hub_unregister(service, name):
    service.unregister(name)
    return True


def _hub_ingest(service, site_ids, items):
    if site_ids is None or len(site_ids) == 0:
        return 0
    return service.ingest(site_ids, items)


def _hub_query(service, name, method, args, kwargs):
    from ..service.job import resolve_query  # deferred: service layer

    job = service.job(name)
    fn = resolve_query(job.coordinator, method)
    return fn.__name__, fn(*args, **kwargs)


def _hub_space_overages(service):
    return service.space_overages()


def _hub_job_manifest(service):
    """Everything a facade needs to rebuild its job views on restore."""
    return [
        {
            "name": job.name,
            "scheme": job.scheme,
            "seed": job.seed,
            "space_budget_words": job.space_budget_words,
            "elements": job.elements_processed,
        }
        for job in service.jobs.values()
    ]


def _hub_checkpoint(service):
    return service.checkpoint()


def _hub_elements(service):
    return service.elements_processed


def _hub_collect_spans(service):
    """Drain the hub's span buffer (return-and-clear).

    The facade fans this out so `/v1/trace` can stitch hub-side spans
    (recorded in another process or on another machine) into the
    gateway's cross-process trace view; draining keeps a span from
    being shipped twice.
    """
    spans = getattr(service, "spans", None)
    return spans.drain() if spans is not None else []


def hub_stats(service) -> dict:
    """The hub's one self-report.

    :meth:`~repro.service.TrackingService.metrics_sample` (element,
    engine, WAL and communication counters; per job its elements,
    ``comm``, ``dropped_uplink_messages``, swept ``space`` high-water
    marks and ``budget``) plus ``heartbeat``, the number of reports
    this hub has served — a restart shows up as the sequence going
    backwards — and ``process``, the hub process's footprint
    (RSS/fds/uptime via :func:`~repro.obs.process.process_stats`).
    Like ``collect_spans`` it answers identically from every placement
    of the hub kind — in-process, subprocess, or a ``repro hub`` actor
    on another machine.  No query runs: a scrape or a heartbeat must
    never evaluate an estimator.
    """
    from ..obs.process import process_stats  # deferred: keep import light

    seq = getattr(service, "_hub_heartbeat_seq", 0) + 1
    service._hub_heartbeat_seq = seq
    report = service.metrics_sample()
    report["heartbeat"] = seq
    report["process"] = process_stats()
    return report


def _make_multi(table):
    """A ``multi`` command over ``table``: run ``(op, args)`` pairs in
    order, reply once with the list of results.  One round trip where a
    lockstep caller would pay one per command (see
    :meth:`~repro.exec.ExecBackend.submit_many`)."""

    def _multi(worker, commands):
        return [table[op](worker, *args) for op, args in commands]

    return _multi


def _hub_ping(service):
    return True


def _hub_crash(service):
    """Failure injection: die without replying (process workers only).

    Exercises the dead-pipe collect path — a worker that vanishes
    between receiving a command and acking it.  On an in-process
    backend this kills the caller, which is exactly what colocating a
    hub with its driver means; only post it to process workers.
    """
    os._exit(13)


HUB_COMMANDS = {
    "register": _hub_register,
    "unregister": _hub_unregister,
    "ingest": _hub_ingest,
    "query": _hub_query,
    "space_overages": _hub_space_overages,
    "job_manifest": _hub_job_manifest,
    "checkpoint": _hub_checkpoint,
    "elements": _hub_elements,
    "collect_spans": _hub_collect_spans,
    "hub_stats": hub_stats,
    "ping": _hub_ping,
    "crash": _hub_crash,
}
HUB_COMMANDS["multi"] = _make_multi(HUB_COMMANDS)

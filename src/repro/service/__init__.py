"""Multi-tenant tracking service: many named jobs over one shared fleet.

This package turns the single-scheme simulator into a service:
:class:`TrackingService` owns ``k`` sites and a job registry; callers
register named tracking jobs (any :class:`~repro.runtime.TrackingScheme`),
push events through the batched ingestion engine, and read per-job
communication/space/accuracy snapshots through the query API.

Components:

* :class:`TrackingService` — registry, ingestion and query front-end.
* :class:`TrackingJob` — one registered scheme instance with its own
  coordinator, site handlers and ledgers.
* :class:`BatchIngestEngine` — view-once, drive-many batched hot
  path shared with :meth:`Simulation.run_batched`.
* :class:`DuplicateJobError` / :class:`UnknownJobError` — registry errors.

Durability is one constructor argument away:
``TrackingService(checkpoint_dir=...)`` write-ahead-logs every batch and
registration, ``service.checkpoint()`` snapshots the full protocol
state, and ``TrackingService.restore(dir)`` rebuilds a crashed service
transcript-identically (see :mod:`repro.persistence`).
"""

from .async_ingest import AsyncBatchIngestor, IngestorClosedError
from .engine import BatchIngestEngine
from .errors import DuplicateJobError, ServiceError, UnknownJobError
from .job import TrackingJob
from .jobspec import SCHEMES, parse_job_spec
from .service import TrackingService

__all__ = [
    "AsyncBatchIngestor",
    "BatchIngestEngine",
    "DuplicateJobError",
    "IngestorClosedError",
    "SCHEMES",
    "ServiceError",
    "TrackingJob",
    "TrackingService",
    "UnknownJobError",
    "parse_job_spec",
]

"""Batched ingestion engine: one batch view, many jobs.

The engine is the service's hot path.  An incoming batch of events is
viewed by run and by site *once* (:class:`~repro.runtime.SiteBatch`,
numpy-accelerated), and that view is delivered to every registered job
through the execution plane's shared
:func:`~repro.exec.dispatch.drive_batch` loop — the same loop behind
:meth:`Simulation.run_batched`, so a job driven by the engine produces a
transcript identical to a standalone simulation with the same seed.

Amortization over the per-event loop comes from three places: the batch
view is shared across all jobs; a site that states a quiet horizon (the
count trackers and the randomized frequency and rank trackers — see
:meth:`Site.quiet_horizon`) takes every element the batch holds for it
in one Python call, however the sites interleave, and any other site one
call per arrival-order run, each through a transcript-identical inlined
:meth:`Site.on_elements` where the scheme has one — closed forms for
deterministic count, one shared intake per chunk tree for rank; and
space sampling happens per interval instead of per event.
"""

from __future__ import annotations

from ..exec.dispatch import drive_batch
from ..runtime.batching import SiteBatch

__all__ = ["BatchIngestEngine"]


class BatchIngestEngine:
    """Drives event batches into job protocol stacks.

    Parameters
    ----------
    space_sample_interval:
        Full space sweeps are taken every this many ingested elements per
        job (a measurement-cost knob; comm ledgers are always exact).
    """

    def __init__(self, space_sample_interval: int = 4096):
        self.space_sample_interval = max(1, space_sample_interval)
        #: plain counters read by the observability plane at scrape
        #: time (three dict adds per batch — nothing per event).
        #: ``site_calls`` counts ``on_elements`` calls over all jobs, so
        #: ``events * jobs / site_calls`` is the mean slice a site takes
        #: per call: the run length where every job drives live, about
        #: batch size / sites where quiet stretches are engaged.
        self.stats = {"batches": 0, "events": 0, "site_calls": 0}

    def ingest(self, jobs, site_ids, items=None) -> int:
        """View the batch once, drive every job; returns batch size."""
        batch = SiteBatch(site_ids, items)
        calls = 0
        for job in jobs:
            calls += drive_batch(job, batch, self.space_sample_interval)
        self.stats["batches"] += 1
        self.stats["events"] += batch.n
        self.stats["site_calls"] += calls
        return batch.n

#!/usr/bin/env python3
"""Multi-tenant tracking service: one fleet, many concurrent jobs.

A production-shaped scenario: a fleet of k collector sites receives a
multi-tenant event stream (several sources, skewed across sites, arriving
in per-source micro-batches).  One ShardedTrackingService (a single
inline shard here; pass num_shards= to partition the fleet) multiplexes
four named jobs over that single fleet — total event count, a coarse
lower-bound count, per-tenant heavy hitters, and the stream median —
each with its own communication/space ledger, all fed through the
batched ingestion engine in one pass.

Usage:  python examples/multi_tenant_service.py
"""

from repro import (
    DeterministicCountScheme,
    RandomizedCountScheme,
    RandomizedFrequencyScheme,
    RandomizedRankScheme,
    ShardedTrackingService,
)
from repro.analysis import render_table
from repro.workloads import multi_tenant

SITES = 24
EVENTS = 150_000
TENANTS = 6
BURST = 64


def main() -> None:
    service = ShardedTrackingService(num_sites=SITES, seed=11)
    service.register("events-total", RandomizedCountScheme(epsilon=0.01))
    service.register("events-floor", DeterministicCountScheme(epsilon=0.05))
    service.register("hot-values", RandomizedFrequencyScheme(epsilon=0.03))
    service.register("value-median", RandomizedRankScheme(epsilon=0.05))

    stream = multi_tenant(
        EVENTS, SITES, tenants=TENANTS, burst=BURST, seed=3, labeled=False
    )
    ingested = service.ingest_stream(stream, batch_size=16_384)

    status = service.status()
    rows = []
    for name, job in status["jobs"].items():
        rows.append(
            [
                name,
                job["scheme"],
                job["comm"]["total_messages"],
                job["comm"]["total_words"],
                job["space"]["used"]["max_site_words"],
            ]
        )
    print(
        render_table(
            ["job", "scheme", "messages", "words", "site space"],
            rows,
            title=(
                f"Multi-tenant service: {ingested:,} events, "
                f"k={SITES}, {len(status['jobs'])} jobs"
            ),
        )
    )

    total = service.query("events-total")
    floor = service.query("events-floor")
    median = service.query("value-median", "quantile", 0.5)
    top = service.query("hot-values", "top_items", 3)
    print(f"\nestimated total:  {total:,.0f}  (true: {EVENTS:,})")
    print(f"guaranteed floor: {floor:,.0f}")
    print(f"median value:     {median}")
    print("top values:       " + ", ".join(f"{v} (~{c:.0f})" for v, c in top))
    agg = status["comm"]
    print(
        f"fleet aggregate:  {agg['total_messages']:,} messages, "
        f"{agg['total_words']:,} words across all jobs"
    )


if __name__ == "__main__":
    main()

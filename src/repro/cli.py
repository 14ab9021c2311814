"""Command-line runner: simulate any scheme on any workload.

Examples::

    python -m repro count --scheme randomized -k 64 -n 100000 --eps 0.01
    python -m repro frequency --scheme deterministic --workload zipf
    python -m repro rank --scheme sampling --workload sorted -n 50000
    python -m repro count --compare          # all count schemes, one table
    python -m repro serve -k 32 -n 500000    # multi-tenant service demo
    python -m repro gateway --listen :8791   # HTTP/JSON query gateway
    python -m repro site --listen :9200      # a TCP site-actor host
    python -m repro query http://host:8791 total   # query a gateway
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

from . import Simulation, TrackingService
from .analysis import render_table
from .service import ServiceError
from .service.jobspec import SCHEMES, parse_job_spec
from .workloads import (
    bursty_sites,
    multi_tenant,
    random_permutation_values,
    round_robin,
    single_site,
    skewed_sites,
    sorted_values,
    timestamped,
    uniform_sites,
    with_items,
    zipf_items,
)

ARRIVALS = {
    "uniform": lambda n, k, seed: uniform_sites(n, k, seed=seed),
    "round-robin": lambda n, k, seed: round_robin(n, k),
    "single-site": lambda n, k, seed: single_site(n, k, site_id=0),
    "skewed": lambda n, k, seed: skewed_sites(n, k, alpha=1.2, seed=seed),
    "bursty": lambda n, k, seed: bursty_sites(n, k, burst=200, seed=seed),
}

#: day/night cycle length (in stream time units) of the timestamped
#: stream driven under window jobs; a constant so --resume continues
#: the same clock regardless of -n
WINDOW_PERIOD = 20_000.0

#: demo job set for ``repro serve`` when no --job flags are given
DEFAULT_SERVE_JOBS = (
    "events=count/randomized:0.01",
    "events-lb=count/deterministic:0.02",
    "hot-items=frequency/randomized:0.05",
    "hot-items-lb=frequency/deterministic:0.05",
    "median=rank/randomized:0.05",
)

SERVICE_EPILOG = """\
service:
  `repro serve` runs the multi-tenant tracking service: one shared fleet
  of -k sites, many named jobs ingesting the same multi-tenant stream
  through the batched engine.  Each job is NAME=PROBLEM/SCHEME[:EPS],
  e.g.

    repro serve -k 32 -n 500000 --job total=count/randomized:0.01 \\
        --job p50=rank/randomized:0.05 --job hh=frequency/randomized:0.05

  Sliding-window jobs use PROBLEM `window:W` (W in time units, scheme
  `count`), e.g. --job lastmin=window:60000/count:0.05; with a window
  job registered the stream's items become non-decreasing timestamps.

  Without --job flags a demo job set covering all three problems is
  registered.  --tenants/--burst shape the multi-tenant workload,
  --batch sets the ingestion batch size.  The final table reports each
  job's own communication/space ledgers plus the fleet-wide aggregate.

durability:
  --checkpoint-dir arms the write-ahead log and snapshots; --checkpoint-every
  N checkpoints mid-stream every N events.  After a crash (or to continue
  a finished run), `repro serve --checkpoint-dir DIR --resume` restores
  the newest snapshot, replays the WAL tail and ingests only the
  remainder of the stream.  `repro restore --checkpoint-dir DIR` recovers
  and prints the service state without ingesting anything.

distributed:
  `repro gateway --listen HOST:PORT` serves the tracking service over
  HTTP/JSON (register/ingest/query/status endpoints with a bounded,
  coalescing ingest queue); `--shards N` partitions the fleet across N
  shard-local ingest hubs (worker processes by default) with queries
  merged across shards, `--shard-workers cluster --hub HOST:PORT`
  places each hub on a `repro hub` TCP actor (remote shard hubs behind
  one gateway), `--relaxed` pipelines ingest dispatch across hubs, and
  `--ingest-rate`/`--space-budget`/`--api-keys-file` enforce quotas and
  per-tenant auth as HTTP 429/413/401+403, and `--alert-rules FILE`
  routes threshold/metric alert transitions (with cross-process trace
  exemplars) to webhook/exec/logfile sinks.  `repro site --listen
  HOST:PORT` runs a TCP site-actor host for distributed scheme runs
  (repro.net.Cluster); `repro hub --listen HOST:PORT` hosts shard hubs;
  `repro query URL JOB [METHOD] [ARG...]` queries a running gateway and
  pretty-prints the JSON answer; `repro metrics URL [--watch N]`
  scrapes its metrics; `repro fleet URL [--watch N]` shows the hub
  fleet's liveness + capacity from GET /v1/fleet.  Each subcommand has
  its own --help.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed tracking simulator (PODS 2012 reproduction)",
        epilog=SERVICE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "problem",
        choices=sorted(SCHEMES) + ["serve", "restore"],
        help=(
            "which function to track, `serve` for the multi-tenant "
            "service, or `restore` to recover one from --checkpoint-dir"
        ),
    )
    parser.add_argument(
        "--scheme",
        default="randomized",
        help="scheme name (see --list-schemes), default: randomized",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="run every scheme for the problem and print one table",
    )
    parser.add_argument("-n", type=int, default=100_000, help="stream length")
    parser.add_argument("-k", type=int, default=25, help="number of sites")
    parser.add_argument("--eps", type=float, default=0.02, help="error target")
    parser.add_argument(
        "--workload",
        default="uniform",
        choices=sorted(ARRIVALS) + ["zipf", "sorted", "permutation"],
        help="arrival pattern (count) or item law (frequency/rank)",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--list-schemes", action="store_true", help="list schemes and exit"
    )
    serve = parser.add_argument_group("serve options")
    serve.add_argument(
        "--job",
        action="append",
        metavar="NAME=PROBLEM/SCHEME[:EPS]",
        help="register a named job (repeatable); default: a demo job set",
    )
    serve.add_argument(
        "--batch", type=int, default=8192, help="ingestion batch size"
    )
    serve.add_argument(
        "--tenants", type=int, default=4, help="multi-tenant sub-streams"
    )
    serve.add_argument(
        "--burst", type=int, default=64, help="per-source micro-batch length"
    )
    durability = parser.add_argument_group("durability options")
    durability.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="write-ahead log + snapshots under DIR (serve), or the "
        "directory to recover (restore)",
    )
    durability.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        help="snapshot every N ingested events (serve; default: end only)",
    )
    durability.add_argument(
        "--resume",
        action="store_true",
        help="recover --checkpoint-dir and ingest only the stream remainder",
    )
    return parser


def _problem_of(job) -> str:
    """Problem family from a scheme's table name (``count/...`` etc.)."""
    return job.scheme.name.split("/", 1)[0]


def _service_rows(service, problems):
    """Per-job result rows plus the fleet-total row for the status table."""
    status = service.status()
    rows = []
    for name, job in status["jobs"].items():
        problem = problems.get(name) or _problem_of(service.job(name))
        if problem == "frequency":
            top = service.query(name, "top_items", 1)
            result = f"top: {top[0][0]}" if top else "-"
        elif problem == "rank":
            # An empty rank summary has no candidate values to search.
            if job["elements"] > 0:
                result = f"p50: {service.query(name, 'quantile', 0.5)}"
            else:
                result = "-"
        else:
            estimate = job["accuracy"]["estimate"]
            prefix = "win: " if problem == "window" else ""
            result = "-" if estimate is None else f"{prefix}{estimate:.0f}"
        rows.append(
            [
                name,
                job["scheme"],
                job["comm"]["total_messages"],
                job["comm"]["total_words"],
                job["space"]["used"]["max_site_words"],
                result,
            ]
        )
    agg = status["comm"]
    rows.append(
        [
            "(fleet total)",
            f"{len(status['jobs'])} jobs",
            agg["total_messages"],
            agg["total_words"],
            "",
            "",
        ]
    )
    return rows, status


def run_serve(args) -> int:
    """The `repro serve` subcommand: a multi-tenant service demo."""
    # multi_tenant raises lazily (generator), so validate its knobs here
    # to fail with a clean message like every other bad flag.
    for flag, value in (("--batch", args.batch), ("--tenants", args.tenants),
                        ("--burst", args.burst)):
        if value < 1:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 2
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            print("error: --checkpoint-every must be positive", file=sys.stderr)
            return 2
        if not args.checkpoint_dir:
            print(
                "error: --checkpoint-every requires --checkpoint-dir",
                file=sys.stderr,
            )
            return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    problems = {}
    try:
        if args.resume:
            service = TrackingService.restore(args.checkpoint_dir)
            # Restored jobs come back with their schemes; --job flags may
            # add new jobs but never clobber recovered ones.
            for spec in args.job or []:
                name, problem, scheme = parse_job_spec(spec, args.eps)
                if name not in service:
                    service.register(name, scheme)
                    problems[name] = problem
                # An existing job keeps its restored scheme; its problem
                # family is re-derived from that scheme, not the spec.
        else:
            service = TrackingService(
                num_sites=args.k,
                seed=args.seed,
                checkpoint_dir=args.checkpoint_dir,
            )
            for spec in args.job or list(DEFAULT_SERVE_JOBS):
                name, problem, scheme = parse_job_spec(spec, args.eps)
                service.register(name, scheme)
                problems[name] = problem
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The stream is regenerated from the SERVICE's seed and fleet size —
    # on --resume those come from the snapshot, so forgetting --seed or
    # -k cannot silently continue a different stream (workload-shape
    # flags --tenants/--burst must still match the original run).
    stream = multi_tenant(
        args.n,
        service.num_sites,
        tenants=args.tenants,
        burst=args.burst,
        seed=service.seed,
        labeled=False,
    )
    has_window = any(
        _problem_of(job) == "window" for job in service.jobs.values()
    )
    if has_window:
        # Window trackers read items as their clock: swap the payloads
        # for non-decreasing timestamps with day/night rate cycles.  The
        # period is a constant (not derived from -n) so a --resume run
        # with a longer stream continues the exact same clock.
        stream = timestamped(stream, seed=service.seed, period=WINDOW_PERIOD)
    skip = service.elements_processed if args.resume else 0
    if skip:
        stream = itertools.islice(stream, skip, None)
    start = time.perf_counter()
    total = service.ingest_stream(
        stream,
        batch_size=args.batch,
        checkpoint_every=args.checkpoint_every,
    )
    elapsed = time.perf_counter() - start
    if service.checkpoint_dir is not None:
        service.checkpoint()
        service.close()
    rows, status = _service_rows(service, problems)
    durability = (
        f", checkpoints={service.checkpoint_dir}"
        if service.checkpoint_dir is not None
        else ""
    )
    print(
        render_table(
            ["job", "scheme", "messages", "words", "site space", "result"],
            rows,
            title=(
                f"service: k={service.num_sites}, "
                f"n={service.elements_processed:,}, tenants={args.tenants}, "
                f"burst={args.burst}, batch={args.batch}{durability}"
            ),
        )
    )
    rate = total / elapsed if elapsed > 0 else float("inf")
    resumed = f" (resumed past {skip:,})" if skip else ""
    print(
        f"ingested {total:,} events x {len(status['jobs'])} jobs "
        f"in {elapsed:.2f}s ({rate:,.0f} events/s/job){resumed}"
    )
    return 0


def run_restore(args) -> int:
    """The `repro restore` subcommand: recover and report, no ingestion."""
    if not args.checkpoint_dir:
        print("error: restore requires --checkpoint-dir", file=sys.stderr)
        return 2
    try:
        service = TrackingService.restore(args.checkpoint_dir)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows, status = _service_rows(service, {})
    print(
        render_table(
            ["job", "scheme", "messages", "words", "site space", "result"],
            rows,
            title=(
                f"restored service: k={service.num_sites}, "
                f"n={service.elements_processed:,}, "
                f"jobs={len(status['jobs'])}, from {args.checkpoint_dir}"
            ),
        )
    )
    service.close()
    return 0


def make_stream(problem: str, workload: str, n: int, k: int, seed: int):
    """Build the (site, item) stream for the chosen problem/workload."""
    if problem == "count":
        arrivals = ARRIVALS.get(workload, ARRIVALS["uniform"])
        return list(arrivals(n, k, seed))
    if problem == "frequency":
        source = zipf_items(max(10, n // 100), alpha=1.2, seed=seed + 1)
        if workload == "uniform":
            source = zipf_items(max(10, n // 100), alpha=1.2, seed=seed + 1)
        return list(with_items(uniform_sites(n, k, seed=seed), source))
    # rank
    if workload == "sorted":
        values = sorted_values(n)
    else:
        values = random_permutation_values(n, seed=seed + 2)
    sites = [s for s, _ in uniform_sites(n, k, seed=seed)]
    return list(zip(sites, values))


def describe(problem: str, sim: Simulation, n: int) -> list:
    """One summary row for a finished simulation."""
    coordinator = sim.coordinator
    if problem == "count":
        estimate = coordinator.estimate()
        accuracy = f"{abs(estimate - n) / n:.4f}"
    elif problem == "frequency":
        accuracy = f"top item: {coordinator.top_items(1)}"
    else:
        estimate = coordinator.estimate_rank(n // 2)
        accuracy = f"rank(median)={estimate:.0f}"
    return [
        sim.scheme.name,
        sim.comm.total_messages,
        sim.comm.total_words,
        sim.space.max_site_words,
        accuracy,
    ]


def run_gateway(argv) -> int:
    """The `repro gateway` subcommand: HTTP/JSON service frontend."""
    import asyncio

    from .net.gateway import Gateway
    from .net.transport import parse_address

    parser = argparse.ArgumentParser(
        prog="repro gateway",
        description="Serve a multi-tenant tracking service over HTTP/JSON.",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:8791", metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:8791; port 0 = ephemeral)",
    )
    parser.add_argument("-k", type=int, default=16, help="number of sites")
    parser.add_argument("--seed", type=int, default=0, help="service root seed")
    parser.add_argument("--eps", type=float, default=0.02, help="default error target")
    parser.add_argument(
        "--job", action="append", metavar="NAME=PROBLEM/SCHEME[:EPS]",
        help="register a job at startup (repeatable); default: a demo set",
    )
    parser.add_argument(
        "--no-default-jobs", action="store_true",
        help="start with an empty registry (register via POST /v1/jobs)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the fleet across N shard-local ingest hubs; "
        "queries fan out and merge (default 1 = unsharded)",
    )
    parser.add_argument(
        "--shard-workers", default="process",
        choices=["inline", "thread", "process", "cluster"],
        help="how shard hubs execute when --shards > 1 (default: one "
        "worker process per shard, so ingest scales with cores; "
        "'cluster' places each hub on a `repro hub` TCP actor)",
    )
    parser.add_argument(
        "--hub", action="append", metavar="HOST:PORT", dest="hubs",
        help="address of a running `repro hub` host for "
        "--shard-workers cluster (repeatable; hubs are assigned "
        "round-robin; default: self-host one on an ephemeral port)",
    )
    parser.add_argument(
        "--relaxed", action="store_true",
        help="pipelined ingest: post every shard's sub-batch without "
        "waiting for acks (reads/checkpoints fence); per-shard "
        "transcripts — and therefore answers — are unchanged",
    )
    parser.add_argument(
        "--window", type=int, metavar="RUNS",
        help="with --relaxed: bound in-flight dispatch at RUNS runs "
        "total, collecting the oldest ack when posting would exceed "
        "it (flat memory on unbounded streams; default: unbounded)",
    )
    parser.add_argument(
        "--site-depth", type=int, metavar="FRAMES",
        help="with --relaxed: bound each shard hub's pipe at FRAMES "
        "outstanding sub-batch commands (default: unbounded)",
    )
    parser.add_argument(
        "--api-keys-file", metavar="FILE",
        help="enable per-tenant auth: a JSON object mapping API key -> "
        "tenant label; requests then need `Authorization: Bearer KEY` "
        "and ingest rate buckets are scoped per key",
    )
    parser.add_argument(
        "--alert-rules", metavar="FILE",
        help="enable alert routing: a JSON manifest of delivery sinks "
        "(webhook/exec/logfile) and rules (threshold/metrics/"
        "error_bound/fleet predicates with for/rearm durations); "
        "transitions land on the sinks and GET /v1/alerts",
    )
    parser.add_argument(
        "--fleet-interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between fleet heartbeat polls to every shard hub "
        "(GET /v1/fleet, repro_fleet_* metrics, fleet alert rules; "
        "default 2)",
    )
    parser.add_argument(
        "--queue-events", type=int, default=1 << 16,
        help="ingest queue bound, in events (backpressure threshold)",
    )
    parser.add_argument(
        "--coalesce-events", type=int, default=8192,
        help="max events merged into one engine call",
    )
    parser.add_argument(
        "--ingest-rate", type=float, metavar="EVENTS_PER_S",
        help="quota: reject ingest above this rate with HTTP 429 "
        "(default: unlimited)",
    )
    parser.add_argument(
        "--ingest-burst", type=int, metavar="EVENTS",
        help="token-bucket burst for --ingest-rate "
        "(default: one queue capacity)",
    )
    parser.add_argument(
        "--space-budget", type=int, metavar="WORDS",
        help="default per-job site-space budget; jobs over budget turn "
        "further ingests into HTTP 413",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="arm durability (WAL + snapshots) under DIR",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="restore --checkpoint-dir instead of starting fresh",
    )
    args = parser.parse_args(argv)
    for flag, value in (
        ("--queue-events", args.queue_events),
        ("--coalesce-events", args.coalesce_events),
        ("--shards", args.shards),
    ):
        if value < 1:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 2
    if args.ingest_rate is not None and args.ingest_rate <= 0:
        print("error: --ingest-rate must be positive", file=sys.stderr)
        return 2
    if args.fleet_interval <= 0:
        print("error: --fleet-interval must be positive", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.hubs and args.shard_workers != "cluster":
        print(
            "error: --hub requires --shard-workers cluster", file=sys.stderr
        )
        return 2
    if (args.window is not None or args.site_depth is not None) \
            and not args.relaxed:
        print(
            "error: --window/--site-depth require --relaxed",
            file=sys.stderr,
        )
        return 2
    for flag, value in (
        ("--window", args.window), ("--site-depth", args.site_depth)
    ):
        if value is not None and value < 1:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return 2
    api_keys = None
    if args.api_keys_file:
        try:
            with open(args.api_keys_file) as f:
                api_keys = json.load(f)
        except (OSError, ValueError) as exc:
            print(
                f"error: cannot load --api-keys-file: {exc}", file=sys.stderr
            )
            return 2
        if not isinstance(api_keys, dict) or not api_keys:
            print(
                "error: --api-keys-file must hold a non-empty JSON object "
                "mapping key -> tenant",
                file=sys.stderr,
            )
            return 2
    alert_rules = None
    if args.alert_rules:
        try:
            with open(args.alert_rules) as f:
                alert_rules = json.load(f)
        except (OSError, ValueError) as exc:
            print(
                f"error: cannot load --alert-rules: {exc}", file=sys.stderr
            )
            return 2
        try:
            # Validate eagerly (rule/sink schema errors should fail the
            # launch, not the first evaluation round); the gateway
            # builds its own manager from the same manifest.
            from .obs import AlertManager

            AlertManager.from_manifest(alert_rules).close()
        except ValueError as exc:
            print(f"error: --alert-rules: {exc}", file=sys.stderr)
            return 2
    from .shard import ShardedTrackingService

    # --relaxed and cluster workers run on the sharded facade even for a
    # single shard (the identity partition is transcript-identical).
    sharded = (
        args.shards > 1 or args.shard_workers == "cluster" or args.relaxed
    )
    try:
        host, port = parse_address(args.listen)
        if args.resume:
            import os as _os

            if _os.path.exists(
                _os.path.join(args.checkpoint_dir, "shards.json")
            ):
                service = ShardedTrackingService.restore(
                    args.checkpoint_dir,
                    executor=args.shard_workers,
                    hub_addresses=args.hubs,
                    relaxed=args.relaxed,
                    window=args.window,
                    per_site_depth=args.site_depth,
                )
            else:
                # The checkpoint fixes the topology: an unsharded bundle
                # cannot honor hub placement or relaxed dispatch, and
                # silently dropping those flags would leave the operator
                # believing shards run remotely.
                if args.relaxed or args.hubs or args.shard_workers == "cluster":
                    print(
                        "error: --checkpoint-dir holds an unsharded "
                        "checkpoint (no shards.json); --relaxed/--hub/"
                        "--shard-workers cluster cannot apply on --resume",
                        file=sys.stderr,
                    )
                    return 2
                service = TrackingService.restore(args.checkpoint_dir)
            specs = args.job or []
        else:
            if sharded:
                service = ShardedTrackingService(
                    num_sites=args.k,
                    num_shards=args.shards,
                    seed=args.seed,
                    space_budget_words=args.space_budget,
                    checkpoint_dir=args.checkpoint_dir,
                    executor=args.shard_workers,
                    hub_addresses=args.hubs,
                    relaxed=args.relaxed,
                    window=args.window,
                    per_site_depth=args.site_depth,
                )
            else:
                service = TrackingService(
                    num_sites=args.k,
                    seed=args.seed,
                    space_budget_words=args.space_budget,
                    checkpoint_dir=args.checkpoint_dir,
                )
            specs = args.job
            if specs is None and not args.no_default_jobs:
                specs = list(DEFAULT_SERVE_JOBS)
        for spec in specs or []:
            name, _, scheme = parse_job_spec(spec, args.eps)
            if name not in service:
                service.register(name, scheme)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    served = False

    async def serve() -> None:
        nonlocal served
        gateway = Gateway(
            service,
            host=host,
            port=port,
            capacity_events=args.queue_events,
            max_batch_events=args.coalesce_events,
            default_eps=args.eps,
            max_ingest_rate=args.ingest_rate,
            ingest_burst=args.ingest_burst,
            api_keys=api_keys,
            alert_rules=alert_rules,
            fleet_interval=args.fleet_interval,
        )
        await gateway.start()
        served = True
        shard_note = ""
        if hasattr(service, "num_shards"):
            mode = service.executor
            dispatch = getattr(service, "dispatch_mode", "lockstep")
            if dispatch != "lockstep":
                mode += f", {dispatch}"
                if dispatch == "windowed":
                    bounds = []
                    if service.window is not None:
                        bounds.append(f"window={service.window}")
                    if service.per_site_depth is not None:
                        bounds.append(f"depth={service.per_site_depth}")
                    mode += f" ({', '.join(bounds)})"
            shard_note = f", shards={service.num_shards} ({mode})"
        print(
            f"gateway listening on {gateway.url} "
            f"(k={service.num_sites}{shard_note}, "
            f"jobs={sorted(service.jobs)})",
            flush=True,
        )
        try:
            await _until_stopped()
        finally:
            await gateway.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # e.g. the port is already taken
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # One shutdown path for every exit: checkpoint only a service
        # that actually served (its workers are alive), close always.
        if served:
            print("gateway: shutting down", flush=True)
            if service.checkpoint_dir is not None:
                service.checkpoint()
        service.close()
    return 0


async def _until_stopped() -> None:
    """Sleep until SIGTERM/SIGINT (works for shell background jobs too,
    where an inherited SIG_IGN would otherwise swallow SIGINT)."""
    import asyncio
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, OSError, RuntimeError):
            pass  # non-Unix loops: Ctrl-C still lands as KeyboardInterrupt
    await stop.wait()


def _run_host(argv, name, description, make_host, banner="") -> int:
    """`repro site` / `repro hub`: serve one TCP actor host until stopped."""
    import asyncio

    from .net.transport import TcpTransport

    parser = argparse.ArgumentParser(
        prog=f"repro {name}", description=description
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:0 = ephemeral port)",
    )
    args = parser.parse_args(argv)

    async def serve() -> None:
        host = await make_host(TcpTransport(), args.listen).start()
        print(f"{name} host listening on {host.address}{banner}", flush=True)
        try:
            await _until_stopped()
        finally:
            await host.close()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{name} host: shutting down", flush=True)
    return 0


def run_site(argv) -> int:
    """The `repro site` subcommand: a TCP site-actor host."""
    from .net.actors import SiteHost

    return _run_host(
        argv,
        "site",
        "Host site actors over TCP; a coordinator hub "
        "(repro.net.Cluster) connects and spawns its sites here.",
        SiteHost,
    )


def run_hub(argv) -> int:
    """The `repro hub` subcommand: a TCP shard-hub host (exec host)."""
    import platform

    from . import __version__
    from .exec.remote import ExecHost

    return _run_host(
        argv,
        "hub",
        "Host shard-hub workers over TCP; a sharded gateway "
        "(repro gateway --shard-workers cluster --hub HOST:PORT) "
        "places its shard hubs here.",
        ExecHost,
        banner=(
            f" (repro {__version__}, python {platform.python_version()}, "
            "dispatch modes: lockstep/relaxed/windowed)"
        ),
    )


def run_query(argv) -> int:
    """The `repro query` subcommand: hit a gateway, pretty-print JSON."""
    import urllib.error
    import urllib.request

    parser = argparse.ArgumentParser(
        prog="repro query",
        description="Query a job on a running gateway.",
        epilog=(
            "examples: repro query http://127.0.0.1:8791 total | "
            "repro query http://127.0.0.1:8791 median quantile 0.5"
        ),
    )
    parser.add_argument("url", help="gateway base URL, e.g. http://127.0.0.1:8791")
    parser.add_argument("job", help="registered job name")
    parser.add_argument(
        "kind", nargs="?", default=None,
        help="query method (default: the job's default query)",
    )
    parser.add_argument(
        "args", nargs="*",
        help="query arguments (JSON literals; bare words pass as strings)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="give up waiting for the gateway after this long (default 60)",
    )
    parser.add_argument(
        "--api-key", metavar="KEY",
        help="API key for gateways started with --api-keys-file "
        "(sent as `Authorization: Bearer KEY`)",
    )
    args = parser.parse_args(argv)
    if args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2

    from .service.jobspec import parse_query_literal

    body = json.dumps(
        {
            "job": args.job,
            "method": args.kind,
            "args": [parse_query_literal(a) for a in args.args],
        }
    ).encode()
    headers = {"Content-Type": "application/json"}
    if args.api_key:
        headers["Authorization"] = f"Bearer {args.api_key}"
    request = urllib.request.Request(
        args.url.rstrip("/") + "/v1/query",
        data=body,
        headers=headers,
    )
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as response:
            payload = json.load(response)
    except urllib.error.HTTPError as exc:
        try:
            detail = json.load(exc).get("error", "")
        except ValueError:
            detail = ""
        print(f"error: HTTP {exc.code} {exc.reason}: {detail}", file=sys.stderr)
        return 1
    except urllib.error.URLError as exc:
        reason = getattr(exc, "reason", exc)
        if isinstance(reason, ConnectionRefusedError):
            print(
                f"error: connection refused at {args.url} — is the "
                "gateway running? (start one with `repro gateway`)",
                file=sys.stderr,
            )
        elif isinstance(reason, TimeoutError):
            print(
                f"error: gateway at {args.url} did not answer within "
                f"{args.timeout:g}s (raise --timeout?)",
                file=sys.stderr,
            )
        else:
            print(f"error: cannot reach {args.url}: {reason}", file=sys.stderr)
        return 1
    except TimeoutError:
        print(
            f"error: gateway at {args.url} did not answer within "
            f"{args.timeout:g}s (raise --timeout?)",
            file=sys.stderr,
        )
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


class _ScrapeError(RuntimeError):
    """A gateway scrape failed; the message is operator-clean."""


def _scrape_text(url: str, headers: dict, timeout: float) -> str:
    """GET a gateway URL, normalizing every failure mode into
    :class:`_ScrapeError` with a one-line human message (no traceback
    ever reaches a watch loop)."""
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(url, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.read().decode()
    except urllib.error.HTTPError as exc:
        raise _ScrapeError(f"HTTP {exc.code} {exc.reason}") from None
    except (
        urllib.error.URLError,
        http.client.HTTPException,
        TimeoutError,
        OSError,
    ) as exc:
        reason = getattr(exc, "reason", None) or exc
        raise _ScrapeError(f"cannot reach {url}: {reason}") from None


def _watch_loop(header: str, once, interval: float) -> int:
    """Re-render ``once()`` every ``interval`` seconds, forever.

    A dropped gateway connection prints one clean ``connection lost``
    line and keeps retrying with exponential backoff (reset on the
    next successful scrape) — never a traceback, never an exit.
    """
    backoff = interval
    while True:
        print(
            f"\x1b[2J\x1b[H-- {header} (every {interval:g}s, "
            "Ctrl-C to stop)"
        )
        try:
            once()
        except _ScrapeError as exc:
            print(f"connection lost: {exc} -- retrying in {backoff:g}s")
            time.sleep(backoff)
            backoff = min(backoff * 2, max(interval, 30.0))
            continue
        backoff = interval
        time.sleep(interval)


def run_metrics(argv) -> int:
    """The `repro metrics` subcommand: scrape a gateway, pretty-print.

    Reads the Prometheus text exposition from ``GET /metrics`` (open —
    no API key needed) and renders a sorted name/value table, or dumps
    the registry JSON from ``GET /v1/metrics`` with ``--json``.
    ``--watch N`` re-scrapes every N seconds until interrupted; a
    dropped connection prints a one-line notice and retries with
    backoff.
    """
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Scrape and pretty-print a running gateway's metrics.",
        epilog=(
            "examples: repro metrics http://127.0.0.1:8791 | "
            "repro metrics http://127.0.0.1:8791 --watch 2 | "
            "repro metrics http://127.0.0.1:8791 --json"
        ),
    )
    parser.add_argument("url", help="gateway base URL, e.g. http://127.0.0.1:8791")
    parser.add_argument(
        "--json", action="store_true",
        help="dump the registry as JSON (GET /v1/metrics) instead of a table",
    )
    parser.add_argument(
        "--grep", metavar="SUBSTRING",
        help="only show metrics whose name contains SUBSTRING",
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-scrape every SECONDS seconds until interrupted",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="give up waiting for the gateway after this long (default 10)",
    )
    parser.add_argument(
        "--api-key", metavar="KEY",
        help="API key for /v1/metrics on authenticated gateways "
        "(/metrics itself is always open)",
    )
    args = parser.parse_args(argv)
    if args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    if args.watch is not None and args.watch <= 0:
        print("error: --watch must be positive", file=sys.stderr)
        return 2

    base = args.url.rstrip("/")
    path = "/v1/metrics" if args.json else "/metrics"
    headers = {}
    if args.api_key:
        headers["Authorization"] = f"Bearer {args.api_key}"

    def scrape() -> None:
        text = _scrape_text(base + path, headers, args.timeout)
        if args.json:
            payload = json.loads(text)
            if args.grep:
                payload = {
                    name: family
                    for name, family in payload.items()
                    if args.grep in name
                }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return
        rows = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if args.grep and args.grep not in name:
                continue
            rows.append((name, value))
        rows.sort()
        width = max((len(name) for name, _ in rows), default=0)
        for name, value in rows:
            print(f"{name:<{width}}  {value}")

    try:
        if args.watch is None:
            try:
                scrape()
            except _ScrapeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return 0
        return _watch_loop(f"{base}{path}", scrape, args.watch)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # e.g. `repro metrics URL | head`: the reader hung up mid-table.
        # Swap stdout for devnull so the interpreter's exit-time flush
        # does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def run_fleet(argv) -> int:
    """The `repro fleet` subcommand: a gateway's hub-fleet at a glance.

    Renders ``GET /v1/fleet`` as a per-hub table (liveness state,
    heartbeat, last-seen age, RTT, space used vs. budget, overcommit
    ratio) followed by the newest fleet events.  ``--watch N`` re-polls
    every N seconds with the same reconnect/backoff behavior as
    ``repro metrics --watch``.
    """
    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="Show a gateway's shard-hub fleet: liveness + capacity.",
        epilog=(
            "examples: repro fleet http://127.0.0.1:8791 | "
            "repro fleet http://127.0.0.1:8791 --watch 2"
        ),
    )
    parser.add_argument("url", help="gateway base URL, e.g. http://127.0.0.1:8791")
    parser.add_argument(
        "--json", action="store_true",
        help="dump the raw /v1/fleet snapshot as JSON",
    )
    parser.add_argument(
        "--events", type=int, default=8, metavar="N",
        help="show the newest N fleet events under the table (default 8)",
    )
    parser.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-poll every SECONDS seconds until interrupted",
    )
    parser.add_argument(
        "--timeout", type=float, default=10.0, metavar="SECONDS",
        help="give up waiting for the gateway after this long (default 10)",
    )
    parser.add_argument(
        "--api-key", metavar="KEY",
        help="API key for authenticated gateways",
    )
    args = parser.parse_args(argv)
    if args.timeout <= 0:
        print("error: --timeout must be positive", file=sys.stderr)
        return 2
    if args.watch is not None and args.watch <= 0:
        print("error: --watch must be positive", file=sys.stderr)
        return 2
    if args.events < 0:
        print("error: --events must be >= 0", file=sys.stderr)
        return 2

    base = args.url.rstrip("/")
    headers = {}
    if args.api_key:
        headers["Authorization"] = f"Bearer {args.api_key}"

    def fmt(value, spec="", missing="-"):
        return format(value, spec) if value is not None else missing

    def show() -> None:
        snap = json.loads(
            _scrape_text(base + "/v1/fleet", headers, args.timeout)
        )
        if args.json:
            print(json.dumps(snap, indent=2, sort_keys=True))
            return
        rows = []
        for hub in snap["hubs"]:
            capacity = hub.get("capacity") or {}
            rtt = hub.get("rtt_ms") or {}
            budget = capacity.get("budget_words")
            rows.append([
                hub["hub"],
                hub["state"],
                str(hub["heartbeat"]),
                fmt(hub.get("last_seen_s"), ".1f") + "s",
                fmt(rtt.get("last"), ".1f") + "ms",
                f"{capacity.get('used_words', 0) or 0:,}"
                + (f" / {budget:,}" if budget is not None else ""),
                fmt(capacity.get("ratio"), ".1%"),
                fmt(hub.get("elements"), ","),
                fmt(hub.get("pending")),
            ])
        states = snap["states"]
        print(render_table(
            ["hub", "state", "beat", "seen", "rtt", "space", "used",
             "elements", "pending"],
            rows,
            title=(
                f"fleet @ {base}: "
                + ", ".join(
                    f"{n} {s}" for s, n in states.items() if n
                )
                + f" (poll every {snap['interval_s']:g}s)"
            ),
        ))
        if args.events:
            events = json.loads(_scrape_text(
                f"{base}/v1/fleet/events?limit={args.events}",
                headers, args.timeout,
            ))["events"]
            for event in events:
                stamp = time.strftime(
                    "%H:%M:%S", time.localtime(event["at"])
                )
                detail = f" ({event['detail']})" if event.get("detail") else ""
                print(
                    f"  {stamp} hub {event['hub']}: {event['event']} "
                    f"[{event['from']} -> {event['state']}]"
                    f"{detail} trace={event.get('trace_id')}"
                )

    try:
        if args.watch is None:
            try:
                show()
            except _ScrapeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return 0
        return _watch_loop(f"{base}/v1/fleet", show, args.watch)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


_NET_SUBCOMMANDS = {
    "gateway": run_gateway,
    "site": run_site,
    "hub": run_hub,
    "query": run_query,
    "metrics": run_metrics,
    "fleet": run_fleet,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _NET_SUBCOMMANDS:
        return _NET_SUBCOMMANDS[argv[0]](argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.problem == "serve":
        return run_serve(args)
    if args.problem == "restore":
        return run_restore(args)
    schemes = SCHEMES[args.problem]
    if args.list_schemes:
        for name in sorted(schemes):
            print(name)
        return 0
    if not args.compare and args.scheme not in schemes:
        parser.error(
            f"unknown scheme {args.scheme!r} for {args.problem} "
            f"(choose from {sorted(schemes)})"
        )

    stream = make_stream(args.problem, args.workload, args.n, args.k, args.seed)
    chosen = sorted(schemes) if args.compare else [args.scheme]
    rows = []
    for name in chosen:
        scheme = schemes[name](args.eps)
        sim = Simulation(scheme, args.k, seed=args.seed)
        sim.run(stream)
        rows.append(describe(args.problem, sim, args.n))
    print(
        render_table(
            ["scheme", "messages", "words", "site space", "result"],
            rows,
            title=(
                f"{args.problem}: n={args.n:,}, k={args.k}, eps={args.eps}, "
                f"workload={args.workload}"
            ),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

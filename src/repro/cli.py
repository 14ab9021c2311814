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

``query``, ``metrics`` and ``fleet`` are clients of a running gateway's
route table (:attr:`repro.net.gateway.Gateway._ROUTES`) and share one
HTTP client here: :func:`_parse_client` (their common flags),
:func:`_request` (every failure becomes one clean line) and
:func:`_run_client` (once or ``--watch``; exit codes).  ``serve``,
``restore`` and ``gateway`` build or recover their service through
:func:`_open_service`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time

from . import ShardedTrackingService, Simulation
from .analysis import render_table
from .runtime.batching import batches_from_stream
from .service import ServiceError
from .service.jobspec import SCHEMES, parse_job_spec, parse_query_literal
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


def _print_service_table(service, problems, title) -> None:
    """The status table: one row per job (``problems`` names the family
    of jobs registered by spec; the rest derive it from their scheme)
    plus the fleet-total row."""
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
    print(
        render_table(
            ["job", "scheme", "messages", "words", "site space", "result"],
            rows,
            title=title,
        )
    )


class _UsageError(Exception):
    """Operator input a subcommand refuses; the message names the flag."""


def _subcommand(run):
    """Entry point of one subcommand: a :class:`_UsageError` raised
    anywhere below becomes its one ``error:`` line and exit 2."""

    @functools.wraps(run)
    def entry(argv) -> int:
        try:
            return run(argv)
        except _UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    return entry


def _open_service(open_service, specs, eps, keep_registered):
    """Build or restore a service, then register ``specs`` on it.

    ``open_service()`` returns the fresh or recovered service.  With
    ``keep_registered`` a spec naming a job the service already has is
    skipped — a recovered job keeps its restored scheme (and its problem
    family is re-derived from that scheme, not the spec); without it
    the clash is the registry's error.  Returns ``(service, {name:
    problem})`` for the jobs registered here; a bad spec or a missing
    checkpoint is a :class:`_UsageError`.
    """
    problems = {}
    try:
        service = open_service()
        for spec in specs:
            name, problem, scheme = parse_job_spec(spec, eps)
            if keep_registered and name in service:
                continue
            service.register(name, scheme)
            problems[name] = problem
    except (FileNotFoundError, ValueError, ServiceError) as exc:
        raise _UsageError(exc) from None
    return service, problems


@_subcommand
def run_serve(args) -> int:
    """The `repro serve` subcommand: a multi-tenant service demo."""
    # multi_tenant raises lazily (generator), so validate its knobs here
    # to fail with a clean message like every other bad flag.
    for flag, value in (("--batch", args.batch), ("--tenants", args.tenants),
                        ("--burst", args.burst)):
        if value < 1:
            raise _UsageError(f"{flag} must be positive")
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            raise _UsageError("--checkpoint-every must be positive")
        if not args.checkpoint_dir:
            raise _UsageError("--checkpoint-every requires --checkpoint-dir")
    if args.resume and not args.checkpoint_dir:
        raise _UsageError("--resume requires --checkpoint-dir")
    # One inline shard: the identity partition, transcript-identical to
    # a single service.
    if args.resume:
        service, problems = _open_service(
            lambda: ShardedTrackingService.restore(args.checkpoint_dir),
            args.job or [], args.eps, keep_registered=True,
        )
    else:
        service, problems = _open_service(
            lambda: ShardedTrackingService(
                num_sites=args.k,
                seed=args.seed,
                checkpoint_dir=args.checkpoint_dir,
            ),
            args.job or DEFAULT_SERVE_JOBS, args.eps, keep_registered=False,
        )
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
    total = 0
    next_checkpoint = args.checkpoint_every
    for site_ids, items in batches_from_stream(stream, args.batch):
        total += service.ingest(site_ids, items)
        # Every --checkpoint-every events counted from the start of this
        # run, but only after a full batch: the short one that ends the
        # stream is covered by the final checkpoint below.
        if (
            next_checkpoint is not None
            and total >= next_checkpoint
            and len(site_ids) >= args.batch
        ):
            service.checkpoint()
            next_checkpoint = total + args.checkpoint_every
    elapsed = time.perf_counter() - start
    if service.checkpoint_dir is not None:
        service.checkpoint()
        service.close()
    durability = (
        f", checkpoints={service.checkpoint_dir}"
        if service.checkpoint_dir is not None
        else ""
    )
    _print_service_table(
        service,
        problems,
        f"service: k={service.num_sites}, "
        f"n={service.elements_processed:,}, tenants={args.tenants}, "
        f"burst={args.burst}, batch={args.batch}{durability}",
    )
    rate = total / elapsed if elapsed > 0 else float("inf")
    resumed = f" (resumed past {skip:,})" if skip else ""
    print(
        f"ingested {total:,} events x {len(service)} jobs "
        f"in {elapsed:.2f}s ({rate:,.0f} events/s/job){resumed}"
    )
    return 0


@_subcommand
def run_restore(args) -> int:
    """The `repro restore` subcommand: recover and report, no ingestion."""
    if not args.checkpoint_dir:
        raise _UsageError("restore requires --checkpoint-dir")
    service, _ = _open_service(
        lambda: ShardedTrackingService.restore(args.checkpoint_dir),
        (), args.eps, keep_registered=True,
    )
    _print_service_table(
        service,
        {},
        f"restored service: k={service.num_sites}, "
        f"n={service.elements_processed:,}, "
        f"jobs={len(service)}, from {args.checkpoint_dir}",
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


def _load_json_flag(flag: str, path: str):
    """The JSON document a ``--...-file``-style flag points at; an
    unreadable or malformed one is a usage error naming the flag."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot load {flag}: {exc}") from None


@_subcommand
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
        "--shard-workers",
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
            raise _UsageError(f"{flag} must be positive")
    if args.ingest_rate is not None and args.ingest_rate <= 0:
        raise _UsageError("--ingest-rate must be positive")
    if args.fleet_interval <= 0:
        raise _UsageError("--fleet-interval must be positive")
    if args.resume and not args.checkpoint_dir:
        raise _UsageError("--resume requires --checkpoint-dir")
    if args.hubs and args.shard_workers != "cluster":
        raise _UsageError("--hub requires --shard-workers cluster")
    if (args.window is not None or args.site_depth is not None) \
            and not args.relaxed:
        raise _UsageError("--window/--site-depth require --relaxed")
    for flag, value in (
        ("--window", args.window), ("--site-depth", args.site_depth)
    ):
        if value is not None and value < 1:
            raise _UsageError(f"{flag} must be positive")
    api_keys = alert_rules = None
    if args.api_keys_file:
        api_keys = _load_json_flag("--api-keys-file", args.api_keys_file)
        if not isinstance(api_keys, dict) or not api_keys:
            raise _UsageError(
                "--api-keys-file must hold a non-empty JSON object "
                "mapping key -> tenant"
            )
    if args.alert_rules:
        alert_rules = _load_json_flag("--alert-rules", args.alert_rules)
        # Validate eagerly (rule/sink schema errors should fail the
        # launch, not the first evaluation round); the gateway builds
        # its own manager from the same manifest.
        from .obs import AlertManager

        try:
            AlertManager.from_manifest(alert_rules).close()
        except ValueError as exc:
            raise _UsageError(f"--alert-rules: {exc}") from None
    # One shard is the identity partition (transcript-identical to a
    # single service), so every gateway serves the facade.  Hub
    # placement defaults to a worker process per shard for a partition
    # or a relaxed pipeline, and to inline for one lockstep shard.
    placement = dict(
        executor=args.shard_workers or (
            "process" if args.shards > 1 or args.relaxed else "inline"
        ),
        hub_addresses=args.hubs,
        relaxed=args.relaxed,
        window=args.window,
        per_site_depth=args.site_depth,
    )

    def open_service():
        if args.resume:
            return ShardedTrackingService.restore(
                args.checkpoint_dir, **placement
            )
        return ShardedTrackingService(
            num_sites=args.k,
            num_shards=args.shards,
            seed=args.seed,
            space_budget_words=args.space_budget,
            checkpoint_dir=args.checkpoint_dir,
            **placement,
        )

    specs = args.job or []
    if args.job is None and not (args.resume or args.no_default_jobs):
        specs = DEFAULT_SERVE_JOBS
    try:
        host, port = parse_address(args.listen)
    except ValueError as exc:
        raise _UsageError(exc) from None
    service, _ = _open_service(
        open_service, specs, args.eps, keep_registered=True
    )

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
        print(
            f"gateway listening on {gateway.url} "
            f"({service.topology()}, jobs={sorted(service.jobs)})",
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


class _RequestError(RuntimeError):
    """A gateway request failed; the message is operator-clean."""


def _client_parser(name, description, epilog) -> argparse.ArgumentParser:
    """The parser every gateway-client subcommand starts from."""
    parser = argparse.ArgumentParser(
        prog=f"repro {name}", description=description, epilog=epilog
    )
    parser.add_argument("url", help="gateway base URL, e.g. http://127.0.0.1:8791")
    return parser


def _parse_client(parser, argv, timeout, api_key_help, watch_help=None):
    """Add the flags every client subcommand ends with (``--watch`` when
    ``watch_help`` is given, ``--timeout``, ``--api-key``), parse and
    check them.  Returns the args with ``base`` (the URL sans trailing
    slash) and ``headers`` filled in."""
    if watch_help is not None:
        parser.add_argument(
            "--watch", type=float, default=None, metavar="SECONDS",
            help=watch_help,
        )
    parser.add_argument(
        "--timeout", type=float, default=timeout, metavar="SECONDS",
        help="give up waiting for the gateway after this long "
        f"(default {timeout:g})",
    )
    parser.add_argument("--api-key", metavar="KEY", help=api_key_help)
    args = parser.parse_args(argv)
    if args.timeout <= 0:
        raise _UsageError("--timeout must be positive")
    if watch_help is not None and args.watch is not None and args.watch <= 0:
        raise _UsageError("--watch must be positive")
    args.base = args.url.rstrip("/")
    args.headers = (
        {"Authorization": f"Bearer {args.api_key}"} if args.api_key else {}
    )
    return args


def _request(args, path, body=None, decode=True):
    """One exchange with the gateway at ``args.base``: GET ``path``, or
    POST the JSON-able ``body`` to it.  Returns the decoded JSON answer
    (the raw text with ``decode=False``).  Every failure mode becomes a
    :class:`_RequestError` whose message is one human line — no
    traceback ever reaches an operator or a watch loop."""
    import http.client
    import urllib.error
    import urllib.request

    headers, data = args.headers, None
    if body is not None:
        headers = {**headers, "Content-Type": "application/json"}
        data = json.dumps(body).encode()
    request = urllib.request.Request(
        args.base + path, data=data, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=args.timeout) as response:
            text = response.read().decode()
        return json.loads(text) if decode else text
    except urllib.error.HTTPError as exc:
        try:
            detail = json.load(exc).get("error", "")
        except ValueError:
            detail = ""
        raise _RequestError(
            f"HTTP {exc.code} {exc.reason}" + (f": {detail}" if detail else "")
        ) from None
    except (OSError, http.client.HTTPException, ValueError) as exc:
        reason = getattr(exc, "reason", None) or exc
        if isinstance(reason, ConnectionRefusedError):
            raise _RequestError(
                f"connection refused at {args.base} — is the gateway "
                "running? (start one with `repro gateway`)"
            ) from None
        if isinstance(reason, TimeoutError):
            raise _RequestError(
                f"gateway at {args.base} did not answer within "
                f"{args.timeout:g}s (raise --timeout?)"
            ) from None
        raise _RequestError(f"cannot reach {args.base}: {reason}") from None


def _run_client(once, watch=None, header="") -> int:
    """Run a client subcommand's ``once()`` — one time, or re-rendered
    under ``header`` every ``watch`` seconds — with the exits they all
    share: a failed request is one ``error:`` line and exit 1 (under
    ``--watch`` a ``connection lost`` notice and a retry with
    exponential backoff, reset by the next success — never an exit);
    Ctrl-C and a reader that hung up are exit 0."""
    try:
        if watch is None:
            try:
                once()
            except _RequestError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return 0
        backoff = watch
        while True:
            print(
                f"\x1b[2J\x1b[H-- {header} (every {watch:g}s, "
                "Ctrl-C to stop)"
            )
            try:
                once()
            except _RequestError as exc:
                print(f"connection lost: {exc} -- retrying in {backoff:g}s")
                time.sleep(backoff)
                backoff = min(backoff * 2, max(watch, 30.0))
                continue
            backoff = watch
            time.sleep(watch)
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # e.g. `repro metrics URL | head`: the reader hung up mid-table.
        # Swap stdout for devnull so the interpreter's exit-time flush
        # does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


@_subcommand
def run_query(argv) -> int:
    """The `repro query` subcommand: hit a gateway, pretty-print JSON."""
    parser = _client_parser(
        "query",
        "Query a job on a running gateway.",
        "examples: repro query http://127.0.0.1:8791 total | "
        "repro query http://127.0.0.1:8791 median quantile 0.5",
    )
    parser.add_argument("job", help="registered job name")
    parser.add_argument(
        "kind", nargs="?", default=None,
        help="query method (default: the job's default query)",
    )
    parser.add_argument(
        "args", nargs="*",
        help="query arguments (JSON literals; bare words pass as strings)",
    )
    args = _parse_client(
        parser, argv, 60.0,
        "API key for gateways started with --api-keys-file "
        "(sent as `Authorization: Bearer KEY`)",
    )

    def show() -> None:
        answer = _request(args, "/v1/query", body={
            "job": args.job,
            "method": args.kind,
            "args": [parse_query_literal(a) for a in args.args],
        })
        print(json.dumps(answer, indent=2, sort_keys=True))

    return _run_client(show)


@_subcommand
def run_metrics(argv) -> int:
    """The `repro metrics` subcommand: scrape a gateway, pretty-print.

    Reads the Prometheus text exposition from ``GET /metrics`` (open —
    no API key needed) and renders a sorted name/value table, or dumps
    the registry JSON from ``GET /v1/metrics`` with ``--json``.
    """
    parser = _client_parser(
        "metrics",
        "Scrape and pretty-print a running gateway's metrics.",
        "examples: repro metrics http://127.0.0.1:8791 | "
        "repro metrics http://127.0.0.1:8791 --watch 2 | "
        "repro metrics http://127.0.0.1:8791 --json",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="dump the registry as JSON (GET /v1/metrics) instead of a table",
    )
    parser.add_argument(
        "--grep", metavar="SUBSTRING",
        help="only show metrics whose name contains SUBSTRING",
    )
    args = _parse_client(
        parser, argv, 10.0,
        "API key for /v1/metrics on authenticated gateways "
        "(/metrics itself is always open)",
        watch_help="re-scrape every SECONDS seconds until interrupted",
    )
    path = "/v1/metrics" if args.json else "/metrics"

    def scrape() -> None:
        if args.json:
            payload = _request(args, path)
            if args.grep:
                payload = {
                    name: family
                    for name, family in payload.items()
                    if args.grep in name
                }
            print(json.dumps(payload, indent=2, sort_keys=True))
            return
        rows = []
        for line in _request(args, path, decode=False).splitlines():
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

    return _run_client(scrape, args.watch, f"{args.base}{path}")


@_subcommand
def run_fleet(argv) -> int:
    """The `repro fleet` subcommand: a gateway's hub-fleet at a glance.

    Renders ``GET /v1/fleet`` as a per-hub table (liveness state,
    heartbeat, last-seen age, RTT, space used vs. budget, overcommit
    ratio) followed by the newest fleet events.
    """
    parser = _client_parser(
        "fleet",
        "Show a gateway's shard-hub fleet: liveness + capacity.",
        "examples: repro fleet http://127.0.0.1:8791 | "
        "repro fleet http://127.0.0.1:8791 --watch 2",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="dump the raw /v1/fleet snapshot as JSON",
    )
    parser.add_argument(
        "--events", type=int, default=8, metavar="N",
        help="show the newest N fleet events under the table (default 8)",
    )
    args = _parse_client(
        parser, argv, 10.0, "API key for authenticated gateways",
        watch_help="re-poll every SECONDS seconds until interrupted",
    )
    if args.events < 0:
        raise _UsageError("--events must be >= 0")
    base = args.base

    def fmt(value, spec="", missing="-"):
        return format(value, spec) if value is not None else missing

    def show() -> None:
        snap = _request(args, "/v1/fleet")
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
            events = _request(
                args, f"/v1/fleet/events?limit={args.events}"
            )["events"]
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

    return _run_client(show, args.watch, f"{base}/v1/fleet")


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

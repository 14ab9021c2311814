"""One end-to-end pass over a fresh stack, plus the oracles that judge it.

``service_pass`` drives the deployed gateway stack over HTTP (closed or
open loop); ``proto_pass`` drives the site-actor ``Cluster`` over one
``repro site`` host.  Both return a flat dict of measurements and the
final answers; ``reference_*`` recompute those answers in-process and
``check_pass`` fails the run on any difference.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import threading
import time

from repro.core import DeterministicCountScheme
from repro.net import Cluster
from repro.net.gateway import jsonable
from repro.runtime import Simulation
from repro.service import parse_job_spec
from repro.shard import ShardedTrackingService

from stack import Client, Stack
from workloads import DEFAULT_EPS, NUM_SITES, WARMUP_BODY, Inputs, query_path

#: a run fails when any answer is further than this many eps*n from truth
MAX_REL_ERROR = 2.0
#: proto workload: ``Cluster.ingest`` calls after the last checkpoint,
#: i.e. the WAL tail ``Cluster.restore`` replays (in lockstep)
PROTO_TAIL_CALLS = 2


class OracleError(AssertionError):
    """An answer, count or ledger differs from its reference."""


class Spans:
    """The benchmark's own span recorder: in memory, dumped at the end.

    Disabled (the untraced pass) it hands out null contexts, so the
    difference between the two passes is exactly the recording cost.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, parent=None, trace=None):
        if not self.enabled:
            yield None
            return
        with self._lock:
            index = len(self.spans)
            record = {
                "id": index, "name": name, "parent": parent, "trace": trace,
                "start": time.perf_counter(), "end": None,
            }
            self.spans.append(record)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()


def p50_ms(seconds: list) -> float:
    return statistics.median(seconds) * 1e3


def p99_ms(seconds: list) -> float:
    ordered = sorted(seconds)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))] * 1e3


def register_jobs(service, jobs) -> None:
    for spec in jobs:
        name, _, scheme = parse_job_spec(spec, DEFAULT_EPS)
        service.register(name, scheme)


def _normal(value):
    """A query result as it looks after a trip through the gateway."""
    return json.loads(json.dumps(jsonable(value)))


# -- the deployed service stack --------------------------------------------


def _all_queries(inputs: Inputs) -> list:
    """Every query whose final answer the oracles compare."""
    queries = list(dict.fromkeys(inputs.workload.panel))
    queries += [q[:3] for q in inputs.accuracy_probes]
    return list(dict.fromkeys(queries))


def _refresh(client: Client, panel, spans: Spans, trace) -> None:
    with spans.span("refresh", trace=trace) as parent:
        for job, method, args in panel:
            with spans.span("http.query", parent=parent, trace=trace):
                client.get(query_path(job, method, args))


def _fetch_answers(client: Client, inputs: Inputs) -> dict:
    answers = {}
    for job, method, args in _all_queries(inputs):
        path = query_path(job, method, args)
        reply = client.get(path)
        answers[path] = None if reply is None else reply["result"]
    return answers


def _ledger(status: dict) -> dict:
    return {
        "elements": sum(s["elements"] for s in status["shard_detail"]),
        "comm_msgs": status["comm"]["total_messages"],
        "comm_words": status["comm"]["total_words"],
    }


def _launch_service(stack: Stack, inputs: Inputs) -> tuple:
    """``setup_s``: hubs + gateway up, jobs registered, ``/healthz``
    ready, one warm-up request applied."""
    started = time.perf_counter()
    url = stack.start_service(inputs.seed, list(inputs.workload.jobs))
    client = Client(url)
    client.post("/v1/ingest", WARMUP_BODY)
    return url, client, time.perf_counter() - started


def service_pass(inputs: Inputs, spans: Spans, recover: bool = True) -> dict:
    """Drive the deployed stack once; see the README's metric glossary."""
    workload = inputs.workload
    with Stack() as stack:
        url, writer, elapsed = _launch_service(stack, inputs)
        reader = Client(url)
        out = {"setup_s": elapsed}
        if workload.loop == "open":
            out.update(_open_loop(inputs, writer, reader, spans))
        else:
            out.update(_closed_loop(inputs, writer, reader, spans))
        stack.check_alive()
        out["answers"] = _fetch_answers(reader, inputs)
        out["peak_rss_mb"] = stack.peak_rss_mb()
        if spans.enabled:
            out.update(_live_counters(writer, reader, out.pop("trace_id")))
        clients = [writer, reader]
        if recover:
            stack.kill_children()
            started = time.perf_counter()
            url = stack.start_service(inputs.seed, [], resume=True)
            survivor = Client(url)
            clients.append(survivor)
            _refresh(survivor, workload.panel, spans, "recover")
            out["recover_s"] = time.perf_counter() - started
            out["recovered"] = dict(
                _ledger(survivor.get("/v1/status")),
                answers=_fetch_answers(survivor, inputs),
            )
        out["attempted"] = sum(c.attempted for c in clients)
        out["failures"] = [f for c in clients for f in c.failures]
        out["logs"] = stack.logs()
        for client in clients:
            client.close()
    return out


def _fence(writer: Client, out: dict, events: int, started: float,
           cpu_started: float, spans: Spans) -> None:
    """The fencing read that ends the ingest clock: ``/v1/status``
    answers only once every posted sub-batch has been applied."""
    with spans.span("http.status"):
        status = writer.get("/v1/status")
    elapsed = time.perf_counter() - started
    out["events_per_s"] = events / elapsed
    out["loadgen_cpu_share"] = (time.process_time() - cpu_started) / elapsed
    out.update(_ledger(status))


def _closed_loop(inputs, writer, reader, spans) -> dict:
    out = {}
    latencies = []
    cpu_started = time.process_time()
    started = time.perf_counter()
    with spans.span("phase.ingest"):
        for index, body in enumerate(inputs.bodies):
            sent = time.perf_counter()
            with spans.span("http.ingest", trace=index):
                reply = writer.post("/v1/ingest", body)
            latencies.append(time.perf_counter() - sent)
        _fence(writer, out, inputs.events, started, cpu_started, spans)
    out["trace_id"] = reply and reply["trace_id"]
    out["ingest_s"] = latencies
    out["late_s"] = [0.0]
    refreshes = []
    with spans.span("phase.refresh"):
        for index in range(inputs.refreshes):
            sent = time.perf_counter()
            _refresh(reader, inputs.workload.panel, spans, f"r{index}")
            refreshes.append(time.perf_counter() - sent)
    out["refresh_s"] = refreshes
    return out


def _paced(count: int, rate: float, started: float, operation) -> tuple:
    """Run ``operation(i)`` on a fixed schedule; every latency counts
    from the due time, and lateness is how far behind it was sent."""
    latencies, late = [], []
    for index in range(count):
        due = started + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        late.append(max(0.0, time.perf_counter() - due))
        operation(index)
        latencies.append(time.perf_counter() - due)
    return latencies, late


def _open_loop(inputs, writer, reader, spans) -> dict:
    workload = inputs.workload
    out = {}
    duration = len(inputs.bodies) / workload.pace
    replies = {}

    def ingest(index):
        with spans.span("http.ingest", trace=index):
            replies["last"] = writer.post("/v1/ingest", inputs.bodies[index])

    def refresh(index):
        _refresh(reader, workload.panel, spans, f"r{index}")

    results = {}
    failures = []

    def reads(started):
        try:
            results["refresh"] = _paced(
                round(duration * workload.refresh_rate),
                workload.refresh_rate, started, refresh,
            )
        except BaseException as exc:  # re-raised on the main thread
            failures.append(exc)

    cpu_started = time.process_time()
    started = time.perf_counter()
    thread = threading.Thread(target=reads, args=(started,))
    with spans.span("phase.ingest"):
        thread.start()
        try:
            out["ingest_s"], late = _paced(
                len(inputs.bodies), workload.pace, started, ingest
            )
        finally:
            thread.join()
        if failures:
            raise failures[0]
        _fence(writer, out, inputs.events, started, cpu_started, spans)
    out["refresh_s"], refresh_late = results["refresh"]
    out["late_s"] = late + refresh_late
    out["trace_id"] = replies["last"] and replies["last"]["trace_id"]
    return out


def _live_counters(writer: Client, reader: Client, trace_id) -> dict:
    """What the running stack says about itself after a traced pass."""
    out = {"healthz_queue": writer.get("/healthz")["queue"]}
    scrapes = []
    for _ in range(11):
        sent = time.perf_counter()
        reader.get("/metrics")
        scrapes.append(time.perf_counter() - sent)
    out["scrape_s"] = scrapes
    fetches = []
    for _ in range(5):
        sent = time.perf_counter()
        reader.get(f"/v1/trace?trace_id={trace_id}")
        fetches.append(time.perf_counter() - sent)
    out["trace_fetch_s"] = fetches
    out["registry"] = reader.get("/v1/metrics")
    return out


def reference_service(
    inputs: Inputs, spans: Spans, checkpoint_dir: str = None
) -> dict:
    """The 2-shard inline facade fed the same requests in order: both
    the exact-equality oracle and the ``shard.inline`` rung (which, on
    the waterfall, keeps the WAL the rungs around it carry)."""
    service = ShardedTrackingService(
        num_sites=NUM_SITES, num_shards=2, seed=inputs.seed,
        executor="inline", checkpoint_dir=checkpoint_dir,
    )
    try:
        register_jobs(service, inputs.workload.jobs)
        service.ingest([0], [1])
        started = time.perf_counter()
        with spans.span("shard.inline"):
            for lo, hi in inputs.requests:
                service.ingest(*inputs.columns(lo, hi))
        elapsed = time.perf_counter() - started
        answers = {
            query_path(job, method, args): _normal(
                service.query(job, method, *args)
            )
            for job, method, args in _all_queries(inputs)
        }
        return dict(
            _ledger(service.status()), answers=answers,
            events_per_s=inputs.events / elapsed,
        )
    finally:
        service.close()


# -- the site-actor plane ---------------------------------------------------


def _launch_cluster(stack: Stack, inputs: Inputs) -> tuple:
    started = time.perf_counter()
    cluster = Cluster(
        DeterministicCountScheme(0.01), NUM_SITES, seed=inputs.seed,
        transport="tcp", site_addresses=[stack.start_site_host()],
        relaxed=True, window=64, per_site_depth=2,
        checkpoint_dir=stack.checkpoint_dir(), record_transcript=False,
    )
    cluster.ingest([0])
    return cluster, time.perf_counter() - started


def proto_pass(inputs: Inputs, spans: Spans, recover: bool = True) -> dict:
    """Relaxed windowed ``Cluster`` over one ``repro site`` TCP host.

    The clock covers every call but the last ``PROTO_TAIL_CALLS``; those
    land after a checkpoint, so recovery restores a snapshot *and*
    replays a WAL tail.  (``Cluster.restore`` replays in lockstep, one
    round trip per run: about 40k events/s here, minutes for the whole
    stream.)
    """
    with Stack() as stack:
        cluster, elapsed = _launch_cluster(stack, inputs)
        try:
            out = {"setup_s": elapsed, "late_s": [0.0]}
            timed = inputs.requests[:-PROTO_TAIL_CALLS]
            latencies = []
            cpu_started = time.process_time()
            started = time.perf_counter()
            with spans.span("phase.ingest"):
                for index, (lo, hi) in enumerate(timed):
                    sent = time.perf_counter()
                    with spans.span("cluster.ingest", trace=index):
                        cluster.ingest(inputs.site_ids[lo:hi])
                    latencies.append(time.perf_counter() - sent)
                with spans.span("cluster.query"):
                    cluster.query()
            elapsed = time.perf_counter() - started
            out["events_per_s"] = timed[-1][1] / elapsed
            out["loadgen_cpu_share"] = (
                time.process_time() - cpu_started
            ) / elapsed
            out["ingest_s"] = latencies
            cluster.checkpoint()
            for lo, hi in inputs.requests[-PROTO_TAIL_CALLS:]:
                cluster.ingest(inputs.site_ids[lo:hi])
            refreshes = []
            with spans.span("phase.refresh"):
                for index in range(inputs.refreshes):
                    sent = time.perf_counter()
                    with spans.span("refresh", trace=f"r{index}"):
                        for _ in inputs.workload.panel:
                            cluster.query()
                    refreshes.append(time.perf_counter() - sent)
            out["refresh_s"] = refreshes
            out.update(_cluster_ledger(cluster))
            out["peak_rss_mb"] = stack.peak_rss_mb()
            stack.check_alive()
        finally:
            if recover:
                stack.kill_children()
            cluster.close()
        if recover:
            started = time.perf_counter()
            restored = Cluster.restore(
                stack.checkpoint_dir(), transport="tcp",
                site_addresses=[stack.start_site_host()],
            )
            try:
                for _ in inputs.workload.panel:
                    restored.query()
                out["recover_s"] = time.perf_counter() - started
                out["recovered"] = _cluster_ledger(restored)
            finally:
                restored.close()
        out["logs"] = stack.logs()
    out["attempted"] = len(inputs.requests) + len(refreshes) * len(
        inputs.workload.panel
    )
    out["failures"] = []
    return out


def _cluster_ledger(cluster) -> dict:
    answer = _normal(cluster.query())
    return {
        "elements": cluster.elements_processed,
        "comm_msgs": cluster.comm.total_messages,
        "comm_words": cluster.comm.total_words,
        "answers": {query_path("total-lb", None, ()): answer},
    }


def reference_simulation(inputs: Inputs, spans: Spans) -> dict:
    """``Simulation.run_batched`` over the same stream: the site-actor
    workload's bit-for-bit oracle."""
    sim = Simulation(
        DeterministicCountScheme(0.01), NUM_SITES, seed=inputs.seed
    )
    sim.run_batched([0])
    started = time.perf_counter()
    with spans.span("core.simulation"):
        sim.run_batched(inputs.site_ids[: inputs.events])
    elapsed = time.perf_counter() - started
    return {
        "elements": sim.elements_processed,
        "comm_msgs": sim.comm.total_messages,
        "comm_words": sim.comm.total_words,
        "answers": {
            query_path("total-lb", None, ()): _normal(
                sim.coordinator.estimate()
            )
        },
        "events_per_s": inputs.events / elapsed,
    }


# -- judging a pass ---------------------------------------------------------


def _differences(label: str, expected: dict, observed: dict) -> list:
    problems = []
    for key in ("elements", "comm_msgs", "comm_words"):
        if expected[key] != observed[key]:
            problems.append(
                f"{label}: {key} expected {expected[key]!r}, "
                f"observed {observed[key]!r}"
            )
    for path, answer in expected["answers"].items():
        if observed["answers"].get(path) != answer:
            problems.append(
                f"{label}: {path} expected {answer!r}, "
                f"observed {observed['answers'].get(path)!r}"
            )
    return problems


def max_rel_error(inputs: Inputs, answers: dict) -> tuple:
    """Worst ``|answer - truth| / (eps * n)`` over the accuracy probes,
    and which probe it was."""
    n = inputs.events + 1
    worst, where = 0.0, "-"
    for job, method, args, truth, eps in inputs.accuracy_probes:
        path = query_path(job, method, args)
        answer = answers.get(path)
        if answer is None:
            return float("inf"), f"{path} (no answer)"
        error = abs(float(answer) - truth) / (eps * n)
        if error >= worst:
            worst, where = error, f"{path} answer={answer!r} truth={truth!r}"
    return worst, where


def check_pass(inputs: Inputs, observed: dict, reference: dict) -> float:
    """Raise :class:`OracleError` unless the pass is correct; returns
    ``max_rel_error``."""
    problems = list(observed["failures"])
    if observed["elements"] != inputs.events + 1:
        problems.append(
            f"fencing read reported {observed['elements']} elements, "
            f"sent {inputs.events + 1}"
        )
    problems += _differences("stack vs reference", reference, observed)
    if "recovered" in observed:
        problems += _differences(
            "after SIGKILL + resume", observed, observed["recovered"]
        )
    error, where = max_rel_error(inputs, observed["answers"])
    if error > MAX_REL_ERROR:
        problems.append(
            f"max_rel_error {error:.3f} > {MAX_REL_ERROR} at {where}"
        )
    if problems:
        raise OracleError(
            f"{inputs.workload.name} seed={inputs.seed}:\n  "
            + "\n  ".join(problems) + "\n" + observed["logs"]
        )
    return error

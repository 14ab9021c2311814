"""The measured ladder: HTTP in -> queryable answer out, layer by layer.

    PYTHONPATH=src python benchmarks/ladder/run.py [--seed S] [--workload W]
        [--trials 3] [--traced] [--selfcheck] [--smoke]
    python benchmarks/ladder/run.py --compare A.json B.json

Launches the deployed stack as real processes, drives it from this one
load-generator process, prints every metric by name and unit, verifies
the answers against in-process references and exits non-zero on any
mismatch.  See README.md beside this file for the metric glossary.

The same file is the repo's ``BENCHMARK.json`` command: with
``--workload W --seed S --seconds T --trace 0|1`` it makes one run and
ends its output with one JSON line.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from stack import REPO, RESULTS, SRC, TMP_ROOT, Stack, warm_cpus  # noqa: E402

sys.path.insert(1, SRC)  # ``repro`` comes from the checkout, not an install
import numpy  # noqa: E402

import layers  # noqa: E402
import trial  # noqa: E402
from workloads import BY_NAME, SMOKE_SHRINK, WORKLOADS, generate  # noqa: E402

GIL_SWITCH_SECONDS = 5e-4
#: metrics that must repeat exactly for one (workload, seed, seconds);
#: ``--compare`` reports any difference as CHANGED, not as a percentage
EXACT = ("comm_msgs", "comm_words", "max_rel_error", "failed_share")


def load_spec() -> dict:
    """``BENCHMARK.json``: the one table of names, units and bounds."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


# -- one run ----------------------------------------------------------------


def end_to_end(observed: dict, error: float) -> dict:
    return {
        "setup_s": observed["setup_s"],
        "events_per_s": observed["events_per_s"],
        "ingest_p50_ms": trial.p50_ms(observed["ingest_s"]),
        "refresh_p50_ms": trial.p50_ms(observed["refresh_s"]),
        "recover_s": observed["recover_s"],
        "peak_rss_mb": observed["peak_rss_mb"],
        "comm_msgs": observed["comm_msgs"],
        "comm_words": observed["comm_words"],
        "max_rel_error": error,
        "failed_share": len(observed["failures"]) / observed["attempted"],
    }


def passes_for(workload):
    if workload.loop == "proto":
        return trial.proto_pass, trial.reference_simulation
    return trial.service_pass, trial.reference_service


class TrialSet:
    """One workload's fresh-stack trials on one set of inputs, each
    checked against one reference run; ``metrics`` condenses them."""

    def __init__(self, workload, seed, seconds, trials, shrink):
        self.workload = workload
        self.inputs = generate(workload, seed, seconds / trials, shrink)
        if workload.loop != "proto":
            self.inputs.encode_bodies()
        self.run_pass, reference = passes_for(workload)
        self.expected = reference(self.inputs, trial.Spans(False))
        self.rows: list = []
        self.attempted = 0
        self.failed = 0

    def run_trial(self) -> None:
        print(f"-- {self.workload.name}: trial {len(self.rows) + 1}",
              flush=True)
        observed = self.run_pass(self.inputs, trial.Spans(False))
        error = trial.check_pass(self.inputs, observed, self.expected)
        self.rows.append(end_to_end(observed, error))
        self.attempted += observed["attempted"]
        self.failed += len(observed["failures"])

    def metrics(self, better: dict) -> dict:
        return {
            name: summarize(
                name, [row[name] for row in self.rows], better[name]
            )
            for name in self.rows[0]
        }


def traced_run(workload, seed, seconds, trials, shrink) -> dict:
    """The traced pass: an untraced and a traced end-to-end pass on the
    same inputs (their difference is the tracing overhead), then one
    rung per layer; every per-layer metric plus the waterfall."""
    inputs = generate(workload, seed, seconds / trials, shrink)
    inputs.encode_bodies()
    run_pass, _ = passes_for(workload)
    plain = run_pass(inputs, trial.Spans(False), recover=False)
    spans = trial.Spans(True)
    traced = run_pass(inputs, spans, recover=False)
    m = {}
    # Rungs on this workload's waterfall run the whole stream; the other
    # plane's rungs are boxed (layers.RUNG_SECONDS).
    proto = workload.loop == "proto"
    service_box = layers.RUNG_SECONDS if proto else None
    actor_box = None if proto else layers.RUNG_SECONDS
    os.makedirs(TMP_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
        inline = trial.reference_service(
            inputs, spans, os.path.join(tmp, "inline")
        )
        reference = (
            trial.reference_simulation(inputs, spans) if proto else inline
        )
        error = 0.0
        for observed in (plain, traced):
            error = max(error, trial.check_pass(inputs, observed, reference))
        m["shard.inline_events_per_s"] = inline["events_per_s"]
        core_s = layers.core_rungs(inputs, m, spans)
        layers.runtime_rungs(inputs, m, spans)
        layers.service_rungs(inputs, m, spans, core_s, service_box)
        layers.persistence_rungs(inputs, m, spans, tmp, service_box)
        layers.shard_rungs(inputs, m, spans)
        layers.local_exec_rungs(inputs, m, spans, tmp, service_box)
        layers.codec_rungs(inputs, m, spans)
    with Stack() as stack:
        layers.cluster_exec_rungs(inputs, m, spans, stack, service_box)
        layers.cluster_rungs(inputs, m, spans, stack, actor_box)
    layers.gateway_rung(inputs, m, spans)
    if proto:
        # The site-actor pass has no gateway; a short gateway pass over
        # the same stream supplies the live service counters.
        head = inputs.prefix(inputs.events // 4)
        gateway = trial.service_pass(head, spans, recover=False)
        layers.gateway_counters(gateway, head.events, m)
    else:
        layers.gateway_counters(traced, inputs.events, m)
    rate = plain["events_per_s"]
    m["core.busy_share"] = core_s * rate
    m["net.ingest_p99_ms"] = trial.p99_ms(traced["ingest_s"])
    m["net.refresh_p99_ms"] = trial.p99_ms(traced["refresh_s"])
    m["loadgen.late_p99_ms"] = trial.p99_ms(traced["late_s"])
    m["loadgen.cpu_share"] = traced["loadgen_cpu_share"]
    m["trace.overhead_share"] = 1.0 - traced["events_per_s"] / rate
    m["max_rel_error"] = error
    failures = plain["failures"] + traced["failures"]
    attempted = plain["attempted"] + traced["attempted"]
    m["failed_share"] = len(failures) / attempted
    rungs = layers.PROTO_RUNGS if proto else layers.SERVICE_RUNGS
    trace_path = os.path.join(RESULTS, f"trace-{workload.name}.json")
    with open(trace_path, "w") as f:
        json.dump(spans.spans, f)
    return {
        "metrics": m,
        "attempted": attempted,
        "failed": len(failures),
        "waterfall": layers.waterfall(rungs, m, core_s, rate),
        "samples": {
            "ingest": len(traced["ingest_s"]),
            "refresh": len(traced["refresh_s"]),
        },
        "trace_file": trace_path,
    }


# -- printing ---------------------------------------------------------------


def column(spec: dict, key: str) -> dict:
    """``name -> spec[key]`` over every metric of ``BENCHMARK.json``."""
    return {m["name"]: m[key] for m in spec["end_to_end"] + spec["per_layer"]}


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"\n== {title}")
    for name, value in metrics.items():
        if isinstance(value, dict):  # the trials' figure with their spread
            text = (
                f"{value['value']:.6g}  [median {value['median']:.6g}, "
                f"min {value['min']:.6g}, max {value['max']:.6g}]"
            )
        else:
            text = f"{value:.6g}"
        print(f"  {name:<40} {text} {units[name]}")


def print_waterfall(name: str, result: dict) -> None:
    print(f"\n== {name}: waterfall")
    print(f"  {'rung':<34}{'events/s':>12}{'x below':>9}"
          f"{'self us/ev':>12}{'share':>8}")
    for row in result["waterfall"]:
        ratio = row["ratio_to_below"]
        print(
            f"  {row['rung']:<34}{row['events_per_s']:>12.0f}"
            f"{'' if ratio is None else format(ratio, '.2f'):>9}"
            f"{row['self_us_per_event']:>12.3f}{row['self_share']:>8.1%}"
        )
    print(
        f"  p99 samples: ingest n={result['samples']['ingest']}, "
        f"refresh n={result['samples']['refresh']}; "
        f"spans -> {os.path.relpath(result['trace_file'])}"
    )


# -- the ladder: trials, their summary, results file --------------------------


def summarize(name: str, values: list, better: str) -> dict:
    """One metric over a run's trials.  ``value`` is the best trial: on
    this box disturbance only ever slows a trial down, and its floor
    repeats where its median does not (README, "Placement and noise").
    ``setup_s`` is the median, as the benchmark contract asks."""
    median, low, high = statistics.median(values), min(values), max(values)
    best = high if better == "higher" else low
    return {
        "value": median if name == "setup_s" else best,
        "median": median, "min": low, "max": high, "values": values,
    }


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip() or "nogit"
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def run_ladder(args, workloads: list, spec: dict) -> dict:
    """``--trials`` fresh-stack trials per workload (workload order
    alternating between trials), then the traced pass when asked."""
    shrink = _shrink(args)
    units, better = column(spec, "unit"), column(spec, "better")
    sets = [
        TrialSet(w, args.seed, args.seconds, args.trials, shrink)
        for w in workloads
    ]
    for index in range(args.trials):
        for trial_set in sets if index % 2 == 0 else sets[::-1]:
            trial_set.run_trial()
    document = {
        "meta": {
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            "git": git_sha(), "seed": args.seed, "seconds": args.seconds,
            "trials": args.trials, "smoke": args.smoke,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "workloads": {},
    }
    for trial_set in sets:
        workload = trial_set.workload
        entry = {"why": workload.why, "end_to_end": trial_set.metrics(better)}
        print_metrics(
            f"{workload.name}: end to end", entry["end_to_end"], units
        )
        if args.traced:
            traced = traced_run(
                workload, args.seed, args.seconds, args.trials, shrink
            )
            entry["per_layer"] = traced["metrics"]
            entry["waterfall"] = traced["waterfall"]
            print_metrics(
                f"{workload.name}: per layer", traced["metrics"], units
            )
            print_waterfall(workload.name, traced)
        document["workloads"][workload.name] = entry
    return document


def save(document: dict) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    stamp = document["meta"]["utc"].replace(":", "").replace("+0000", "Z")
    path = os.path.join(RESULTS, f"{stamp}-{document['meta']['git']}.json")
    with open(path, "w") as f:
        json.dump(document, f, indent=1)
    print(f"\nresults -> {os.path.relpath(path)}")
    return path


# -- comparing two result sets ----------------------------------------------


def _spread(summary: dict) -> float:
    return (summary["max"] - summary["min"]) / abs(summary["median"])


def verdict(name: str, base: dict, change: dict, gate: dict) -> tuple:
    """``(verdict, worsening)`` of one metric on one workload, by the
    benchmark's own bound; ``unresolved`` — never ``unchanged`` — when
    the run-to-run spread exceeds the bound."""
    if name in EXACT:
        same = base["values"] == change["values"]
        return ("exact" if same else "CHANGED"), 0.0
    sign = 1.0 if gate["better"] == "lower" else -1.0
    worse = sign * (change["value"] - base["value"]) / abs(base["value"])
    if worse > gate["bound"]:
        return "REGRESSION", worse
    if gate["better"] == "lower":
        clear = max(change["values"]) < min(base["values"])
    else:
        clear = min(change["values"]) > max(base["values"])
    if clear:
        return "better", worse
    if max(_spread(base), _spread(change)) > gate["bound"]:
        return "unresolved", worse
    return "unchanged", worse


def compare(base: dict, change: dict, spec: dict) -> list:
    """Print one row per (workload, end-to-end metric); returns the rows
    whose verdict is REGRESSION or CHANGED."""
    gates = {m["name"]: m for m in spec["end_to_end"]}
    bad = []
    print(f"{'workload':<20}{'metric':<18}{'base':>14}{'change':>14}"
          f"{'worse by':>10}  verdict")
    for workload, entry in base["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            continue
        for name, summary in entry["end_to_end"].items():
            row = verdict(
                name, summary, other["end_to_end"][name], gates.get(name)
            )
            print(
                f"{workload:<20}{name:<18}{summary['value']:>14.6g}"
                f"{other['end_to_end'][name]['value']:>14.6g}"
                f"{row[1]:>10.1%}  {row[0]}"
            )
            if row[0] in ("REGRESSION", "CHANGED"):
                bad.append((workload, name) + row)
    return bad


def selfcheck(args, workloads: list, spec: dict) -> int:
    """Two full sets of the same code must agree within the bounds."""
    first = run_ladder(args, workloads, spec)
    second = run_ladder(args, workloads, spec)
    save(first), save(second)
    print("\n== selfcheck: second set against the first, then the reverse")
    bad = compare(first, second, spec) + compare(second, first, spec)
    if bad:
        print(f"selfcheck FAILED: {bad}")
        return 1
    print("selfcheck passed")
    return 0


# -- entry point ------------------------------------------------------------


def _shrink(args) -> int:
    return SMOKE_SHRINK if args.smoke else 1


def _terminate(signum, frame):
    # SIGTERM unwinds like Ctrl-C so every ``with Stack()`` tears down.
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="sizes every workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver "
                        "mode: one run, 0 = end-to-end, 1 = per-layer; the "
                        "last output line is the result as JSON")
    parser.add_argument("--traced", action="store_true",
                        help="add the traced pass and print the waterfall")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload ~50x")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        documents = []
        for path in args.compare:
            with open(path) as f:
                documents.append(json.load(f))
        return 1 if compare(documents[0], documents[1], spec) else 0

    signal.signal(signal.SIGTERM, _terminate)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is not None and args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(BY_NAME)}")
    workloads = (
        list(WORKLOADS) if args.workload is None else [BY_NAME[args.workload]]
    )
    # This process hosts threads that hand work to each other (the two
    # open-loop connections, the site-actor hub's loop); the default 5 ms
    # GIL switch interval made their latencies a lottery.
    sys.setswitchinterval(GIL_SWITCH_SECONDS)
    try:
        with warm_cpus():
            if args.trace is not None:
                return driver_run(args, workloads[0], spec)
            if args.selfcheck:
                return selfcheck(args, workloads, spec)
            save(run_ladder(args, workloads, spec))
            return 0
    except trial.OracleError as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        return 1


def driver_run(args, workload, spec: dict) -> int:
    """One run for the benchmark driver; the last line is the result."""
    kind = "per_layer" if args.trace else "end_to_end"
    size = (args.seed, args.seconds, args.trials, _shrink(args))
    try:
        if args.trace:
            result = traced_run(workload, *size)
            metrics = result["metrics"]
            attempted, failed = result["attempted"], result["failed"]
        else:
            trial_set = TrialSet(workload, *size)
            for _ in range(args.trials):
                trial_set.run_trial()
            metrics = trial_set.metrics(column(spec, "better"))
            attempted, failed = trial_set.attempted, trial_set.failed
    except trial.OracleError as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        print(json.dumps({
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        }))
        return 1
    print_metrics(f"{workload.name}: {kind}", metrics, column(spec, "unit"))
    if args.trace:
        print_waterfall(workload.name, result)
    values = {
        name: value["value"] if isinstance(value, dict) else value
        for name, value in metrics.items()
    }
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

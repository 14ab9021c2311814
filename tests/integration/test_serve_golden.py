"""``repro serve``, ``repro restore`` and the multi-tenant example, frozen.

``serve_golden.json`` holds the full stdout of each scenario below,
generated before ``repro serve`` / ``repro restore`` moved from a bare
``TrackingService`` onto the one-shard ``ShardedTrackingService``
(``python tests/integration/test_serve_golden.py`` prints a fresh
golden).  Only the wall-clock part of the ``ingested ... in X.XXs (...
events/s/job)`` line is masked.  Each durable scenario also records the
element count at every snapshot a hub service writes, which pins the
``--checkpoint-every`` rule: only a full batch checkpoints, counted
from the start of the run.

``old-layout`` recovers a directory written by
``TrackingService(checkpoint_dir=...)`` itself — a single-service
bundle with no ``shards.json`` and a WAL tail past its last snapshot,
the layout ``repro serve`` wrote before it ran the facade.  ``repro
restore`` and ``repro serve --resume`` must keep reading it.
"""

import contextlib
import io
import json
import os
import re
import runpy

import pytest

from repro import TrackingService
from repro.cli import main, parse_job_spec
from repro.persistence.recovery import CheckpointManager
from repro.runtime.batching import batches_from_stream
from repro.workloads import multi_tenant

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "serve_golden.json")
EXAMPLE = os.path.join(
    os.path.dirname(__file__), "..", "..", "examples",
    "multi_tenant_service.py",
)

TIMING = re.compile(r"in [0-9]+\.[0-9]{2}s \((?:[0-9,]+|inf) events/s/job\)")

DURABLE_JOBS = [
    "--job", "t=count/randomized:0.05",
    "--job", "hh=frequency/deterministic:0.1",
    "--job", "m=rank/randomized:0.1",
]

#: scenario -> the ``repro`` argv lists it runs, in order, in one cwd
SCENARIOS = {
    "serve-default-jobs": [["serve", "-k", "8", "-n", "20000"]],
    "serve-job-specs": [[
        "serve", "-k", "4", "-n", "6000", "--batch", "1024",
        "--job", "t=count/deterministic:0.1",
        "--job", "w=window:500/count:0.2",
        "--job", "p=rank/randomized:0.1",
        "--job", "f=frequency/randomized:0.1",
    ]],
    "checkpoint-restore-resume": [
        ["serve", "-k", "4", "-n", "5000", "--batch", "512", *DURABLE_JOBS,
         "--checkpoint-dir", "ckpt", "--checkpoint-every", "1000"],
        ["restore", "--checkpoint-dir", "ckpt"],
        ["serve", "-n", "8000", "--batch", "512", "--checkpoint-dir", "ckpt",
         "--checkpoint-every", "1000", "--resume"],
        ["restore", "--checkpoint-dir", "ckpt"],
    ],
    "old-layout": [
        ["restore", "--checkpoint-dir", "old"],
        ["serve", "-n", "6000", "--batch", "512", "--checkpoint-dir", "old",
         "--resume"],
        ["restore", "--checkpoint-dir", "old"],
    ],
}


def write_old_layout(directory):
    """A single-service bundle as ``repro serve --checkpoint-dir`` wrote
    it before the facade: same jobs, seed and stream, one mid-stream
    snapshot and a WAL tail of four batches, never closed cleanly."""
    service = TrackingService(num_sites=4, seed=5, checkpoint_dir=directory)
    for spec in DURABLE_JOBS[1::2]:
        name, _, scheme = parse_job_spec(spec, 0.1)
        service.register(name, scheme)
    stream = multi_tenant(3000, 4, tenants=4, burst=64, seed=5, labeled=False)
    for index, (site_ids, items) in enumerate(
        batches_from_stream(stream, 512)
    ):
        service.ingest(site_ids, items)
        if index == 1:
            service.checkpoint()
    service.close()


def run_scenario(name, workdir, monkeypatch):
    """The scenario's stdout: each command's, under a ``$`` header, then
    the element counts at which snapshots were written."""
    saved = []
    original = CheckpointManager.save

    def recording_save(self, service):
        saved.append(service.elements_processed)
        return original(self, service)

    monkeypatch.setattr(CheckpointManager, "save", recording_save)
    monkeypatch.chdir(workdir)
    if name == "old-layout":
        write_old_layout("old")
        saved.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in SCENARIOS[name]:
            print("$ repro " + " ".join(argv))
            assert main(argv) == 0
            print(f"snapshots at: {saved}")
            saved.clear()
    return TIMING.sub("in X.XXs (N events/s/job)", out.getvalue())


def run_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(EXAMPLE, run_name="__main__")
    return out.getvalue()


def load_golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_cli_output_matches_golden(name, tmp_path, monkeypatch):
    assert run_scenario(name, tmp_path, monkeypatch) == load_golden()[name]


def test_example_output_matches_golden():
    assert run_example() == load_golden()["multi-tenant-example"]


if __name__ == "__main__":
    import tempfile

    golden = {}
    for scenario in SCENARIOS:
        with tempfile.TemporaryDirectory() as workdir:
            with pytest.MonkeyPatch.context() as patch:
                golden[scenario] = run_scenario(scenario, workdir, patch)
    golden["multi-tenant-example"] = run_example()
    print(json.dumps(golden, indent=2, sort_keys=True))

"""The launcher's operator-facing text, frozen.

``cli_help_golden.json`` holds ``--help`` of the root parser and all
six subcommands at 80 columns, generated at the commit *before* the
shared client / build-or-restore helpers
(``python tests/unit/test_cli_golden.py`` prints it).  The launch-error
table pins ``main([...]) == 2`` plus the exact stderr line for every
flag check ``repro gateway`` makes before it binds a port, and for the
client subcommands' own flag checks; none of them had a test.
"""

import json
import os
import subprocess
import sys
import urllib.request

import pytest

import repro
from repro import (
    RandomizedCountScheme,
    ShardedTrackingService,
    TrackingService,
)
from repro.cli import main
from repro.net.gateway import GatewayThread

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "cli_help_golden.json")

HELP_COMMANDS = {
    "root": [],
    "gateway": ["gateway"],
    "site": ["site"],
    "hub": ["hub"],
    "query": ["query"],
    "metrics": ["metrics"],
    "fleet": ["fleet"],
}


def help_text(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--help"])
    assert excinfo.value.code == 0
    return capsys.readouterr().out


@pytest.fixture()
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LINES", raising=False)


@pytest.mark.parametrize("name", sorted(HELP_COMMANDS))
def test_help_matches_golden(name, columns, capsys):
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    assert help_text(HELP_COMMANDS[name], capsys) == golden[name]


#: argv -> the one stderr line, for every exit-2 check of the launcher
GATEWAY_ERRORS = [
    (["--queue-events", "0"], "error: --queue-events must be positive"),
    (["--coalesce-events", "0"], "error: --coalesce-events must be positive"),
    (["--shards", "0"], "error: --shards must be positive"),
    (["--ingest-rate", "0"], "error: --ingest-rate must be positive"),
    (["--fleet-interval", "0"], "error: --fleet-interval must be positive"),
    (["--resume"], "error: --resume requires --checkpoint-dir"),
    (["--hub", "127.0.0.1:1"], "error: --hub requires --shard-workers cluster"),
    (["--window", "8"], "error: --window/--site-depth require --relaxed"),
    (["--site-depth", "2"], "error: --window/--site-depth require --relaxed"),
    (["--relaxed", "--window", "0"], "error: --window must be positive"),
    (["--relaxed", "--site-depth", "0"], "error: --site-depth must be positive"),
    (["--listen", "nowhere"],
     "error: bad address 'nowhere': expected HOST:PORT"),
    (["--job", "broken"],
     "error: bad job spec 'broken': expected NAME=PROBLEM/SCHEME[:EPS]"),
]


@pytest.mark.parametrize("argv, line", GATEWAY_ERRORS)
def test_gateway_flag_errors(argv, line, capsys):
    assert main(["gateway"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""


def test_gateway_api_keys_file_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["gateway", "--api-keys-file", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load --api-keys-file: ")
    assert err.count("\n") == 1
    for text in ("{}", "[1]", '"key"'):
        path = tmp_path / "keys.json"
        path.write_text(text)
        assert main(["gateway", "--api-keys-file", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: --api-keys-file must hold a non-empty JSON object "
            "mapping key -> tenant\n"
        )


def test_gateway_alert_rules_errors(tmp_path, capsys):
    path = tmp_path / "rules.json"
    path.write_text("{not json")
    assert main(["gateway", "--alert-rules", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load --alert-rules: ")
    assert err.count("\n") == 1
    path.write_text(json.dumps({"rules": []}))
    assert main(["gateway", "--alert-rules", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: --alert-rules: 'rules' must be a non-empty list\n"
    )
    path.write_text(json.dumps({"rules": [
        {"name": "r", "kind": "metrics", "metric": "m", "op": "==", "value": 1}
    ]}))
    assert main(["gateway", "--alert-rules", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: --alert-rules: rule 'r': 'op' must be one of "
        "['<', '<=', '>', '>=']\n"
    )


def test_gateway_resume_applies_topology_flags_on_service_checkpoint(
    tmp_path,
):
    # A single-service checkpoint (no shards.json) resumes as the
    # facade's one shard, so --relaxed applies instead of being refused.
    ckpt = str(tmp_path / "ckpt")
    service = TrackingService(num_sites=4, seed=1, checkpoint_dir=ckpt)
    service.register("total", RandomizedCountScheme(0.05))
    service.ingest([0, 1, 2, 3] * 250)  # a WAL tail past the snapshot
    service.close()
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    gateway = subprocess.Popen(
        [sys.executable, "-m", "repro", "gateway", "--listen",
         "127.0.0.1:0", "--checkpoint-dir", ckpt, "--resume", "--relaxed"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    try:
        banner = gateway.stdout.readline()
        assert banner.startswith("gateway listening on "), banner
        url = banner.split()[3]
        with urllib.request.urlopen(url + "/v1/status", timeout=30) as r:
            status = json.load(r)
        assert status["elements"] == 1000
        assert (status["shards"], status["relaxed"]) == (1, True)
    finally:
        gateway.terminate()
        output = gateway.communicate(timeout=60)[0]
    assert gateway.returncode == 0, output


def test_gateway_resume_missing_checkpoint(tmp_path, capsys):
    ckpt = str(tmp_path / "nope")
    assert main(["gateway", "--checkpoint-dir", ckpt, "--resume"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


CLIENT_ERRORS = [
    (["query", "http://x", "job", "--timeout", "0"],
     "error: --timeout must be positive"),
    (["metrics", "http://x", "--timeout", "0"],
     "error: --timeout must be positive"),
    (["metrics", "http://x", "--watch", "0"],
     "error: --watch must be positive"),
    (["fleet", "http://x", "--timeout", "-1"],
     "error: --timeout must be positive"),
    (["fleet", "http://x", "--watch", "0"],
     "error: --watch must be positive"),
    (["fleet", "http://x", "--events", "-1"],
     "error: --events must be >= 0"),
]


@pytest.mark.parametrize("argv, line", CLIENT_ERRORS)
def test_client_flag_errors(argv, line, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == line + "\n"


DEAD = "http://127.0.0.1:9"


def test_query_failure_lines(capsys):
    assert main(["query", DEAD, "x"]) == 1
    assert capsys.readouterr().err == (
        f"error: connection refused at {DEAD} — is the gateway running? "
        "(start one with `repro gateway`)\n"
    )
    service = ShardedTrackingService(num_sites=4, num_shards=1, seed=1)
    with GatewayThread(service) as gw:
        assert main(["query", gw.url, "ghost"]) == 1
        assert capsys.readouterr().err == (
            "error: HTTP 404 Not Found: no job named 'ghost'; "
            "registered: []\n"
        )
    service.close()


@pytest.mark.parametrize("command", ["metrics", "fleet"])
def test_scrape_failure_is_one_clean_line(command, capsys):
    assert main([command, DEAD, "--timeout", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


if __name__ == "__main__":
    import contextlib
    import io

    os.environ["COLUMNS"] = "80"
    os.environ.pop("LINES", None)
    out = {}
    for name, argv in HELP_COMMANDS.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.suppress(SystemExit):
            main(argv + ["--help"])
        out[name] = buffer.getvalue()
    print(json.dumps(out, indent=1, sort_keys=True))

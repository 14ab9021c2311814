"""Launch the deployed stack as real processes, and never leak it.

A :class:`Stack` owns a fresh temp directory and every ``repro hub`` /
``repro gateway`` / ``repro site`` process started through it.  Each
child runs in its own process group (so a signal to the benchmark's
group does not race the teardown) but in the benchmark's session: with
``sched_autogroup`` a session is a scheduling group, and a gateway in a
session of its own lost a third of its throughput to group-fair
scheduling against the load generator.  A child asks the kernel to
SIGKILL it should the benchmark die first, and logs to a file in the
temp directory that is printed when a trial fails.  ``close()`` —
reached on every exit path through ``with`` — kills the process groups,
waits for them, and removes the directory.

Placement is part of the configuration: the front tier (this load
generator and the gateway) is pinned to one CPU and the hub tier
(``repro hub`` / ``repro site`` hosts) to another, as if the hubs lived
on a second machine.  Left to the scheduler, identical count-bursty runs
on the 2-core reference box ranged from 460k to 610k events/s.
:func:`warm_cpus` completes the picture: on this VM a CPU that has
idled runs its next burst 2-3x slower and a busy sibling slows the other
CPU by 40 %, so idle-priority spinners keep both CPUs permanently busy
and the machine at one speed (README, "placement and noise").
"""

from __future__ import annotations

import contextlib
import ctypes
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")

#: temp directories live inside the checkout (and under the ignored
#: ``results/``): the benchmark writes nowhere else
RESULTS = os.path.join(HERE, "results")
TMP_ROOT = os.path.join(RESULTS, "tmp")

#: generous ceilings; a hung child fails the trial instead of the driver
READY_TIMEOUT = 60.0
HTTP_TIMEOUT = 120.0

_CPUS = sorted(os.sched_getaffinity(0))
FRONT = {_CPUS[0]}
BACK = {_CPUS[1 % len(_CPUS)]}

_PR_SET_PDEATHSIG = 1
_LISTENING = re.compile(r"listening on (\S+)")


def _child_setup(cpus: set, idle: bool = False):
    """preexec hook: pin the child (at idle priority if asked), and
    SIGKILL it if the benchmark process dies (the one exit path no
    ``finally`` covers)."""
    def setup() -> None:
        os.sched_setaffinity(0, cpus)
        if idle:
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    return setup


@contextlib.contextmanager
def warm_cpus():
    """Keep the front and back CPUs from idling for the duration: one
    ``SCHED_IDLE`` spinner each, which any other task preempts at once."""
    spinners = [
        subprocess.Popen(
            [sys.executable, "-c", "while True: pass"],
            preexec_fn=_child_setup({cpu}, idle=True),
        )
        for cpu in FRONT | BACK
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
            spinner.wait()


class StackError(RuntimeError):
    """A child failed to start, died, or answered with a non-200."""


class Child:
    """One ``python -m repro <subcommand>`` process and its log file."""

    def __init__(self, name: str, argv: list, log_path: str, cpus: set):
        self.name = name
        self.log_path = log_path
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *argv],
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=env,
                cwd=os.path.dirname(log_path),
                process_group=0,
                preexec_fn=_child_setup(cpus),
            )
        self.pid = self.proc.pid

    def log(self) -> str:
        with open(self.log_path, errors="replace") as f:
            return f.read()

    def address(self) -> str:
        """Block until the child prints ``... listening on ADDR``."""
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log())
            if match:
                return match.group(1)
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise StackError(
            f"{self.name} never announced its address "
            f"(exit={self.proc.poll()}):\n{self.log()}"
        )

    def peak_rss_mb(self) -> float:
        """``VmHWM`` from ``/proc/<pid>/status`` in MB."""
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise StackError(f"{self.name}: no VmHWM in /proc/{self.pid}/status")

    def kill(self) -> None:
        """SIGKILL the child's process group and reap it."""
        if self.proc.poll() is None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()


class Client:
    """One keep-alive HTTP connection with request/failure accounting."""

    def __init__(self, url: str):
        host, _, port = url.rpartition("//")[2].partition(":")
        self._conn = http.client.HTTPConnection(
            host, int(port), timeout=HTTP_TIMEOUT
        )
        self.attempted = 0
        self.failures: list = []

    def request(self, method: str, path: str, body: bytes = None):
        """Returns the decoded JSON body (text for non-JSON replies);
        a non-200 is recorded in :attr:`failures` and returns None."""
        self.attempted += 1
        self._conn.request(method, path, body=body)
        response = self._conn.getresponse()
        data = response.read()
        if response.status != 200:
            self.failures.append(
                f"{method} {path} -> {response.status} {data[:200]!r}"
            )
            return None
        if response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return json.loads(data)
        return data.decode()

    def get(self, path: str):
        return self.request("GET", path)

    def post(self, path: str, body: bytes):
        return self.request("POST", path, body)

    def close(self) -> None:
        self._conn.close()


class Stack:
    """A temp directory plus every child process started through it."""

    def __init__(self):
        os.makedirs(TMP_ROOT, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="ladder-", dir=TMP_ROOT)
        self.children: list = []
        self._spawned = 0
        self._affinity = os.sched_getaffinity(0)

    def __enter__(self) -> "Stack":
        os.sched_setaffinity(0, FRONT)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and not issubclass(
            exc_type, KeyboardInterrupt
        ):
            print(self.logs(), file=sys.stderr)
        self.close()

    def spawn(self, name: str, argv: list, cpus: set = BACK) -> Child:
        # Numbered across restarts: a resumed hub must not append to
        # (and re-read the address from) its predecessor's log.
        self._spawned += 1
        child = Child(
            name, argv,
            os.path.join(self.dir, f"{self._spawned}-{name}.log"), cpus,
        )
        self.children.append(child)
        return child

    def checkpoint_dir(self) -> str:
        return os.path.join(self.dir, "ckpt")

    # -- the deployed service stack ----------------------------------------

    def start_service(self, seed: int, jobs: list, resume: bool = False):
        """Two TCP hub hosts + the sharded relaxed gateway in front.

        Returns the gateway URL once ``/healthz`` answers.  ``--window``
        equals the default ``--coalesce-events`` because the facade
        counts the window in *runs*: a smaller window serialises any
        uniform-arrival batch (see README, "the --window 64 finding").
        """
        argv = [
            "gateway", "--listen", "127.0.0.1:0", "-k", "16",
            "--seed", str(seed), "--shards", "2",
            "--shard-workers", "cluster", "--relaxed",
            "--window", "8192", "--site-depth", "2",
            "--checkpoint-dir", self.checkpoint_dir(),
        ]
        for address in self.start_hubs():
            argv += ["--hub", address]
        if resume:
            argv.append("--resume")
        else:
            argv.append("--no-default-jobs")
            for job in jobs:
                argv += ["--job", job]
        return self._await_gateway(self.spawn("gateway", argv, FRONT))

    def start_hubs(self) -> list:
        """Two ``repro hub`` TCP hosts (started together); their addresses."""
        hubs = [
            self.spawn("hub", ["hub", "--listen", "127.0.0.1:0"])
            for _ in range(2)
        ]
        return [hub.address() for hub in hubs]

    def start_unsharded_gateway(self, seed: int, jobs: list) -> str:
        """``repro gateway`` over a plain, WAL-less service: the HTTP
        tax alone (the ``net.gateway_unsharded_events_per_s`` rung)."""
        argv = [
            "gateway", "--listen", "127.0.0.1:0", "-k", "16",
            "--seed", str(seed), "--no-default-jobs",
        ]
        for job in jobs:
            argv += ["--job", job]
        return self._await_gateway(self.spawn("gateway", argv, FRONT))

    def start_site_host(self) -> str:
        return self.spawn(
            "site", ["site", "--listen", "127.0.0.1:0"]
        ).address()

    def _await_gateway(self, gateway: Child) -> str:
        url = gateway.address()
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            try:
                client = Client(url)
                try:
                    if client.get("/healthz") is not None:
                        return url
                finally:
                    client.close()
            except OSError:
                pass
            if gateway.proc.poll() is not None:
                break
            time.sleep(0.002)
        raise StackError(f"gateway never became ready:\n{gateway.log()}")

    # -- measurement and teardown ------------------------------------------

    def peak_rss_mb(self) -> float:
        return sum(
            c.peak_rss_mb() for c in self.children if c.proc.poll() is None
        )

    def check_alive(self) -> None:
        for child in self.children:
            if child.proc.poll() is not None:
                raise StackError(
                    f"{child.name} (pid {child.pid}) exited with "
                    f"{child.proc.returncode}:\n{child.log()}"
                )

    def kill_children(self) -> None:
        """SIGKILL everything (the crash of the recovery phase); the
        directory — and the checkpoints in it — survive."""
        for child in self.children:
            child.kill()
        self.children = []

    def logs(self) -> str:
        """What every live child has printed so far."""
        return "".join(
            f"--- {child.name} (pid {child.pid}) log ---\n{child.log()}\n"
            for child in self.children
        )

    def close(self) -> None:
        self.kill_children()
        shutil.rmtree(self.dir, ignore_errors=True)
        os.sched_setaffinity(0, self._affinity)

"""LoopThread: the one sync->async bridge (cluster, exec plane, gateway)."""

import asyncio
import gc
import threading
import warnings

import pytest

from repro import DeterministicCountScheme
from repro.net import Cluster
from repro.net.transport import LoopThread


def unawaited_warnings(fn):
    """Run ``fn`` (expected to raise RuntimeError on a closed loop) and
    return every "coroutine ... was never awaited" warning it leaked."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="is closed"):
            fn()
        gc.collect()
    return [w for w in caught if "never awaited" in str(w.message)]


class TestLoopThread:
    def test_call_runs_on_the_loop_thread(self):
        loop = LoopThread("repro-test-loop")
        try:
            async def where():
                return threading.current_thread().name

            assert loop.call(where()) == "repro-test-loop"
        finally:
            loop.close()
        loop.close()  # idempotent

    def test_hung_call_raises_naming_the_timeout(self):
        loop = LoopThread()
        try:
            with pytest.raises(TimeoutError, match=r"timed out after 0\.05s"):
                loop.call(asyncio.sleep(30), timeout=0.05)
            assert loop.call(asyncio.sleep(0, result="alive")) == "alive"
        finally:
            loop.close()

    def test_call_on_closed_loop_closes_the_coroutine(self):
        loop = LoopThread()
        loop.close()
        assert unawaited_warnings(lambda: loop.call(asyncio.sleep(0))) == []


class TestClusterOnTheSharedLoop:
    def test_query_after_close_leaks_no_coroutine(self):
        cluster = Cluster(DeterministicCountScheme(0.1), 2)
        cluster.ingest([0, 1, 0])
        cluster.close()
        assert unawaited_warnings(cluster.query) == []

    def test_unknown_transport_names_the_two_that_exist(self):
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="loopback or tcp") as excinfo:
            Cluster(DeterministicCountScheme(0.1), 2, transport="tcp-json")
        assert "tcp-json" in str(excinfo.value)
        # the failed constructor joined its loop thread
        assert set(threading.enumerate()) <= before


class TestCloseWithPendingSessions:
    def test_close_cancels_a_pending_server_session(self, caplog):
        """A session still waiting on its peer when the loop closes is
        cancelled and awaited: no "Task was destroyed but it is
        pending!", no exception escaping a coroutine's teardown."""
        import logging
        import socket
        import sys

        from repro.net.transport import TcpTransport

        unraisable = []
        previous_hook = sys.unraisablehook
        sys.unraisablehook = unraisable.append
        loop = LoopThread()
        peer = None
        try:
            async def session(conn):
                await conn.recv()  # the peer never sends

            listener = loop.call(
                TcpTransport().listen("127.0.0.1:0", session)
            )
            host, port = listener.address.rsplit(":", 1)
            peer = socket.create_connection((host, int(port)))

            async def settle_and_stop_listening():
                await asyncio.sleep(0.05)  # the session task is running
                listener._server.close()  # the session stays pending

            loop.call(settle_and_stop_listening())
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                loop.close()
                del listener, session
                gc.collect()
        finally:
            if peer is not None:
                peer.close()
            sys.unraisablehook = previous_hook
        destroyed = [
            r for r in caplog.records if "destroyed but it is pending" in
            r.getMessage()
        ]
        assert [u.exc_value for u in unraisable] == []
        assert destroyed == []

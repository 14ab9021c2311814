"""`CreditWindow`: the one in-flight ledger, on its own.

The hub and the exec plane both book posted-but-uncompleted work here
and nowhere else, so the contract is pinned without either of them:
FIFO per target, run-weight accounting, the admit loop's two bounds,
progress for a post heavier than the window, oldest-first reclaim.
"""

import pytest

from repro.exec.dispatch import CreditWindow


def reclaim_oldest(ledger, log=None):
    """A reclaim callback completing the globally oldest entry."""
    def reclaim():
        target = ledger.oldest()
        ledger.complete(target)
        if log is not None:
            log.append(target)
    return reclaim


class TestBookkeeping:
    def test_post_complete_roundtrip(self):
        ledger = CreditWindow(3, relaxed=True)
        ledger.post(0, 5, stamp="a")
        ledger.post(2, 1, stamp="b")
        ledger.post(0, 2, stamp="c")
        assert (len(ledger), ledger.weight) == (3, 8)
        assert [ledger.pending(t) for t in range(3)] == [2, 0, 1]
        assert ledger.complete(0) == "a"  # FIFO per target
        assert ledger.complete(0) == "c"
        assert ledger.complete(2) == "b"
        assert (len(ledger), ledger.weight) == (0, 0)
        assert ledger.oldest() is None

    def test_complete_on_idle_target_raises(self):
        with pytest.raises(IndexError):
            CreditWindow(1).complete(0)

    def test_oldest_is_global_post_order(self):
        ledger = CreditWindow(3, relaxed=True)
        for target in (2, 0, 1, 2):
            ledger.post(target, 1)
        order = []
        while len(ledger):
            order.append(ledger.oldest())
            ledger.complete(order[-1])
        assert order == [2, 0, 1, 2]

    def test_weightless_riders_take_no_credit_and_are_not_frames(self):
        ledger = CreditWindow(2, relaxed=True, window=4)
        ledger.post(0, 4)
        ledger.post(1)  # a query riding the same FIFO
        assert (len(ledger), ledger.weight) == (2, 4)
        stats = ledger.stats()
        assert (stats["frames_posted"], stats["runs_posted"]) == (1, 4)
        assert stats["max_inflight_runs"] == 4

    def test_clear_one_target_then_all(self):
        ledger = CreditWindow(2, relaxed=True)
        ledger.post(0, 3)
        ledger.post(1, 4)
        ledger.post(1)
        ledger.clear(1)
        assert (len(ledger), ledger.weight, ledger.pending(1)) == (1, 3, 0)
        ledger.clear()
        assert (len(ledger), ledger.weight, ledger.oldest()) == (0, 0, None)
        # lifetime counters survive a clear
        assert ledger.stats()["runs_posted"] == 7

    def test_stats_shape(self):
        ledger = CreditWindow(2, relaxed=True, window=8, per_site_depth=2)
        assert ledger.stats() == {
            "mode": "windowed",
            "window": 8,
            "per_site_depth": 2,
            "frames_posted": 0,
            "runs_posted": 0,
            "runs_per_frame": 0.0,
            "max_inflight_runs": 0,
            "window_stalls": 0,
        }
        ledger.post(0, 3)
        ledger.post(1, 1)
        assert ledger.stats()["runs_per_frame"] == 2.0


class TestAdmit:
    def test_window_bound_reclaims_oldest_until_the_post_fits(self):
        ledger = CreditWindow(3, relaxed=True, window=4)
        reclaimed = []
        for target, weight in ((0, 2), (1, 2)):
            ledger.admit(target, weight, reclaim_oldest(ledger, reclaimed))
            ledger.post(target, weight)
        assert reclaimed == [] and ledger.window_stalls == 0
        ledger.admit(2, 3, reclaim_oldest(ledger, reclaimed))
        ledger.post(2, 3)
        # 4 + 3 > 4 and 2 + 3 > 4: both older posts had to go
        assert reclaimed == [0, 1]
        assert ledger.window_stalls == 2  # one per reclaim call
        assert ledger.weight == 3
        assert ledger.max_inflight_runs == 4

    def test_heavy_post_goes_out_on_an_empty_pipe(self):
        ledger = CreditWindow(2, relaxed=True, window=4)
        ledger.admit(0, 100, pytest.fail)  # idle: nothing to reclaim
        ledger.post(0, 100)
        reclaimed = []
        ledger.admit(1, 100, reclaim_oldest(ledger, reclaimed))
        ledger.post(1, 100)
        assert reclaimed == [0]
        assert ledger.max_inflight_runs == 100  # never 200

    def test_depth_only_bound_is_per_target(self):
        ledger = CreditWindow(2, relaxed=True, per_site_depth=2)
        for _ in range(2):
            ledger.admit(0, 50, pytest.fail)
            ledger.post(0, 50)
        ledger.admit(1, 50, pytest.fail)  # other target: own depth
        ledger.post(1, 50)
        reclaimed = []
        ledger.admit(0, 50, reclaim_oldest(ledger, reclaimed))
        assert reclaimed == [0] and ledger.pending(0) == 1

    def test_window_only_bound_ignores_depth(self):
        ledger = CreditWindow(1, relaxed=True, window=10)
        for _ in range(10):
            ledger.admit(0, 1, pytest.fail)
            ledger.post(0, 1)
        assert ledger.pending(0) == 10

    def test_unbounded_relaxed_never_reclaims(self):
        ledger = CreditWindow(1, relaxed=True)
        for _ in range(1000):
            ledger.admit(0, 7, pytest.fail)
            ledger.post(0, 7)
        assert ledger.weight == 7000 and ledger.window_stalls == 0

    def test_reclaim_that_frees_nothing_is_retried(self):
        """The hub's reclaim may service an uplink instead of a
        completion; admit re-checks and stalls again."""
        ledger = CreditWindow(1, relaxed=True, window=1)
        ledger.post(0, 1)
        calls = []

        def reclaim():
            calls.append(len(calls))
            if len(calls) == 3:
                ledger.complete(0)

        ledger.admit(0, 1, reclaim)
        assert len(calls) == 3 and ledger.window_stalls == 3

    def test_reclaim_error_propagates_with_the_ledger_consistent(self):
        ledger = CreditWindow(1, relaxed=True, window=1)
        ledger.post(0, 1)

        def reclaim():
            ledger.complete(0)  # the reply was consumed ...
            raise RuntimeError("... and carried a deferred failure")

        with pytest.raises(RuntimeError):
            ledger.admit(0, 1, reclaim)
        assert (len(ledger), ledger.weight) == (0, 0)


class TestConstruction:
    @pytest.mark.parametrize("kwargs, mode", [
        ({}, "lockstep"),
        ({"relaxed": True}, "relaxed"),
        ({"relaxed": True, "window": 1}, "windowed"),
        ({"relaxed": True, "per_site_depth": 1}, "windowed"),
    ])
    def test_mode_names(self, kwargs, mode):
        assert CreditWindow(2, **kwargs).mode == mode

    @pytest.mark.parametrize("kwargs", [
        {"window": 4},
        {"per_site_depth": 1},
    ])
    def test_bounds_require_relaxed(self, kwargs):
        with pytest.raises(ValueError, match="relaxed"):
            CreditWindow(2, **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"window": 0},
        {"window": -3},
        {"per_site_depth": 0},
    ])
    def test_bounds_must_be_positive(self, kwargs):
        with pytest.raises(ValueError, match=">= 1"):
            CreditWindow(2, relaxed=True, **kwargs)

"""The Cormode et al. [6] style baseline: periodic full-summary shipping.

The first distributed quantile tracker (SIGMOD'05) had communication
``O(k/eps^2 * log N)`` under certain inputs — the paper cites this as the
prior art its deterministic predecessor [29] improved to ``O(k/eps *
log N * polylog)`` and this paper improves to ``O(sqrt(k)/eps * log N *
polylog)``.  We reproduce the [6] cost shape with the natural protocol:
every ``Delta = Theta(eps * n_bar / k)`` arrivals a site ships a full
``O(1/eps)``-size quantile snapshot of its local stream, giving
``(k/eps) * (1/eps)`` words per round.
"""

from __future__ import annotations

import bisect

from ...runtime import Coordinator, Message, Network, Site, TrackingScheme
from ...runtime.batching import as_column
from ..rounds import GlobalCountTracker, LocalDoubler
from .util import quantile_from_rank_tables, step_table

__all__ = ["Cormode05RankScheme"]

MSG_DOUBLE = "double"
MSG_SNAPSHOT = "snapshot"  # site -> coord: (count, tuple of values)
MSG_ROUND = "round"


class _SnapshotSite(Site):
    """Ship a full eps-spaced local snapshot every Delta arrivals."""

    def __init__(self, site_id, network, k, eps):
        super().__init__(site_id, network)
        self.k = k
        self.eps = eps
        self.doubler = LocalDoubler()
        self.n_bar = 0
        self.values: list = []
        self._since_ship = 0

    @property
    def delta(self) -> int:
        return max(1, int(self.eps * self.n_bar / (8 * self.k)))

    def on_element(self, item) -> None:
        report = self.doubler.increment()
        if report is not None:
            self.send(MSG_DOUBLE, report)
        bisect.insort(self.values, item)
        self._since_ship += 1
        if self._since_ship >= self.delta:
            self._since_ship = 0
            self._ship()

    def _ship(self) -> None:
        count = len(self.values)
        spacing = max(1, int(self.eps * count / 4))
        snapshot = tuple(self.values[r] for r in range(0, count, spacing))
        self.send(
            MSG_SNAPSHOT, (count, spacing, snapshot), words=len(snapshot) + 2
        )

    def on_message(self, message: Message) -> None:
        if message.kind == MSG_ROUND:
            self.n_bar = message.payload

    def space_words(self) -> int:
        return len(self.values) + self.doubler.space_words() + 2


class _SnapshotCoordinator(Coordinator):
    """Latest snapshot per site; rank = sum of interpolated local ranks."""

    def __init__(self, network, k, eps):
        super().__init__(network)
        self.k = k
        self.eps = eps
        self.tracker = GlobalCountTracker()
        self.snapshots = {}  # site -> (count, spacing, values)

    def on_message(self, site_id: int, message: Message) -> None:
        if message.kind == MSG_SNAPSHOT:
            self.snapshots[site_id] = message.payload
        elif message.kind == MSG_DOUBLE:
            n_bar = self.tracker.update(site_id, message.payload)
            if n_bar is not None:
                self.broadcast(MSG_ROUND, n_bar)

    @staticmethod
    def _local_rank(below: int, spacing: int, count: int) -> float:
        """One site's interpolated rank with ``below`` snapshot entries
        under the probe: mid-gap, clamped to the site's count."""
        if not below:
            return 0.0
        return min(max(below * spacing - spacing / 2.0, 0.0), count)

    def estimate_rank(self, x) -> float:
        rank = 0.0
        for count, spacing, values in self.snapshots.values():
            rank += self._local_rank(
                bisect.bisect_left(values, x), spacing, count
            )
        return rank

    def estimate_total(self) -> float:
        return float(sum(c for c, _, _ in self.snapshots.values()))

    def rank_table(self) -> tuple:
        """:meth:`estimate_rank` as a step table (see
        :mod:`~repro.core.rank.util`): a snapshot entry weighs what
        passing it adds to its site's interpolated rank."""
        values: list = []
        weights: list = []
        for count, spacing, snapshot in self.snapshots.values():
            steps = [
                self._local_rank(below, spacing, count)
                for below in range(len(snapshot) + 1)
            ]
            values += snapshot
            weights += [hi - lo for lo, hi in zip(steps, steps[1:])]
        return (*step_table(as_column(values), weights), self.estimate_total())

    def quantile(self, phi: float):
        table = self.rank_table()
        return quantile_from_rank_tables(table[0], [table], phi)

    @property
    def n_bar(self) -> int:
        return self.tracker.n_bar

    def space_words(self) -> int:
        words = self.tracker.space_words()
        for _, _, values in self.snapshots.values():
            words += len(values) + 2
        return words


class Cormode05RankScheme(TrackingScheme):
    """Factory for the full-snapshot baseline (O(k/eps^2 log N) words)."""

    name = "rank/cormode05"
    one_way_capable = False

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon

    def make_coordinator(self, network, k, seed):
        return _SnapshotCoordinator(network, k, self.epsilon)

    def make_site(self, network, site_id, k, seed):
        return _SnapshotSite(site_id, network, k, self.epsilon)

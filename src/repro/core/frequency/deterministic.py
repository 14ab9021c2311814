"""Deterministic frequency tracking ([29]-style baseline).

The optimal deterministic protocol shape: within each round (rounds are
the shared ``n_bar`` doublings), a site reports an item's local count
whenever it has grown by ``Delta = Theta(eps * n_bar / k)`` since the last
report.  For any fixed item, each site's unreported remainder is below
``Delta``, so the coordinator's sum undercounts by at most
``k * Delta + (MG slack) <= eps * n`` and never overcounts.

Local counts come from a Misra–Gries summary with ``O(1/eps)`` counters,
keeping per-site space at ``O(1/eps)`` words as in [29].  Communication is
``O(k/eps)`` words per round — ``Theta(k/eps * log N)`` total, the
deterministic optimum the paper's randomized algorithm beats by sqrt(k).
"""

from __future__ import annotations

import heapq
import math

from ...runtime import Coordinator, Message, Network, Site, TrackingScheme
from ...sketch.misra_gries import MisraGries
from ..rounds import GlobalCountTracker, LocalDoubler

__all__ = [
    "DeterministicFrequencyScheme",
    "DeterministicFrequencyCoordinator",
    "DeterministicFrequencySite",
]

MSG_DOUBLE = "double"
MSG_SET = "set"  # site -> coord: (item, reported local count), 2 words
MSG_ROUND = "round"  # coord -> all: new n_bar


class DeterministicFrequencySite(Site):
    """MG-backed local counting with Delta-threshold reporting."""

    def __init__(self, site_id, network, k, eps, exact_counts=False):
        super().__init__(site_id, network)
        self.k = k
        self.eps = eps
        self.exact_counts = exact_counts
        self.doubler = LocalDoubler()
        self.n_bar = 0
        capacity = max(1, int(math.ceil(8.0 / eps)))
        self.mg = None if exact_counts else MisraGries(capacity)
        self.exact = {} if exact_counts else None
        self.reported = {}
        self._since_prune = 0

    @property
    def delta(self) -> int:
        """Current reporting threshold Delta = eps * n_bar / (8k), >= 1."""
        return max(1, int(self.eps * self.n_bar / (8 * self.k)))

    def _local_count(self, item) -> int:
        if self.exact_counts:
            return self.exact.get(item, 0)
        return self.mg.estimate(item)

    def on_element(self, item) -> None:
        report = self.doubler.increment()
        if report is not None:
            self.send(MSG_DOUBLE, report)

        if self.exact_counts:
            self.exact[item] = self.exact.get(item, 0) + 1
        else:
            self.mg.add(item)
        count = self._local_count(item)
        if count - self.reported.get(item, 0) >= self.delta:
            self.reported[item] = count
            self.send(MSG_SET, (item, count), words=2)

        # Keep the reported map from outgrowing the MG summary: entries
        # for evicted items are dropped (the coordinator keeps the stale
        # value, which never overcounts).
        self._since_prune += 1
        if not self.exact_counts and self._since_prune >= 4 * self.mg.capacity:
            self._since_prune = 0
            if len(self.reported) > 2 * self.mg.capacity:
                tracked = self.mg.counters
                self.reported = {
                    j: c for j, c in self.reported.items() if j in tracked
                }

    def on_elements(self, items) -> None:
        # Inlined on_element for the common paths (MG counter hit, free
        # insert), transcript-identical to per-event driving.  Delta is
        # cached between sends: n_bar only moves via a round broadcast,
        # which can only re-enter during one of our own sends.
        if self.exact_counts:
            super().on_elements(items)
            return
        doubler = self.doubler
        dn = doubler.n
        dlast = doubler.last_report
        mg = self.mg
        counters = mg.counters
        capacity = mg.capacity
        mg_n = mg.n
        reported = self.reported
        send = self.send
        eps = self.eps
        k8 = 8 * self.k
        delta = max(1, int(eps * self.n_bar / k8))
        since_prune = self._since_prune
        prune_every = 4 * capacity

        for item in items:
            dn += 1
            if dn >= 2 * dlast or dlast == 0:
                dlast = dn
                doubler.n = dn
                doubler.last_report = dlast
                send(MSG_DOUBLE, dn)
                delta = max(1, int(eps * self.n_bar / k8))

            # Misra-Gries add, inlined except the eviction path.
            cur = counters.get(item)
            if cur is not None:
                count = cur + 1
                counters[item] = count
                mg_n += 1
            elif len(counters) < capacity:
                counters[item] = 1
                count = 1
                mg_n += 1
            else:
                mg.n = mg_n
                mg.add(item)  # decrement-all step rebinds mg.counters
                mg_n = mg.n
                counters = mg.counters
                count = counters.get(item, 0)

            # count < delta can never clear the threshold (reported >= 0),
            # so the common case skips the reported-map lookup entirely.
            if count >= delta and count - reported.get(item, 0) >= delta:
                reported[item] = count
                doubler.n = dn
                doubler.last_report = dlast
                send(MSG_SET, (item, count), words=2)
                delta = max(1, int(eps * self.n_bar / k8))

            since_prune += 1
            if since_prune >= prune_every:
                since_prune = 0
                if len(reported) > 2 * capacity:
                    reported = {
                        j: c for j, c in reported.items() if j in counters
                    }
                    self.reported = reported

        doubler.n = dn
        doubler.last_report = dlast
        mg.n = mg_n
        self._since_prune = since_prune

    def on_message(self, message: Message) -> None:
        if message.kind == MSG_ROUND:
            self.n_bar = message.payload

    def space_words(self) -> int:
        if self.exact_counts:
            local = 2 * len(self.exact)
        else:
            local = self.mg.space_words()
        return local + 2 * len(self.reported) + self.doubler.space_words() + 2


class DeterministicFrequencyCoordinator(Coordinator):
    """Sums the last reported local count per (site, item)."""

    def __init__(self, network, k, eps):
        super().__init__(network)
        self.k = k
        self.eps = eps
        self.tracker = GlobalCountTracker()
        self.last = {}  # (site_id, item) -> reported count
        self.total = {}  # item -> sum over sites

    def on_message(self, site_id: int, message: Message) -> None:
        if message.kind == MSG_SET:
            item, value = message.payload
            key = (site_id, item)
            self.total[item] = (
                self.total.get(item, 0) + value - self.last.get(key, 0)
            )
            self.last[key] = value
        elif message.kind == MSG_DOUBLE:
            n_bar = self.tracker.update(site_id, message.payload)
            if n_bar is not None:
                self.broadcast(MSG_ROUND, n_bar)

    def estimate_frequency(self, item) -> float:
        """Estimated frequency; in [f - eps*n, f] (never overcounts)."""
        return float(self.total.get(item, 0))

    def heavy_hitters(self, phi: float) -> dict:
        threshold = phi * max(1, self.tracker.n_prime)
        return {
            j: float(c) for j, c in self.total.items() if c >= threshold
        }

    def top_items(self, m: int) -> list:
        """The m items with the largest estimated frequencies
        ((item, estimate) pairs, best first; see [3])."""
        top = heapq.nsmallest(m, self.total.items(), key=lambda t: -t[1])
        return [(j, float(c)) for j, c in top]

    # -- merge hooks (cross-shard query plane) -----------------------------

    def estimate_frequencies(self, items) -> list:
        """Batched :meth:`estimate_frequency` for cross-shard merges."""
        return [self.estimate_frequency(j) for j in items]

    def frequency_basis(self) -> float:
        """The stream-length basis heavy-hitter thresholds scale by
        (the constant-factor tracker's n')."""
        return float(self.tracker.n_prime)

    @property
    def n_bar(self) -> int:
        return self.tracker.n_bar

    def space_words(self) -> int:
        return (
            2 * len(self.last)
            + 2 * len(self.total)
            + self.tracker.space_words()
        )


class DeterministicFrequencyScheme(TrackingScheme):
    """Factory for the deterministic baseline.

    Parameters
    ----------
    epsilon:
        Additive error target as a fraction of n.
    exact_counts:
        Keep exact per-item local counts instead of Misra–Gries
        (unbounded space; useful to isolate the sketching error).
    """

    name = "frequency/deterministic"
    one_way_capable = False

    def __init__(self, epsilon: float, exact_counts: bool = False):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        self.exact_counts = exact_counts

    def make_coordinator(self, network, k, seed):
        return DeterministicFrequencyCoordinator(network, k, self.epsilon)

    def make_site(self, network, site_id, k, seed):
        return DeterministicFrequencySite(
            site_id, network, k, self.epsilon, self.exact_counts
        )

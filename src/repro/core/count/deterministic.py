"""The trivial deterministic count tracker (the paper's baseline).

Every time a local counter has grown by a ``(1 + eps)`` factor, the site
reports it.  The coordinator always holds an ``eps``-approximation of every
``n_i`` and hence of ``n``.  One-way communication only; cost
``Theta(k/eps * log N)`` — optimal for deterministic algorithms [29].
"""

from __future__ import annotations

import math
import sys

from ...runtime import Coordinator, Message, Network, Site, TrackingScheme

__all__ = [
    "DeterministicCountScheme",
    "DeterministicCountCoordinator",
    "DeterministicCountSite",
]

MSG_VALUE = "value"


class DeterministicCountSite(Site):
    """Report the local counter on every (1+eps)-factor growth."""

    def __init__(self, site_id: int, network: Network, eps: float):
        super().__init__(site_id, network)
        self.eps = eps
        self.n = 0
        self.last_sent = 0

    def on_element(self, item) -> None:
        self.n += 1
        if self.last_sent == 0 or self.n >= (1 + self.eps) * self.last_sent:
            self.last_sent = self.n
            self.send(MSG_VALUE, self.n)

    def on_elements(self, items) -> None:
        # Closed form: sends fire exactly at the counter values where the
        # per-event test flips, so only the O(log_{1+eps} m) send points
        # are visited instead of all m increments.  Transcript-identical
        # to on_element (same float comparison, hence ceil of the same
        # product picks the same send points).
        end = self.n + len(items)
        n = self.n
        last = self.last_sent
        while True:
            nxt = n + 1 if last == 0 else math.ceil((1 + self.eps) * last)
            if nxt <= n:
                # eps so small that (1+eps)*last rounds to last in float:
                # the per-event test then fires on every increment.
                nxt = n + 1
            if nxt > end:
                break
            n = nxt
            last = nxt
            self.n = n
            self.last_sent = last
            self.send(MSG_VALUE, n)
        self.n = end

    @property
    def n_local(self) -> int:
        return self.n

    def quiet_horizon(self) -> int:
        # One-way: the coordinator has nothing to say, ever.
        return sys.maxsize

    def space_words(self) -> int:
        return 2


class DeterministicCountCoordinator(Coordinator):
    """Sum of the last reported values; always within a (1+eps) factor."""

    def __init__(self, network: Network):
        super().__init__(network)
        self.last = {}
        self._total = 0

    def on_message(self, site_id: int, message: Message) -> None:
        if message.kind == MSG_VALUE:
            self._total += message.payload - self.last.get(site_id, 0)
            self.last[site_id] = message.payload

    def estimate(self) -> float:
        """Estimate of n; true n is in [estimate, (1+eps) * estimate)."""
        return float(self._total)

    def space_words(self) -> int:
        return len(self.last) + 1


class DeterministicCountScheme(TrackingScheme):
    """Factory for the trivial deterministic protocol."""

    name = "count/deterministic"
    one_way_capable = True

    def __init__(self, epsilon: float):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon

    def make_coordinator(self, network, k, seed):
        return DeterministicCountCoordinator(network)

    def make_site(self, network, site_id, k, seed):
        return DeterministicCountSite(site_id, network, self.epsilon)

"""Randomized count tracking (Section 2.1 of the paper).

Each site, on every increment of its local counter ``n_i``, sends the
latest value to the coordinator with probability ``p``.  The coordinator
estimates each counter as ``n_hat_i = n_bar_i - 1 + 1/p`` (equation (1)),
where ``n_bar_i`` is the last value received — an unbiased estimator with
variance at most ``1/p^2`` (Lemma 2.1).  With
``p = Theta(sqrt(k) / (eps * n))`` the total variance is ``(eps n)^2`` and
the estimate is within ``eps * n`` with constant probability.

``p`` is kept at ``Theta(sqrt(k)/(eps n))`` through the shared round
machinery (:mod:`repro.core.rounds`): the coordinator broadcasts ``n_bar``
whenever the tracked sum doubles, both parties derive
``p = 1/floor_pow2(eps n_bar / sqrt(k))``, and on each halving of ``p``
every site re-randomizes its ``n_bar_i`` by the backward geometric walk of
Section 2.1, informing the coordinator of the new value.

Total communication: ``O(sqrt(k)/eps * log N)``; ``O(1)`` words of state
per site (Theorem 2.1).
"""

from __future__ import annotations

from ...runtime import Coordinator, Message, Network, Site, TrackingScheme
from ...runtime.rng import coin, derive_rng, geometric_failures
from ..rounds import (
    GlobalCountTracker,
    LocalDoubler,
    QuietBetweenDoublings,
    report_probability,
)

__all__ = [
    "RandomizedCountScheme",
    "RandomizedCountCoordinator",
    "RandomizedCountSite",
]

MSG_DOUBLE = "double"  # site -> coord: local count doubled (n' tracking)
MSG_UPDATE = "update"  # site -> coord: probabilistic counter report
MSG_ADJUST = "adjust"  # site -> coord: re-randomized n_bar_i after p halved
MSG_ROUND = "round"  # coord -> all: new n_bar (starts a new round)


class RandomizedCountSite(QuietBetweenDoublings, Site):
    """Site-side state machine: O(1) words."""

    def __init__(self, site_id: int, network: Network, k: int, eps: float, seed: int,
                 adjust_on_halving: bool = True):
        super().__init__(site_id, network)
        self.k = k
        self.eps = eps
        self.adjust_on_halving = adjust_on_halving
        self.rng = derive_rng(seed, "count-site", site_id)
        self.doubler = LocalDoubler()
        self.p = 1.0  # current report probability (derived from n_bar)
        self.last_sent = 0  # n_bar_i: value of n_i at our last update

    def on_element(self, item) -> None:
        report = self.doubler.increment()
        if report is not None:
            self.send(MSG_DOUBLE, report)
        if coin(self.rng, self.p):
            self.last_sent = self.doubler.n
            self.send(MSG_UPDATE, self.doubler.n)

    def on_elements(self, items) -> None:
        # Inlined on_element: same state transitions and the same RNG
        # draws in the same order (coin(rng, p) short-circuits the draw
        # at p >= 1, mirrored here), so the batched transcript is
        # identical.  self.p is re-read after every send because a send
        # can re-enter on_message via a round broadcast and halve it.
        doubler = self.doubler
        dn = doubler.n
        dlast = doubler.last_report
        rng_random = self.rng.random
        send = self.send
        p = self.p
        for _ in items:
            dn += 1
            if dn >= 2 * dlast or dlast == 0:
                dlast = dn
                doubler.n = dn
                doubler.last_report = dlast
                send(MSG_DOUBLE, dn)
                p = self.p
            if p >= 1.0 or rng_random() < p:
                self.last_sent = dn
                doubler.n = dn
                doubler.last_report = dlast
                send(MSG_UPDATE, dn)
                p = self.p
        doubler.n = dn
        doubler.last_report = dlast

    def on_message(self, message: Message) -> None:
        if message.kind != MSG_ROUND:
            return
        n_bar = message.payload
        new_p = report_probability(n_bar, self.k, self.eps)
        # p is an inverse power of two and only decreases; apply the
        # Section 2.1 re-randomization once per halving.
        while self.p > new_p:
            self.p /= 2.0
            if self.adjust_on_halving:
                self._adjust_after_halving()

    def _adjust_after_halving(self) -> None:
        """Re-randomize n_bar_i so the system looks as if it had always
        run with the halved p (the backward geometric walk)."""
        if self.last_sent == 0:
            return
        if coin(self.rng, 0.5):
            # Our last report survives the thinning; nothing changes.
            return
        failures = geometric_failures(self.rng, self.p)
        new_last = max(self.last_sent - 1 - failures, 0)
        self.last_sent = new_last
        self.send(MSG_ADJUST, new_last)

    def space_words(self) -> int:
        return self.doubler.space_words() + 2  # p and last_sent


class RandomizedCountCoordinator(Coordinator):
    """Coordinator: keeps one word per site plus the round state."""

    def __init__(self, network: Network, k: int, eps: float, seed: int):
        super().__init__(network)
        self.k = k
        self.eps = eps
        self.tracker = GlobalCountTracker()
        self.p = 1.0
        self.last_update = {}  # site_id -> n_bar_i (>= 1)

    def on_message(self, site_id: int, message: Message) -> None:
        if message.kind == MSG_UPDATE:
            self.last_update[site_id] = message.payload
        elif message.kind == MSG_ADJUST:
            if message.payload == 0:
                self.last_update.pop(site_id, None)
            else:
                self.last_update[site_id] = message.payload
        elif message.kind == MSG_DOUBLE:
            n_bar = self.tracker.update(site_id, message.payload)
            if n_bar is not None:
                # Update our own p before the sites react to the broadcast
                # (their adjust messages must land under the new p).
                self.p = report_probability(n_bar, self.k, self.eps)
                self.broadcast(MSG_ROUND, n_bar)

    def estimate(self) -> float:
        """Current unbiased estimate of n = sum_i n_i (equation (1))."""
        inv_p = 1.0 / self.p
        return sum(v - 1 + inv_p for v in self.last_update.values())

    @property
    def n_bar(self) -> int:
        return self.tracker.n_bar

    def space_words(self) -> int:
        return len(self.last_update) + self.tracker.space_words() + 1


class RandomizedCountScheme(TrackingScheme):
    """Factory for the Section 2.1 protocol.

    Parameters
    ----------
    epsilon:
        Target relative error.  The estimate is within ``eps * n`` with
        probability >= 3/4 at any fixed time (boost with
        :class:`repro.core.boosting.MedianBoostedScheme` for 0.9+ or for
        all-times guarantees).
    adjust_on_halving:
        Apply the Section 2.1 re-randomization of n_bar_i when p halves
        (default).  Ablation only; False biases the estimator.
    """

    name = "count/randomized"
    one_way_capable = False

    def __init__(self, epsilon: float, adjust_on_halving: bool = True):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        # Ablation knob: disabling the backward geometric walk leaves
        # stale n_bar_i values estimated with the new (smaller) p, which
        # biases the estimator — exactly what Section 2.1's adjustment
        # step exists to prevent.
        self.adjust_on_halving = adjust_on_halving

    def make_coordinator(self, network, k, seed):
        return RandomizedCountCoordinator(network, k, self.epsilon, seed)

    def make_site(self, network, site_id, k, seed):
        return RandomizedCountSite(
            site_id, network, k, self.epsilon, seed, self.adjust_on_halving
        )

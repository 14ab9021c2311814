"""Randomized frequency (heavy hitters) tracking — Section 3.1.

Per round (rounds are delimited by the shared ``n_bar`` doubling
broadcasts), every site runs a Manku–Motwani sticky sampler with creation
probability ``p``: an arriving item increments its counter if one exists;
otherwise a counter is created with probability ``p`` (and immediately
reported).  Existing-counter increments are reported with probability
``p``.  Independently, every arrival is forwarded as a raw sample with
probability ``p`` (the ``d`` stream).

The coordinator estimates the per-round contribution of site ``i`` to the
frequency of ``j`` by equation (4):

    f_hat'_ij = c_bar_ij - 2 + 2/p     if a counter report exists,
              = -d_ij / p              otherwise,

which is *unbiased* with variance ``O(1/p^2)`` (Lemma 3.1) — the negative
branch cancels the conditional bias of the counter branch.  Round
estimates are frozen at round boundaries and summed.

Space is capped by *virtual sites*: a site that has received ``n_bar/k``
elements in the round notifies the coordinator, clears its memory and
continues as a fresh virtual site, bounding its space at
``O(p * n_bar / k) = O(1/(eps * sqrt(k)))`` expected words.

Total communication: ``O(sqrt(k)/eps * log N)`` (Theorem 3.1).
"""

from __future__ import annotations

import heapq

from ...runtime import Coordinator, Message, Network, Site, TrackingScheme
from ...runtime.rng import coin, derive_rng
from ...sketch.sticky_sampling import StickySampler
from ..rounds import (
    GlobalCountTracker,
    LocalDoubler,
    QuietBetweenDoublings,
    report_probability,
)

__all__ = [
    "RandomizedFrequencyScheme",
    "RandomizedFrequencyCoordinator",
    "RandomizedFrequencySite",
]

MSG_DOUBLE = "double"  # site -> coord: local count doubled
MSG_COUNTER = "counter"  # site -> coord: (item, counter value)
MSG_SAMPLE = "sample"  # site -> coord: raw sampled item (the d stream)
MSG_SPLIT = "split"  # site -> coord: virtual-site restart notification
MSG_ROUND = "round"  # coord -> all: new n_bar, round restart


class RandomizedFrequencySite(QuietBetweenDoublings, Site):
    """Site-side state: a sticky sampler, O(1/(eps sqrt(k))) words."""

    def __init__(self, site_id, network, k, eps, seed, virtual_sites=True,
                 sample_correction=True):
        super().__init__(site_id, network)
        self.k = k
        self.eps = eps
        self.rng = derive_rng(seed, "freq-site", site_id)
        self.doubler = LocalDoubler()
        self.n_bar = 0
        self.p = 1.0
        self.sticky = StickySampler(1.0, derive_rng(seed, "freq-sticky", site_id))
        self.round_elements = 0
        self.virtual_sites = virtual_sites
        self.sample_correction = sample_correction

    def on_element(self, item) -> None:
        # 1. Global count tracking first: a doubling report may trigger a
        # round broadcast, whose handler clears our round state; the
        # current element is then processed in the new round.
        report = self.doubler.increment()
        if report is not None:
            self.send(MSG_DOUBLE, report)

        # 2. Virtual-site split keeps per-round intake below n_bar/k.
        if self.virtual_sites and self.n_bar > 0:
            cap = max(1, self.n_bar // self.k)
            if self.round_elements >= cap:
                self._split()
        self.round_elements += 1

        # 3. Sticky counter list: creation happens with probability p and
        # is always reported; increments are reported with probability p.
        created, count = self.sticky.add(item)
        if created:
            self.send(MSG_COUNTER, (item, 1), words=2)
        elif count > 0 and coin(self.rng, self.p):
            self.send(MSG_COUNTER, (item, count), words=2)

        # 4. Independent raw sample (the d stream of estimator (4)).
        # Disabled under the ablation that reproduces the biased
        # estimator (2) of the paper.
        if self.sample_correction and coin(self.rng, self.p):
            self.send(MSG_SAMPLE, item, words=1)

    def on_elements(self, items) -> None:
        # Inlined on_element with identical state transitions and RNG
        # draw order (both the site rng and the sticky rng).  Any send may
        # re-enter on_message via a round broadcast, clearing the sticky
        # sampler and the round counters — so locals are flushed to self
        # immediately before every send and re-read immediately after.
        doubler = self.doubler
        dn = doubler.n
        dlast = doubler.last_report
        sticky = self.sticky
        counters = sticky.counters  # cleared in place; alias stays valid
        counters_get = counters.get
        sticky_rng = sticky.rng.random
        site_rng = self.rng.random
        send = self.send
        virtual = self.virtual_sites
        correction = self.sample_correction
        k = self.k
        relems = self.round_elements
        n_bar = self.n_bar
        cap = (n_bar // k or 1) if (virtual and n_bar > 0) else 0
        p = self.p
        sp = sticky.p
        pending = 0  # sticky arrivals not yet flushed to sticky.n

        for item in items:
            # 1. Global count tracking (may restart the round re-entrantly).
            dn += 1
            if dn >= 2 * dlast or dlast == 0:
                dlast = dn
                doubler.n = dn
                doubler.last_report = dlast
                sticky.n += pending
                pending = 0
                self.round_elements = relems
                send(MSG_DOUBLE, dn)
                relems = self.round_elements
                n_bar = self.n_bar
                cap = (n_bar // k or 1) if (virtual and n_bar > 0) else 0
                p = self.p
                sp = sticky.p

            # 2. Virtual-site split.
            if cap and relems >= cap:
                doubler.n = dn
                doubler.last_report = dlast
                sticky.n += pending
                pending = 0
                self.round_elements = relems
                self._split()
                relems = self.round_elements
            relems += 1

            # 3. Sticky counter list.
            pending += 1
            cur = counters_get(item)
            if cur is not None:
                count = cur + 1
                counters[item] = count
                created = False
            else:
                if sp >= 1.0 or sticky_rng() < sp:
                    counters[item] = 1
                    count = 1
                    created = True
                else:
                    count = 0
                    created = False
            if created:
                doubler.n = dn
                doubler.last_report = dlast
                sticky.n += pending
                pending = 0
                self.round_elements = relems
                send(MSG_COUNTER, (item, 1), words=2)
                relems = self.round_elements
                n_bar = self.n_bar
                cap = (n_bar // k or 1) if (virtual and n_bar > 0) else 0
                p = self.p
                sp = sticky.p
            elif count > 0:
                if p >= 1.0 or site_rng() < p:
                    doubler.n = dn
                    doubler.last_report = dlast
                    sticky.n += pending
                    pending = 0
                    self.round_elements = relems
                    send(MSG_COUNTER, (item, count), words=2)
                    relems = self.round_elements
                    n_bar = self.n_bar
                    cap = (n_bar // k or 1) if (virtual and n_bar > 0) else 0
                    p = self.p
                    sp = sticky.p

            # 4. Independent raw sample.
            if correction:
                if p >= 1.0 or site_rng() < p:
                    doubler.n = dn
                    doubler.last_report = dlast
                    sticky.n += pending
                    pending = 0
                    self.round_elements = relems
                    send(MSG_SAMPLE, item, words=1)
                    relems = self.round_elements
                    n_bar = self.n_bar
                    cap = (n_bar // k or 1) if (virtual and n_bar > 0) else 0
                    p = self.p
                    sp = sticky.p

        doubler.n = dn
        doubler.last_report = dlast
        sticky.n += pending
        self.round_elements = relems

    def _split(self) -> None:
        """Become a fresh virtual site: notify, clear, restart."""
        self.send(MSG_SPLIT, None, words=1)
        self.sticky.clear()
        self.round_elements = 0

    def on_message(self, message: Message) -> None:
        if message.kind != MSG_ROUND:
            return
        self.n_bar = message.payload
        self.p = report_probability(self.n_bar, self.k, self.eps)
        self.sticky.p = self.p
        self.sticky.clear()
        self.round_elements = 0

    def space_words(self) -> int:
        return self.sticky.space_words() + self.doubler.space_words() + 3


class RandomizedFrequencyCoordinator(Coordinator):
    """Maintains per-round estimator state and frozen past-round sums."""

    def __init__(self, network, k, eps, seed):
        super().__init__(network)
        self.k = k
        self.eps = eps
        self.tracker = GlobalCountTracker()
        self.p = 1.0
        # Current-round state, keyed by virtual site (site_id, incarnation).
        self.incarnation = {}
        self.counters = {}  # vsite -> {item: c_bar}
        self.dcounts = {}  # vsite -> {item: d}
        self.round_estimate = {}  # item -> sum of f_hat'_ij this round
        # Sum of frozen per-round estimates.
        self.frozen = {}

    # -- message handling --------------------------------------------------

    def _vsite(self, site_id):
        return (site_id, self.incarnation.get(site_id, 0))

    def on_message(self, site_id: int, message: Message) -> None:
        kind = message.kind
        if kind == MSG_COUNTER:
            item, value = message.payload
            self._on_counter(self._vsite(site_id), item, value)
        elif kind == MSG_SAMPLE:
            self._on_sample(self._vsite(site_id), message.payload)
        elif kind == MSG_SPLIT:
            self.incarnation[site_id] = self.incarnation.get(site_id, 0) + 1
        elif kind == MSG_DOUBLE:
            n_bar = self.tracker.update(site_id, message.payload)
            if n_bar is not None:
                self._start_round(n_bar)

    def _on_counter(self, vsite, item, value) -> None:
        per_site = self.counters.setdefault(vsite, {})
        previous = per_site.get(item)
        inv_p = 1.0 / self.p
        est = self.round_estimate
        if previous is None:
            # Counter branch replaces the -d/p branch for this (site, item).
            d = self.dcounts.get(vsite, {}).get(item, 0)
            est[item] = est.get(item, 0.0) + (value - 2 + 2 * inv_p) + d * inv_p
        else:
            est[item] = est.get(item, 0.0) + (value - previous)
        per_site[item] = value

    def _on_sample(self, vsite, item) -> None:
        per_site = self.dcounts.setdefault(vsite, {})
        per_site[item] = per_site.get(item, 0) + 1
        if item not in self.counters.get(vsite, {}):
            est = self.round_estimate
            est[item] = est.get(item, 0.0) - 1.0 / self.p

    def _start_round(self, n_bar) -> None:
        """Freeze the finished round's estimates, reset, broadcast."""
        for item, value in self.round_estimate.items():
            self.frozen[item] = self.frozen.get(item, 0.0) + value
        self.counters.clear()
        self.dcounts.clear()
        self.round_estimate.clear()
        self.incarnation.clear()
        self.p = report_probability(n_bar, self.k, self.eps)
        self.broadcast(MSG_ROUND, n_bar)

    # -- queries -----------------------------------------------------------

    def estimate_frequency(self, item) -> float:
        """Unbiased estimate of the global frequency of ``item``.

        May be negative (the unbiased correction term); callers that want
        a usable count can clamp at 0.
        """
        return self.frozen.get(item, 0.0) + self.round_estimate.get(item, 0.0)

    def heavy_hitters(self, phi: float) -> dict:
        """Items whose estimated frequency reaches ``phi * n``.

        ``n`` is taken from the internal constant-factor tracker (n').
        """
        threshold = phi * max(1, self.tracker.n_prime)
        items = set(self.frozen) | set(self.round_estimate)
        out = {}
        for item in items:
            f = self.estimate_frequency(item)
            if f >= threshold:
                out[item] = f
        return out

    def top_items(self, m: int) -> list:
        """The m items with the largest estimated frequencies.

        The top-k monitoring query of Babcock & Olston [3], answered
        from the tracker's state: returns (item, estimate) pairs, best
        first.  Accuracy follows from the eps*n per-item guarantee.
        """
        items = set(self.frozen) | set(self.round_estimate)
        scored = [(j, self.estimate_frequency(j)) for j in items]
        return heapq.nsmallest(m, scored, key=lambda t: -t[1])

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
        words = self.tracker.space_words() + len(self.incarnation) + 2
        for d in self.counters.values():
            words += 2 * len(d)
        for d in self.dcounts.values():
            words += 2 * len(d)
        words += 2 * len(self.round_estimate) + 2 * len(self.frozen)
        return words


class RandomizedFrequencyScheme(TrackingScheme):
    """Factory for the Section 3.1 protocol.

    Parameters
    ----------
    epsilon:
        Additive error target, as a fraction of the current total count n:
        any frequency is estimated within ``eps * n`` with constant
        probability at any fixed time.
    virtual_sites:
        Enable the n_bar/k per-round space cap (ablation knob, default on).
    sample_correction:
        Use the unbiased estimator (4) with the -d/p branch (default).
        When False, reproduces the "tempting but wrong" biased
        estimator (2) — an ablation showing the Theta(eps n / sqrt(k))
        per-site bias the paper warns about.
    """

    name = "frequency/randomized"
    one_way_capable = False

    def __init__(self, epsilon: float, virtual_sites: bool = True,
                 sample_correction: bool = True):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        self.virtual_sites = virtual_sites
        self.sample_correction = sample_correction

    def make_coordinator(self, network, k, seed):
        return RandomizedFrequencyCoordinator(network, k, self.epsilon, seed)

    def make_site(self, network, site_id, k, seed):
        return RandomizedFrequencySite(
            site_id, network, k, self.epsilon, seed, self.virtual_sites,
            self.sample_correction,
        )

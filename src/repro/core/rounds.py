"""Constant-factor tracking of the global count n (shared machinery).

All three trackers in the paper first maintain ``n_bar``, a constant-factor
approximation of the current total count ``n``:

* every site reports its local count whenever it doubles;
* the coordinator sums the last reports, and when that sum has doubled
  since the last broadcast, it broadcasts the new value.

The broadcasts divide time into ``O(log N)`` *rounds*; within a round,
``n`` stays within a constant factor of ``n_bar``.  Total cost:
``O(k log N)`` messages.  This module provides the site-side and
coordinator-side halves of that protocol, plus the report-probability
schedule ``p = 1 / floor_pow2(eps * n_bar / sqrt(k))`` used by the
randomized algorithms.
"""

from __future__ import annotations

import math

from ..persistence.codec import PersistableState

__all__ = [
    "LocalDoubler",
    "QuietBetweenDoublings",
    "GlobalCountTracker",
    "floor_pow2",
    "report_probability",
]


def floor_pow2(x: float) -> int:
    """Largest power of two that is <= x (requires x >= 1)."""
    if x < 1:
        raise ValueError("floor_pow2 requires x >= 1")
    return 1 << (int(x).bit_length() - 1)


def report_probability(n_bar: float, k: int, eps: float) -> float:
    """The paper's probability schedule for the current round.

    ``p = 1`` while ``n_bar <= sqrt(k)/eps``; afterwards
    ``p = 1 / floor_pow2(eps * n_bar / sqrt(k))``, so ``p`` is always an
    inverse power of two and halves as ``n_bar`` grows.
    """
    if n_bar <= math.sqrt(k) / eps:
        return 1.0
    return 1.0 / floor_pow2(eps * n_bar / math.sqrt(k))


class LocalDoubler(PersistableState):
    """Site-side half: report the local count each time it doubles."""

    def __init__(self):
        self.n = 0
        self.last_report = 0

    def increment(self):
        """Count one arrival; return the value to report, or None."""
        self.n += 1
        if self.n >= 2 * self.last_report or self.last_report == 0:
            self.last_report = self.n
            return self.n
        return None

    def quiet_horizon(self) -> int:
        """Arrivals :meth:`increment` will still count in silence: the
        next report fires at ``n = 2 * last_report`` (at once while
        nothing has been reported)."""
        return max(0, 2 * self.last_report - self.n - 1)

    def space_words(self) -> int:
        return 2


class QuietBetweenDoublings:
    """Site mixin: the doubling report is the only uplink the
    coordinator ever answers.

    True of all three randomized trackers — every other message kind
    (probabilistic updates, counter reports, samples, splits, summaries)
    is absorbed by the coordinator without a word back — so a site whose
    ``doubler`` is ``m`` arrivals short of its next report can take
    ``m`` elements unobserved (:meth:`Site.quiet_horizon`)."""

    @property
    def n_local(self) -> int:
        return self.doubler.n

    def quiet_horizon(self) -> int:
        return self.doubler.quiet_horizon()


class GlobalCountTracker(PersistableState):
    """Coordinator-side half: maintain n' and decide when to broadcast.

    ``update`` ingests one site's doubling report and returns the new
    ``n_bar`` if a broadcast is due (the running sum doubled), else None.
    """

    def __init__(self):
        self._last = {}
        self.n_prime = 0
        self.n_bar = 0

    def update(self, site_id: int, value: int):
        """Record a doubling report; return new n_bar if it should be
        broadcast now, else None."""
        prev = self._last.get(site_id, 0)
        self._last[site_id] = value
        self.n_prime += value - prev
        if self.n_prime >= 2 * self.n_bar and self.n_prime > 0:
            self.n_bar = self.n_prime
            return self.n_bar
        return None

    def space_words(self) -> int:
        return len(self._last) + 2

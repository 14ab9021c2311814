"""Misra–Gries frequent-items summary [20].

Maintains at most ``capacity`` counters over a stream of items.  For any
item ``j``, the reported count undercounts the true frequency by at most
``n / (capacity + 1)`` where ``n`` is the stream length — the classic
deterministic heavy-hitters guarantee in ``O(1/eps)`` space.
"""

from __future__ import annotations

from ..persistence.codec import PersistableState

__all__ = ["MisraGries"]


class MisraGries(PersistableState):
    """Deterministic heavy-hitters summary with bounded undercount.

    Parameters
    ----------
    capacity:
        Maximum number of counters kept.  With ``capacity = ceil(1/eps)``
        the undercount of any item is at most ``eps * n``.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.counters: dict = {}
        self.n = 0
        self.decrements = 0  # total decrement rounds applied

    def add(self, item, count: int = 1) -> None:
        """Process ``count`` occurrences of ``item``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self.n += count
        cur = self.counters.get(item)
        if cur is not None:
            self.counters[item] = cur + count
            return
        if len(self.counters) < self.capacity:
            self.counters[item] = count
            return
        # Decrement-all step.  The minimum counter bounds how far we can
        # decrement in one batch; repeat until the new item is absorbed.
        remaining = count
        while remaining > 0:
            if item in self.counters:
                self.counters[item] += remaining
                return
            if len(self.counters) < self.capacity:
                self.counters[item] = remaining
                return
            m = min(self.counters.values())
            dec = min(m, remaining)
            self.decrements += dec
            remaining -= dec
            self.counters = {
                j: c - dec for j, c in self.counters.items() if c > dec
            }

    def estimate(self, item) -> int:
        """Lower bound on the frequency of ``item``.

        The true frequency lies in ``[estimate, estimate + error_bound]``.
        """
        return self.counters.get(item, 0)

    def error_bound(self) -> float:
        """Maximum possible undercount for any item."""
        return self.n / (self.capacity + 1)

    def heavy_hitters(self, threshold: float):
        """Items whose *upper-bound* count reaches ``threshold``.

        Guaranteed to contain every item with true frequency
        >= threshold + error_bound().
        """
        bound = self.error_bound()
        return {
            j: c for j, c in self.counters.items() if c + bound >= threshold
        }

    def space_words(self) -> int:
        """Footprint: two words (item, count) per counter plus scalars."""
        return 2 * len(self.counters) + 2

"""Unbiased mergeable quantile summary (random-merge buffers).

This is the stand-in for "algorithm A" of Section 4 — the unbiased rank
summary of Suri et al. [24] / Agarwal et al. [1] ("Mergeable summaries").
It maintains equal-size buffers at geometric weights; two same-level
buffers are merged by merge-sorting and keeping either the odd- or
even-indexed elements with probability 1/2 each.  Rank estimates are
*unbiased* and their standard error over ``n`` elements with buffer size
``m`` is ``O((n/m) * sqrt(log(n/m)))``.

The builder ingests a stream; :meth:`finalize` freezes it into a compact
:class:`QuantileSummary` of ``(value, weight)`` pairs supporting O(log s)
rank queries.
"""

from __future__ import annotations

import bisect
import copy
import math
import random

from ..persistence.codec import PersistableState

__all__ = ["QuantileSketchBuilder", "QuantileSummary"]


class QuantileSummary(PersistableState):
    """Immutable weighted sample supporting unbiased rank queries."""

    def __init__(self, values, weights):
        """``values`` must be sorted; ``weights`` aligned with it."""
        self.values = list(values)
        self.weights = list(weights)
        # Prefix sums: cum[i] = total weight of values[:i].
        self._cum = [0.0]
        for w in self.weights:
            self._cum.append(self._cum[-1] + w)
        self.total_weight = self._cum[-1]

    def rank(self, x) -> float:
        """Estimated number of summarized elements smaller than ``x``."""
        idx = bisect.bisect_left(self.values, x)
        return self._cum[idx]

    def quantile(self, phi: float):
        """Smallest stored value whose estimated rank reaches ``phi * W``."""
        if not self.values:
            raise ValueError("empty summary")
        target = min(max(phi, 0.0), 1.0) * self.total_weight
        lo, hi = 0, len(self.values) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cum[mid + 1] >= target:
                hi = mid
            else:
                lo = mid + 1
        return self.values[lo]

    def size_words(self) -> int:
        """Shipping cost: one word per value plus one per distinct weight run."""
        return len(self.values) + 2

    def __len__(self) -> int:
        return len(self.values)


class QuantileSketchBuilder(PersistableState):
    """Streaming builder for :class:`QuantileSummary`.

    Arrivals collect in a partial buffer; every ``m``-th one turns it
    into a sorted weight-1 buffer, and two buffers of equal weight merge
    into one of twice the weight (see :meth:`add_buffer`) — a binary
    counter of buffers, one ``rng`` draw per carry.

    The state after a sequence of arrivals depends only on that sequence,
    not on how it was delivered: :meth:`extend` with any split of the
    sequence, and :meth:`add_buffer` for a stretch of exactly ``m``, leave
    the same buffers, the same partial and the same ``rng`` position as
    one :meth:`add` per element.  Callers that feed several builders the
    same sequence (the rank tracker's chunk tree) rely on this to hold
    arrivals once and hand each builder its backlog only when a buffer
    is due.

    Parameters
    ----------
    buffer_size:
        Elements per buffer (``m``).  Larger means more accurate and
        bigger summaries.
    rng:
        Source of the random odd/even merge choices.
    """

    def __init__(self, buffer_size: int, rng: random.Random):
        if buffer_size < 1:
            raise ValueError("buffer_size must be >= 1")
        self.m = buffer_size
        self.rng = rng
        self._partial: list = []  # raw, unsorted level-0 intake
        self._buffers: dict = {}  # level -> list of sorted buffers
        self.n = 0

    @classmethod
    def for_error(cls, n_max: int, abs_error: float, rng: random.Random):
        """Builder sized so the rank std-error over ``n_max`` elements
        is approximately ``abs_error``.

        The random-halving merge at weight ``w`` adds zero-mean rank error
        with variance <= w^2/4; summing the geometric series over all
        merges gives a standard error of about ``n / (2.8 m)``, so we pick
        ``m ~ 0.4 n / err``.  ``m`` is then rounded so ``n_max / m`` is a
        power of two: after exactly ``n_max`` insertions all buffers
        consolidate into a *single* top buffer, and the finalized summary
        has ~m entries instead of ~m log(n/m).
        """
        if abs_error <= 0:
            raise ValueError("abs_error must be positive")
        ratio = max(1.0, n_max / abs_error)
        m0 = max(4, int(math.ceil(0.4 * ratio)))
        if n_max <= 4 * m0:
            # Small node: keep it exact (no merges ever happen).
            return cls(max(4, n_max), rng)
        if n_max & (n_max - 1) == 0:
            # n_max is a power of two (the rank tracker arranges this):
            # a power-of-two m makes n_max / m a power of two, so the
            # binary counter of buffers collapses to a single top buffer.
            m = 1 << int(math.ceil(math.log2(m0)))
            return cls(min(m, n_max), rng)
        s = int(math.floor(math.log2(n_max / m0)))
        m = int(math.ceil(n_max / (1 << s)))
        return cls(max(4, m), rng)

    # -- updates -----------------------------------------------------------

    def add(self, value) -> None:
        """Insert one element."""
        self.extend((value,))

    def extend(self, values) -> None:
        """Insert a run of elements, in order: each joins the partial
        buffer, and every ``m``-th one turns it into a sorted buffer."""
        m = self.m
        partial = self._partial
        held = len(partial)
        partial.extend(values)
        full = len(partial) - len(partial) % m
        # add_buffer counts the elements that leave in full buffers.
        self.n += len(partial) - held - full
        if full:
            self._partial = partial[full:]
            for lo in range(0, full, m):
                self.add_buffer(sorted(partial[lo : lo + m]))

    def add_buffer(self, run: list, level: int = 0) -> None:
        """Insert one sorted buffer of ``m`` elements, each standing for
        ``2**level`` arrivals that precede anything in the partial buffer.

        This is the one place buffers combine: two of equal weight merge
        into one of twice the weight, keeping the odd- or the even-indexed
        half of the merged order at random, and the carry repeats upward.
        ``sorted`` on the concatenation is that merge — timsort finds the
        two runs and merges them stably, ties keeping the earlier buffer's
        elements first.  ``run`` is kept, not copied (a stored buffer is
        never modified in place), so one sorted run can serve several
        builders that saw the same stretch.
        """
        if len(run) != self.m:
            raise ValueError("a buffer holds exactly m elements")
        self.n += self.m << level
        buffers = self._buffers
        while True:
            stack = buffers.get(level)
            if stack is None:
                buffers[level] = [run]
                return
            if not stack:
                stack.append(run)
                return
            merged = sorted(stack.pop() + run)
            run = merged[1::2] if self.rng.random() < 0.5 else merged[::2]
            level += 1

    def merge_from(self, other: "QuantileSketchBuilder") -> None:
        """Absorb another builder with the same ``m`` (mergeability)."""
        if other.m != self.m:
            raise ValueError("buffer sizes must match to merge")
        for level in sorted(other._buffers):
            for buf in other._buffers[level]:
                self.add_buffer(list(buf), level)
        self.extend(other._partial)

    # -- snapshot stand-ins ------------------------------------------------

    def holding(self, values: list) -> "QuantileSketchBuilder":
        """A copy that additionally holds ``values`` in its partial buffer
        (they must not fill it); buffers and ``rng`` are shared, neither
        builder is advanced.  The inverse of :meth:`release`."""
        if len(self._partial) + len(values) >= self.m:
            raise ValueError("holding() values would fill a buffer")
        twin = copy.copy(self)
        twin._partial = self._partial + values
        twin.n = self.n + len(values)
        return twin

    def release(self) -> list:
        """Remove and return the partial buffer, as if its elements had
        not arrived yet."""
        released, self._partial = self._partial, []
        self.n -= len(released)
        return released

    # -- queries -----------------------------------------------------------

    def finalize(self) -> QuantileSummary:
        """Freeze into a compact weighted-sample summary.

        The partial buffer is kept exactly (weight 1), so summaries of
        short streams are lossless.
        """
        pairs = [(v, 1.0) for v in self._partial]
        for level, stack in self._buffers.items():
            w = float(1 << level)
            for buf in stack:
                pairs.extend((v, w) for v in buf)
        pairs.sort(key=lambda t: t[0])
        values = [v for v, _ in pairs]
        weights = [w for _, w in pairs]
        return QuantileSummary(values, weights)

    def rank(self, x) -> float:
        """Rank estimate straight from the builder (used by tests)."""
        est = sum(1 for v in self._partial if v < x)
        for level, stack in self._buffers.items():
            w = 1 << level
            for buf in stack:
                est += w * bisect.bisect_left(buf, x)
        return float(est)

    def space_words(self) -> int:
        words = len(self._partial) + 3
        for stack in self._buffers.values():
            for buf in stack:
                words += len(buf) + 1
        return words

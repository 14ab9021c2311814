"""Continuous random sampling from distributed streams ([9] baseline).

Binary-Bernoulli protocol: every arriving element is assigned a geometric
level (``P(level >= j) = 2^-j``); sites forward elements whose level
clears the coordinator's current threshold ``j``.  When the retained
sample grows past ``2s`` the coordinator raises ``j`` by one, discards
sub-threshold elements and broadcasts the new threshold.  The surviving
set is a Bernoulli(``2^-j``) sample of everything seen, of expected size
in ``[s, 2s)``.

With ``s = Theta(1/eps^2)`` this solves count, frequency *and* rank
tracking within ``eps * n`` with constant probability, at communication
``O((1/eps^2 + k) log N)`` — the row of Table 1 the paper's algorithms
beat whenever ``k = o(1/eps^2)``.
"""

from __future__ import annotations

import math

from ...runtime import Coordinator, Message, Network, Site, TrackingScheme
from ...runtime.batching import as_column
from ...runtime.rng import derive_rng, trailing_level
from ..rank.util import quantile_from_rank_tables, step_table

__all__ = ["DistributedSamplingScheme"]

MSG_ITEM = "item"  # site -> coord: (element, level), 2 words
MSG_LEVEL = "level"  # coord -> all: new threshold, 1 word


class _SamplingSite(Site):
    """Forward elements whose geometric level clears the threshold."""

    def __init__(self, site_id, network, seed):
        super().__init__(site_id, network)
        self.rng = derive_rng(seed, "sampling-site", site_id)
        self.level = 0
        self.n_local = 0

    def on_element(self, item) -> None:
        self.n_local += 1
        lvl = trailing_level(self.rng)
        if lvl >= self.level:
            self.send(MSG_ITEM, (item, lvl), words=2)

    def on_message(self, message: Message) -> None:
        if message.kind == MSG_LEVEL:
            self.level = message.payload

    def space_words(self) -> int:
        return 2


class _SamplingCoordinator(Coordinator):
    """Holds the level sample; answers count/frequency/rank queries."""

    def __init__(self, network, sample_size):
        super().__init__(network)
        self.s = sample_size
        self.level = 0
        self.sample: list = []  # (item, level) pairs

    def on_message(self, site_id: int, message: Message) -> None:
        if message.kind != MSG_ITEM:
            return
        item, lvl = message.payload
        if lvl < self.level:
            return  # stale: the site had not yet seen the new threshold
        self.sample.append((item, lvl))
        while len(self.sample) > 2 * self.s:
            self.level += 1
            self.sample = [(x, l) for (x, l) in self.sample if l >= self.level]
            self.broadcast(MSG_LEVEL, self.level)

    # -- queries -----------------------------------------------------------

    @property
    def scale(self) -> float:
        """Inverse inclusion probability, 2^level."""
        return float(1 << self.level)

    def estimate(self) -> float:
        """Estimate of the total count n."""
        return len(self.sample) * self.scale

    def estimate_total(self) -> float:
        """Alias of :meth:`estimate` under the rank coordinators' name."""
        return self.estimate()

    def estimate_frequency(self, item) -> float:
        """Estimate of the frequency of ``item``."""
        hits = sum(1 for (x, _) in self.sample if x == item)
        return hits * self.scale

    def estimate_rank(self, x) -> float:
        """Estimate of the global rank of ``x``."""
        below = sum(1 for (v, _) in self.sample if v < x)
        return below * self.scale

    def heavy_hitters(self, phi: float) -> dict:
        threshold = phi * max(1.0, self.estimate())
        counts = {}
        for item, _ in self.sample:
            counts[item] = counts.get(item, 0) + 1
        return {
            j: c * self.scale
            for j, c in counts.items()
            if c * self.scale >= threshold
        }

    def top_items(self, m: int) -> list:
        """The m items with the largest estimated frequencies."""
        counts = {}
        for item, _ in self.sample:
            counts[item] = counts.get(item, 0) + 1
        scored = sorted(counts.items(), key=lambda t: -t[1])
        return [(j, c * self.scale) for j, c in scored[:m]]

    def rank_table(self) -> tuple:
        """:meth:`estimate_rank` as a step table (see
        :mod:`~repro.core.rank.util`): every sampled value at the
        sample's scale."""
        values = [v for (v, _) in self.sample]
        weights = [self.scale] * len(values)
        return (*step_table(as_column(values), weights), self.estimate())

    def quantile(self, phi: float):
        table = self.rank_table()
        return quantile_from_rank_tables(table[0], [table], phi)

    # -- merge hooks (cross-shard query plane) -----------------------------

    def estimate_frequencies(self, items) -> list:
        """Batched :meth:`estimate_frequency` for cross-shard merges."""
        return [self.estimate_frequency(j) for j in items]

    def frequency_basis(self) -> float:
        """The stream-length basis heavy-hitter thresholds scale by."""
        return self.estimate()

    def space_words(self) -> int:
        return 2 * len(self.sample) + 2


class DistributedSamplingScheme(TrackingScheme):
    """Factory for the [9]-style continuous sampling baseline.

    Parameters
    ----------
    epsilon:
        Target error; the retained sample has size ``Theta(1/eps^2)``.
    sample_constant:
        The constant c in ``s = c / eps^2`` (default 4).
    """

    name = "sampling/level"
    one_way_capable = False

    def __init__(self, epsilon: float, sample_constant: float = 4.0):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        self.sample_size = max(8, int(math.ceil(sample_constant / epsilon**2)))

    def make_coordinator(self, network, k, seed):
        return _SamplingCoordinator(network, self.sample_size)

    def make_site(self, network, site_id, k, seed):
        return _SamplingSite(site_id, network, seed)

"""Randomized rank (quantile) tracking — Section 4.

Within each round (``n_bar`` doublings), every site splits its arrivals
into *chunks* of ``2^h * b`` elements where ``b = eps * n_bar / sqrt(k)``
is the block size and ``h`` the height of a balanced binary tree over the
blocks of one chunk.  For each tree node ``v`` at level ``l`` the site
runs an unbiased rank summary over ``D(v)`` with absolute standard error
``b / sqrt(h+1)`` (the paper's per-level error parameter
``2^-l / sqrt(h)``); when the node is full, its summary is shipped and the
local instance freed, so at most ``h + 1`` instances are alive at a time.

The coordinator keeps, per chunk, only the *canonical decomposition* —
maximal full nodes (a parent's arrival evicts its two children), at most
``h + 1`` summaries whose variances sum to ``b^2``.  The incomplete leaf
block is covered by Bernoulli(p)-sampled raw elements with
``p = sqrt(k) / (eps * n_bar)`` (variance ``<= b/p = b^2``).  Per-chunk
variance is ``O(b^2)``; with ``<= 2k`` chunks per round the total is
``O((eps n)^2)`` and earlier rounds decay geometrically (Theorem 4.1).

Communication: ``O(sqrt(k)/eps * log N * h^1.5)`` words.
"""

from __future__ import annotations

import math

from ...persistence.codec import StateCodecError
from ...runtime import Coordinator, Message, Network, Site, TrackingScheme
from ...runtime.batching import as_column
from ...runtime.rng import coin, derive_rng
from ...sketch.mergeable_quantile import QuantileSketchBuilder
from ..rounds import GlobalCountTracker, LocalDoubler, QuietBetweenDoublings
from .util import quantile_from_rank_tables, step_table

__all__ = [
    "RandomizedRankScheme",
    "RandomizedRankCoordinator",
    "RandomizedRankSite",
    "RoundGeometry",
]

MSG_DOUBLE = "double"  # site -> coord: local count doubled
MSG_SUMMARY = "summary"  # site -> coord: (chunk, level, index, summary)
MSG_RSAMPLE = "rsample"  # site -> coord: one Bernoulli-sampled element
MSG_ROUND = "round"  # coord -> all: new n_bar


class RoundGeometry:
    """Block size, tree height and sampling probability for one round.

    Derived identically by sites and coordinator from ``(n_bar, k, eps)``.
    ``flat=True`` collapses the tree to leaves only (the ablation showing
    why the binary tree is needed for the variance budget).
    """

    def __init__(self, n_bar: int, k: int, eps: float, flat: bool = False):
        self.n_bar = n_bar
        self.k = k
        self.eps = eps
        # Block size b = eps * n_bar / sqrt(k), rounded up to a power of
        # two so every node size is a power of two and its summary
        # consolidates into a single buffer (see for_error).
        raw_block = max(1.0, eps * n_bar / math.sqrt(k))
        self.block = 1 << int(math.ceil(math.log2(raw_block)))
        # Blocks per chunk, rounded up to a power of two so the tree is
        # full and the top node completes exactly at the chunk boundary.
        raw_blocks = max(1, int(math.ceil(n_bar / (k * self.block))))
        self.height = 0 if flat else max(0, int(math.ceil(math.log2(raw_blocks))))
        self.blocks_per_chunk = 1 << self.height if not flat else raw_blocks
        self.chunk = self.blocks_per_chunk * self.block
        # Residual sampling probability p = sqrt(k) / (eps * n_bar).
        self.p = min(1.0, math.sqrt(k) / (eps * n_bar)) if n_bar > 0 else 1.0
        # Per-node absolute std-error target: b / sqrt(h + 1).
        self.node_error = self.block / math.sqrt(self.height + 1)
        self.flat = flat

    def node_elements(self, level: int) -> int:
        """Elements covered by one full node at ``level``."""
        return (1 << level) * self.block


class _ChunkTree:
    """Site-side state of algorithm C for one chunk.

    Every tree node summarises the same arrival *sequence* restricted to
    its span, so the sequence is held once: arrivals land in one shared
    ``intake`` list, and a level's builder is handed its backlog (the
    intake's tail it has not seen) only at a count where it is *due* —
    its buffer fills or its node completes.  Builders are delivery-
    independent (see :class:`QuantileSketchBuilder`), so each ends up in
    the state one ``add`` per element per level would have left it in.

    What that per-element loop also fixed is the order of draws on the
    site's single RNG: at an element where several levels fill a buffer,
    level 0 drew its merge coins first, then level 1, and so on, all
    after that element's residual-sample coin.  :meth:`flush` therefore
    visits the due levels bottom-up at exactly that element, and between
    due counts no level draws at all — the draw sequence is unchanged.

    Between calls every builder's own partial buffer is empty; the open
    buffers of all levels are suffixes of ``intake``, which is cleared
    when every level is due at once and so stays shorter than the
    largest buffer size.  Snapshots keep the per-level layout: each
    builder is encoded holding its backlog (``_persist_state_``) and a
    decoded tree folds the partials back into one intake
    (``_persist_restored_``).
    """

    def __init__(self, geometry: RoundGeometry, rng):
        self.geometry = geometry
        self.rng = rng
        self.count = 0
        levels = 1 if geometry.flat else geometry.height + 1
        self.builders = [
            QuantileSketchBuilder.for_error(
                geometry.node_elements(level), geometry.node_error, rng
            )
            for level in range(levels)
        ]
        self.indices = [0] * levels
        self.intake = []
        self._derive()

    def _derive(self) -> None:
        """Per-level node size and stride — a level is due at multiples
        of its stride, where a buffer fills or the node completes — and
        the stride every due count shares (callers test it per element).
        Being handed a backlog early is harmless, so a gcd is enough
        should a buffer size ever not divide its node."""
        self.nodes = [
            self.geometry.node_elements(level)
            for level in range(len(self.builders))
        ]
        self.strides = [
            math.gcd(node, builder.m) if builder.m < node else node
            for node, builder in zip(self.nodes, self.builders)
        ]
        self.stride = math.gcd(*self.strides)

    def add(self, value) -> list:
        """Take one element; return the nodes it completed."""
        self.intake.append(value)
        self.count += 1
        return [] if self.count % self.stride else self.flush()

    def _backlog(self, level: int) -> int:
        """Arrivals of the level's open node its builder has not seen."""
        in_node = self.count - self.indices[level] * self.nodes[level]
        return in_node - self.builders[level].n

    def flush(self) -> list:
        """Hand every due level its backlog, bottom-up; return completed
        nodes as (level, index, summary) tuples."""
        count = self.count
        intake = self.intake
        builders = self.builders
        indices = self.indices
        nodes = self.nodes
        out = []
        drained = True
        run = ()  # the last full buffer, sorted once for equal-m levels
        for level, stride in enumerate(self.strides):
            if count % stride:
                drained = False
                continue
            builder = builders[level]
            m = builder.m
            node = nodes[level]
            in_node = count - indices[level] * node
            backlog = in_node - builder.n
            if backlog == m:
                if len(run) != m:
                    run = sorted(intake[-m:])
                builder.add_buffer(run)
            else:
                builder.extend(intake[len(intake) - backlog :])
            if in_node == node:
                out.append((level, indices[level], builder.finalize()))
                indices[level] += 1
                builders[level] = QuantileSketchBuilder(m, self.rng)
        if drained:
            intake.clear()
        return out

    @property
    def full(self) -> bool:
        return self.count >= self.geometry.chunk

    def space_words(self) -> int:
        held = sum(b.space_words() for b in self.builders)
        return held + len(self.intake) + 4

    # -- snapshot layout (codec hooks) -------------------------------------

    def _persist_state_(self) -> dict:
        intake = self.intake
        return {
            "geometry": self.geometry,
            "rng": self.rng,
            "count": self.count,
            "builders": [
                builder.holding(intake[len(intake) - self._backlog(level) :])
                for level, builder in enumerate(self.builders)
            ],
            "indices": self.indices,
        }

    def _persist_restored_(self) -> None:
        self._derive()
        partials = [builder.release() for builder in self.builders]
        self.intake = max(partials, key=len)
        for level, partial in enumerate(partials):
            tail = self.intake[len(self.intake) - len(partial) :]
            if len(partial) != self._backlog(level) or partial != tail:
                raise StateCodecError(
                    f"rank chunk-tree snapshot: level {level}'s open buffer "
                    f"{partial!r} is not the tail of the chunk's arrivals "
                    f"(count {self.count}, longest open buffer "
                    f"{self.intake!r}); the per-level layout requires every "
                    "level to have seen the same sequence"
                )


class RandomizedRankSite(QuietBetweenDoublings, Site):
    """Site-side state machine of the Section 4 protocol."""

    def __init__(self, site_id, network, k, eps, seed, flat=False):
        super().__init__(site_id, network)
        self.k = k
        self.eps = eps
        self.flat = flat
        self.rng = derive_rng(seed, "rank-site", site_id)
        self.doubler = LocalDoubler()
        self.geometry = None  # set on first round broadcast
        self.tree = None
        self.chunk_index = 0

    def on_element(self, item) -> None:
        report = self.doubler.increment()
        if report is not None:
            self.send(MSG_DOUBLE, report)
        if self.geometry is None:
            # Can only happen if the first broadcast has not fired yet,
            # i.e. before the very first element anywhere; the doubling
            # report above always triggers it, so geometry exists now.
            raise RuntimeError("round geometry missing; no broadcast seen")

        # Residual Bernoulli sample covers the incomplete leaf block.
        if coin(self.rng, self.geometry.p):
            self.send(MSG_RSAMPLE, item, words=1)

        completed = self.tree.add(item)
        if completed:
            self._ship(completed)

    def _ship(self, completed) -> None:
        """Send the summaries of the nodes one element completed; the top
        node completes exactly when the chunk is full."""
        for level, index, summary in completed:
            self.send(
                MSG_SUMMARY,
                (self.chunk_index, level, index, summary),
                words=summary.size_words() + 3,
            )
        if self.tree.full:
            self.chunk_index += 1
            self.tree = _ChunkTree(self.geometry, self.rng)

    def _loop_state(self):
        """What on_elements holds in locals and a re-entrant on_message
        can replace."""
        tree = self.tree
        return tree, tree.intake.append, tree.count, tree.stride, self.geometry.p

    def on_elements(self, items) -> None:
        # Inlined on_element: same state transitions, same draws on the
        # site RNG in the same order (coin() skips the draw at p >= 1,
        # mirrored here), through the same tree.  A send can re-enter
        # on_message — a MSG_DOUBLE may start a round, replacing geometry
        # and tree — so the counters held in locals are written back
        # before every send and all locals re-read after it.
        if self.tree is None:
            # No round yet: the first element's doubling report brings
            # the geometry (or on_element raises).
            if not len(items):
                return
            self.on_element(items[0])
            items = items[1:]
        doubler = self.doubler
        dn = doubler.n
        report_at = 2 * doubler.last_report
        draw = self.rng.random
        # _loop_state(), spelled out: runs of one element are the common
        # case on uniform arrivals, where a call per run is a measurable
        # share of the work.
        tree = self.tree
        take = tree.intake.append
        count = tree.count
        stride = tree.stride
        p = self.geometry.p
        for item in items:
            dn += 1
            if dn >= report_at:
                report_at = 2 * dn
                doubler.n = doubler.last_report = dn
                tree.count = count
                self.send(MSG_DOUBLE, dn)
                tree, take, count, stride, p = self._loop_state()
            if p >= 1.0 or draw() < p:
                doubler.n = dn
                tree.count = count
                self.send(MSG_RSAMPLE, item, words=1)
                tree, take, count, stride, p = self._loop_state()
            take(item)
            count += 1
            if not count % stride:
                tree.count = count
                completed = tree.flush()
                if completed:
                    doubler.n = dn
                    self._ship(completed)
                    tree, take, count, stride, p = self._loop_state()
        doubler.n = dn
        tree.count = count

    def on_message(self, message: Message) -> None:
        if message.kind != MSG_ROUND:
            return
        n_bar = message.payload
        self.geometry = RoundGeometry(n_bar, self.k, self.eps, self.flat)
        self.tree = _ChunkTree(self.geometry, self.rng)
        self.chunk_index = 0

    def space_words(self) -> int:
        tree = self.tree.space_words() if self.tree is not None else 0
        return tree + self.doubler.space_words() + 3


class _ChunkSummaries:
    """Coordinator-side canonical decomposition of one chunk."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = {}  # (level, index) -> QuantileSummary

    def insert(self, level: int, index: int, summary) -> None:
        # A full parent subsumes its two children.
        if level > 0:
            self.nodes.pop((level - 1, 2 * index), None)
            self.nodes.pop((level - 1, 2 * index + 1), None)
        self.nodes[(level, index)] = summary

    def rank(self, x) -> float:
        return sum(s.rank(x) for s in self.nodes.values())

    def total_weight(self) -> float:
        return sum(s.total_weight for s in self.nodes.values())


class RandomizedRankCoordinator(Coordinator):
    """Canonical-decomposition store plus residual-sample lists."""

    def __init__(self, network, k, eps, seed):
        super().__init__(network)
        self.k = k
        self.eps = eps
        self.tracker = GlobalCountTracker()
        self.round_id = 0
        self.geometry = None
        # (round, site, chunk) -> _ChunkSummaries; spans all rounds.
        self.chunks = {}
        # site -> list of raw samples from its current incomplete leaf.
        self.pending = {}
        # Frozen residual sample lists from finished leaves-at-round-end:
        # list of (inv_p, [values]).
        self.frozen_samples = []

    # -- message handling --------------------------------------------------

    def on_message(self, site_id: int, message: Message) -> None:
        kind = message.kind
        if kind == MSG_RSAMPLE:
            self.pending.setdefault(site_id, []).append(message.payload)
        elif kind == MSG_SUMMARY:
            chunk, level, index, summary = message.payload
            key = (self.round_id, site_id, chunk)
            self.chunks.setdefault(key, _ChunkSummaries()).insert(
                level, index, summary
            )
            if level == 0:
                # The incomplete leaf just completed; its residual
                # samples are now covered by the summary.
                self.pending.pop(site_id, None)
        elif kind == MSG_DOUBLE:
            n_bar = self.tracker.update(site_id, message.payload)
            if n_bar is not None:
                self._start_round(n_bar)

    def _start_round(self, n_bar) -> None:
        if self.geometry is not None:
            inv_p = 1.0 / self.geometry.p
            for values in self.pending.values():
                if values:
                    self.frozen_samples.append((inv_p, values))
        self.pending = {}
        self.round_id += 1
        self.geometry = RoundGeometry(n_bar, self.k, self.eps)
        self.broadcast(MSG_ROUND, n_bar)

    # -- queries -----------------------------------------------------------

    def _samples(self):
        """``(inverse sampling probability, values)`` of every residual
        sample list: the frozen ones, then each site's pending one."""
        yield from self.frozen_samples
        if self.geometry is not None:
            inv_p = 1.0 / self.geometry.p
            for values in self.pending.values():
                yield inv_p, values

    def estimate_rank(self, x) -> float:
        """Unbiased estimate of |{elements < x}| over the union of all
        streams, within eps*n with constant probability."""
        rank = 0.0
        for chunk in self.chunks.values():
            rank += chunk.rank(x)
        for inv_p, values in self._samples():
            rank += inv_p * sum(1 for v in values if v < x)
        return rank

    def estimate_total(self) -> float:
        """Estimate of the total element count n (same estimator at +inf)."""
        total = sum(c.total_weight() for c in self.chunks.values())
        for inv_p, values in self._samples():
            total += inv_p * len(values)
        return total

    def rank_table(self) -> tuple:
        """:meth:`estimate_rank` as a step table (see
        :mod:`~repro.core.rank.util`): every summary entry and residual
        sample with its weight, sorted once."""
        values: list = []
        weights: list = []
        for chunk in self.chunks.values():
            for summary in chunk.nodes.values():
                values += summary.values
                weights += summary.weights
        for inv_p, sample in self._samples():
            values += sample
            weights += [inv_p] * len(sample)
        return (*step_table(as_column(values), weights), self.estimate_total())

    def quantile(self, phi: float):
        """A value whose rank is within eps*n of phi*n (w.c.p.)."""
        table = self.rank_table()
        return quantile_from_rank_tables(table[0], [table], phi)

    @property
    def n_bar(self) -> int:
        return self.tracker.n_bar

    def space_words(self) -> int:
        words = self.tracker.space_words() + 2
        for chunk in self.chunks.values():
            for summary in chunk.nodes.values():
                words += summary.size_words()
        for _, values in self.frozen_samples:
            words += len(values) + 1
        for values in self.pending.values():
            words += len(values)
        return words


class RandomizedRankScheme(TrackingScheme):
    """Factory for the Section 4 protocol.

    Parameters
    ----------
    epsilon:
        Rank error target as a fraction of n.
    flat_tree:
        Ablation: replace the binary tree with a flat list of leaf
        blocks.  Keeps correctness of each piece but blows the variance
        budget by a factor ~ blocks/chunk, demonstrating why the tree is
        needed.
    """

    name = "rank/randomized"
    one_way_capable = False

    def __init__(self, epsilon: float, flat_tree: bool = False):
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        self.flat_tree = flat_tree

    def make_coordinator(self, network, k, seed):
        return RandomizedRankCoordinator(network, k, self.epsilon, seed)

    def make_site(self, network, site_id, k, seed):
        return RandomizedRankSite(
            site_id, network, k, self.epsilon, seed, self.flat_tree
        )

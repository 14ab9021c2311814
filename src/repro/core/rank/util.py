"""Shared helpers for rank/quantile coordinators.

Every rank estimator here is a sum of weighted indicator counts — a
non-decreasing step function that only moves at stored values — so it
can be written down whole as a *rank table* ``(values, ranks, total)``:

* ``values`` — the sorted distinct stored values;
* ``ranks`` — one entry more than ``values``: ``ranks[i]`` is the
  estimated mass strictly below ``values[i]``, and the closing entry
  the mass below anything larger than every stored value, so the rank
  at any ``x`` is ``ranks[bisect_left(values, x)]`` with no special
  case (the snapshot baselines clamp per-site ranks, which is why the
  closing entry is its own number and not ``total``);
* ``total`` — the coordinator's ``estimate_total()``.

A coordinator's ``rank_table()`` builds its table in one sorted pass
(:func:`step_table`); its ``quantile`` and the cross-shard merge plane
both search tables with :func:`quantile_from_rank_tables` — one table
for a single hub, one per shard for a merged read.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

__all__ = [
    "quantile_from_rank_fn",
    "quantile_from_rank_tables",
    "step_table",
]


def quantile_from_rank_fn(candidates, rank_fn, target: float):
    """Smallest candidate whose cumulative mass reaches ``target``.

    ``candidates`` must be sorted ascending.  ``rank_fn(x)`` estimates
    the mass strictly below ``x`` and must be monotone non-decreasing
    (every rank estimator here is: all are sums of indicator counts).
    The mass *up to and including* candidate ``i`` is evaluated as the
    rank of the next candidate (infinite for the last), which keeps the
    search correct for weighted summaries where one candidate may carry
    arbitrary mass.  Binary search, O(log |C|) rank calls.
    """
    if not candidates:
        raise ValueError("no candidate values to search")
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        mass_through_mid = rank_fn(candidates[mid + 1])
        if mass_through_mid >= target:
            hi = mid
        else:
            lo = mid + 1
    return candidates[lo]


def step_table(values, weights) -> tuple:
    """``(values, ranks)`` of a rank table from weighted stored values.

    ``values[i]`` carries ``weights[i]``; the two are aligned and in any
    order.  One stable sort: among equal values the first one given is
    the one kept, and each distinct value's rank is the weight of
    everything sorted before it.
    """
    distinct: list = []
    ranks: list = []
    mass = 0.0
    for value, weight in sorted(zip(values, weights), key=itemgetter(0)):
        if not distinct or distinct[-1] != value:
            distinct.append(value)
            ranks.append(mass)
        mass += weight
    ranks.append(mass)
    return distinct, ranks


def quantile_from_rank_tables(candidates, tables, phi: float):
    """The ``phi``-quantile of the summed rank function of ``tables``.

    ``candidates`` is the sorted union of the tables' values (one
    table's ``values`` as they are).  The rank at a candidate is the sum
    of each table's step function there, in table order, and the target
    is ``phi`` (clamped to ``[0, 1]``) of the summed totals.
    """
    target = min(max(phi, 0.0), 1.0) * float(
        sum(total for _, _, total in tables)
    )

    def rank(x):
        return float(
            sum(ranks[bisect_left(values, x)] for values, ranks, _ in tables)
        )

    return quantile_from_rank_fn(candidates, rank, target)

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

import numpy as _np

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

    ``values`` comes in its carrier
    (:func:`~repro.runtime.batching.as_column`): a typed column gives
    a typed table — one stable ``argsort`` and one ``cumsum``, which
    adds in the loop's order, so the ranks are bit-identical — and a
    list (strings, tuples, mixed int/float) gives lists.
    """
    if isinstance(values, _np.ndarray):
        if values.dtype.kind != "f" or not _np.isnan(values).any():
            order = _np.argsort(values, kind="stable")
            ordered = values[order]
            mass = _np.zeros(len(ordered) + 1)
            _np.cumsum(
                _np.asarray(weights, dtype=_np.float64)[order], out=mass[1:]
            )
            first = _np.flatnonzero(
                _np.concatenate(([True], ordered[1:] != ordered[:-1]))
            )
            return ordered[first], _np.append(mass[first], mass[-1])
        values = values.tolist()  # NaN: Python's sort order, as ever
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
    is ``phi`` (clamped to ``[0, 1]``) of the summed totals.  Typed
    candidates are searched in one ``searchsorted`` per table, summed
    in the same order, and the answer is a plain Python scalar.
    """
    target = min(max(phi, 0.0), 1.0) * float(
        sum(total for _, _, total in tables)
    )
    if isinstance(candidates, _np.ndarray) and len(candidates):
        # The mass through candidate i is the rank at candidate i + 1
        # (infinite for the last); the first that reaches the target is
        # what the binary search below finds, the sums being monotone.
        mass = 0
        for values, ranks, _ in tables:
            mass = mass + _np.asarray(ranks)[
                _np.searchsorted(values, candidates[1:], side="left")
            ]
        reached = _np.flatnonzero(mass >= target)
        lo = int(reached[0]) if len(reached) else len(candidates) - 1
        return candidates[lo].item()

    def rank(x):
        return float(
            sum(ranks[bisect_left(values, x)] for values, ranks, _ in tables)
        )

    return quantile_from_rank_fn(candidates, rank, target)

"""The cross-shard query merge plane.

Each shard hub runs a full, independent protocol instance over its slice
of the site fleet, so a cross-shard answer is a *merge* of per-shard
answers.  The paper's trackers are exactly the mergeable kind:

* **counts sum** — every count-style estimate (``estimate``,
  ``estimate_total``, ``estimate_rank``, ``estimate_frequency``) is a
  sum of per-site contributions, so the merged answer is the plain sum
  of per-shard answers;
* **frequency summaries merge** — heavy-hitter sets are recombined by
  taking the union of per-shard candidates, summing each candidate's
  per-shard frequency estimates, and re-thresholding against the global
  stream length (an item with global frequency ``>= phi * n`` must reach
  ``phi * n_s`` on at least one shard — pigeonhole — so the union of
  per-shard heavy hitters contains every true global heavy hitter);
* **quantile summaries merge** — rank estimators are additive step
  functions, so each hub ships its own whole as a *rank table* (see
  :mod:`repro.core.rank.util`), the merged rank function is the sum of
  the tables, and a merged quantile is read off it locally by the same
  search the single-hub coordinators run over their one table.

**Error composition.**  Per-shard hubs run at the job's *full* target
``eps`` — no budget splitting is needed:

* deterministic trackers have additive absolute error at most
  ``eps * n_s`` per shard, and ``sum_s eps * n_s = eps * n``: the merged
  answer meets the same ``eps * n`` bound as a single hub;
* randomized trackers are unbiased with per-shard variance
  ``O((eps * n_s)^2)``; shards draw independent randomness (per-shard
  derived job seeds), so the merged variance is
  ``sum_s O((eps n_s)^2) <= O((eps n)^2)`` — by Chebyshev the merged
  estimate is within ``eps * n`` with at least the same constant
  probability as a single hub.  (No union bound over shards is paid:
  the composition is on variances, not on per-shard failure events.)

:func:`composed_error_bound` exposes this accounting so callers and
tests can assert against it.

The merge plane is transport-agnostic: it sees shards only through a
``fanout(sub_queries)`` callable that runs one *round* — the whole list
of sub-queries on every shard hub, per-shard results back (inline
objects, worker threads, worker processes or TCP hubs — the facade
decides).  Methods with no merge rule raise
:class:`UnmergeableQueryError` naming the mergeable surface.

**Round complexity.**  On placed hubs a round is one command and one
reply per hub, and its collect fences that hub's relaxed pipeline, so
rounds are what a merged read costs.  Every query takes a fixed number,
whatever the hubs hold (``C`` = size of the candidate union, ``S_s`` =
values stored on shard ``s``):

=====================================  ======  ===========================
query                                  rounds  reply per hub
=====================================  ======  ===========================
``estimate`` / ``estimate_total`` /    1       one number
``estimate_rank`` /
``estimate_frequency`` / default
windowed default (``estimate()``)      2       one timestamp, one number
``quantile(phi)``                      1       its rank table: ``2 S_s + 2``
                                               numbers, two typed blobs
                                               for numeric values (6 KB
                                               at ``S_s`` ~ 600)
``heavy_hitters(phi)``                 2       its hitters and basis, then
                                               ``C`` numbers (1 round when
                                               no shard has a hitter)
``top_items(m)``                       2       ``m`` pairs, then ``C``
                                               numbers
=====================================  ======  ===========================
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as _np

from ..service.errors import ServiceError

__all__ = [
    "UnmergeableQueryError",
    "MERGEABLE_METHODS",
    "merge_counts",
    "merged_query",
    "composed_error_bound",
]


class UnmergeableQueryError(ServiceError):
    """The query method has no cross-shard merge rule."""


#: query methods the merge plane can answer across shards, per problem
#: family (``None`` = the job's default query, resolved per scheme)
MERGEABLE_METHODS = (
    "estimate",
    "estimate_total",
    "estimate_rank",
    "estimate_frequency",
    "quantile",
    "heavy_hitters",
    "top_items",
)


def merge_counts(values: Sequence[float]) -> float:
    """Sum per-shard count-style answers (the additive merge rule).

    Empty input (no shards answered — e.g. all shards empty of a
    windowed job's mirrors) merges to ``0.0``; a single value merges to
    itself, so one shard degenerates to the unsharded answer.
    """
    return float(sum(values))


def composed_error_bound(epsilon: float, shard_elements: Sequence[int]) -> dict:
    """The merged additive error bound for a job at target ``epsilon``.

    ``shard_elements`` is the per-shard ingested element count.  The
    composed bound is ``epsilon * sum(shard_elements)`` — identical to
    the single-hub bound — because per-shard absolute errors
    ``epsilon * n_s`` are additive (deterministic) or compose on
    variances (randomized, independent shard seeds); see the module
    docstring.  Returns the full accounting for reporting/tests.
    """
    per_shard = [epsilon * n for n in shard_elements]
    total = sum(shard_elements)
    return {
        "epsilon": epsilon,
        "elements": total,
        "per_shard_bounds": per_shard,
        "bound": epsilon * total,
    }


def _sub(method, *args, **kwargs) -> tuple:
    """One sub-query of a fan-out round."""
    return method, args, kwargs


def _plain(column) -> list:
    return column.tolist() if isinstance(column, _np.ndarray) else column


def _column(replies, index: int) -> list:
    """Every shard's result of the round's ``index``-th sub-query."""
    return [shard[index][1] for shard in replies]


def merged_query(
    fanout: Callable, problem: str, method, args: tuple, kwargs: dict,
    observe_candidates: Callable = None,
):
    """Answer one query across shards.

    Parameters
    ----------
    fanout:
        ``fanout(sub_queries)`` runs one round: it ships the list of
        ``(method, args, kwargs)`` sub-queries to every shard hub and
        returns, per shard in shard order, the list of
        ``(resolved_method_name, result)`` pairs, one per sub-query.
    problem:
        The job's problem family (``count``/``frequency``/``rank``/
        ``window``), used to pick family-specific rules.
    method / args / kwargs:
        The query as the caller issued it (``method=None`` = the job's
        default query).
    observe_candidates:
        Optional ``fn(size)`` telemetry hook called with the
        candidate-union size of each candidate-set merge (quantile /
        heavy_hitters / top_items); additive merges never call it.
    """
    if method in (None, "estimate", "estimate_total", "estimate_rank",
                  "estimate_frequency"):
        if problem == "window" and method in (None, "estimate") and not args:
            # Shards see different newest timestamps; evaluate every
            # mirror at the globally newest one so silent shards decay
            # consistently instead of each reporting its own "now".
            nows = [
                now
                for now in _column(fanout([_sub("latest_timestamp")]), 0)
                if now is not None
            ]
            if not nows:
                return 0.0
            return merge_counts(
                _column(fanout([_sub("estimate", max(nows))]), 0)
            )
        replies = fanout([_sub(method, *args, **kwargs)])
        names = {shard[0][0] for shard in replies}
        if len(names) != 1:
            raise UnmergeableQueryError(
                "shards resolved the default query differently: "
                f"{sorted(names)}"
            )
        return merge_counts(_column(replies, 0))

    if method == "quantile":
        if len(args) != 1 or kwargs:
            raise UnmergeableQueryError(
                "cross-shard quantile takes exactly one argument (phi)"
            )
        from ..core.rank.util import quantile_from_rank_tables

        tables = _column(fanout([_sub("rank_table")]), 0)
        columns = [values for values, _, _ in tables if len(values)]
        if columns and all(
            isinstance(values, _np.ndarray)
            and values.dtype == columns[0].dtype
            for values in columns
        ):
            ordered = _np.unique(_np.concatenate(columns))
        else:
            # list tables (or typed ones of different dtypes): the
            # union and its order are Python's, on plain scalars
            tables = [
                (_plain(values), _plain(ranks), total)
                for values, ranks, total in tables
            ]
            candidates: set = set()
            for values, _, _ in tables:
                candidates.update(values)
            ordered = sorted(candidates)
        if observe_candidates is not None:
            observe_candidates(len(ordered))
        return quantile_from_rank_tables(ordered, tables, args[0])

    if method == "heavy_hitters":
        if len(args) != 1 or kwargs:
            raise UnmergeableQueryError(
                "cross-shard heavy_hitters takes exactly one argument (phi)"
            )
        phi = args[0]
        replies = fanout(
            [_sub("heavy_hitters", phi), _sub("frequency_basis")]
        )
        candidates = set()
        for hitters in _column(replies, 0):
            candidates.update(hitters)
        ordered = sorted(candidates, key=repr)
        if observe_candidates is not None:
            observe_candidates(len(ordered))
        if not ordered:
            return {}
        sums = _summed_frequencies(fanout, ordered)
        threshold = phi * max(1.0, merge_counts(_column(replies, 1)))
        return {
            item: f for item, f in zip(ordered, sums) if f >= threshold
        }

    if method == "top_items":
        if len(args) != 1 or kwargs:
            raise UnmergeableQueryError(
                "cross-shard top_items takes exactly one argument (m)"
            )
        m = args[0]
        candidates = set()
        for scored in _column(fanout([_sub("top_items", m)]), 0):
            candidates.update(item for item, _ in scored)
        ordered = sorted(candidates, key=repr)
        if observe_candidates is not None:
            observe_candidates(len(ordered))
        sums = _summed_frequencies(fanout, ordered)
        merged = sorted(zip(ordered, sums), key=lambda t: -t[1])
        return merged[:m]

    raise UnmergeableQueryError(
        f"{method!r} has no cross-shard merge rule; mergeable methods: "
        f"{list(MERGEABLE_METHODS)} (use query_shard() for one shard's "
        f"full query surface)"
    )


def _summed_frequencies(fanout, items: list) -> List[float]:
    """Per-item frequency estimates summed over all shards."""
    per_shard = _column(fanout([_sub("estimate_frequencies", items)]), 0)
    return [float(sum(col)) for col in zip(*per_shard)]

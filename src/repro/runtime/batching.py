"""Order-preserving batch decomposition for the ingestion fast path.

The per-event driving loop (`Simulation.process`) pays Python call
overhead and space-ledger bookkeeping on every element.  The batched path
instead splits an ordered batch of ``(site_id, item)`` events into *runs*
— maximal stretches of consecutive events bound for the same site — and
hands each run to :meth:`repro.runtime.Site.on_elements` in one call.

Global arrival order is preserved exactly: runs are emitted in stream
order and a run never spans a site change.  Protocol transcripts (every
message, every RNG draw) are therefore identical to per-event driving,
which is what makes batched ingestion safe for round-based protocols
whose behaviour depends on the interleaving across sites.

The decomposition is computed once per batch, so a multi-tenant service
amortizes it over every registered job.  Array inputs take a numpy path
(boundary detection on arrays is ~100x faster than a Python loop); list
inputs keep the loop.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as _np

# The run dispatcher lives on the shared execution plane now
# (:mod:`repro.exec.dispatch`); re-exported here because the batching
# module is where every driving layer historically imported it from.
from ..exec.dispatch import drive_runs

__all__ = ["decompose_runs", "batch_from_stream", "drive_runs"]


def batch_from_stream(stream) -> Tuple[list, list]:
    """Materialize an iterable of ``(site_id, item)`` pairs as two lists.

    Convenience for feeding existing workload generators into the batched
    APIs: ``sim.run_batched(*batch_from_stream(uniform_sites(n, k)))``.
    """
    site_ids: list = []
    items: list = []
    append_site = site_ids.append
    append_item = items.append
    for site_id, item in stream:
        append_site(site_id)
        append_item(item)
    return site_ids, items


def _item_list(items, n: int) -> Optional[list]:
    """Normalize the item carrier to a plain list (or None for count-style
    streams, where every element is the unit item ``1``)."""
    if items is None:
        return None
    if isinstance(items, _np.ndarray):
        items = items.tolist()
    elif not isinstance(items, list):
        items = list(items)
    if len(items) != n:
        raise ValueError(
            f"site_ids and items length mismatch: {n} vs {len(items)}"
        )
    return items


def decompose_runs(
    site_ids: Sequence[int], items=None
) -> List[Tuple[int, list]]:
    """Split an ordered event batch into per-site runs.

    Parameters
    ----------
    site_ids:
        Destination site of each event, in arrival order.  A numpy integer
        array or any sequence of ints.
    items:
        The event payloads, same length as ``site_ids``, or None for
        count-style streams (each run then carries ``[1] * run_length``).

    Returns
    -------
    list of ``(site_id, run_items)`` preserving global arrival order;
    concatenating the runs reproduces the input batch exactly.
    """
    if isinstance(site_ids, _np.ndarray):
        n = int(site_ids.shape[0])
        if n == 0:
            return []
        change = _np.flatnonzero(site_ids[1:] != site_ids[:-1])
        starts = _np.concatenate(([0], change + 1)).tolist()
        run_sites = site_ids[starts].tolist()
        ends = starts[1:] + [n]
        item_list = _item_list(items, n)
        if item_list is None:
            return [
                (s, [1] * (b - a))
                for s, a, b in zip(run_sites, starts, ends)
            ]
        return [
            (s, item_list[a:b]) for s, a, b in zip(run_sites, starts, ends)
        ]

    sids = site_ids if isinstance(site_ids, list) else list(site_ids)
    n = len(sids)
    if n == 0:
        return []
    item_list = _item_list(items, n)
    runs: List[Tuple[int, list]] = []
    i = 0
    while i < n:
        site = sids[i]
        j = i + 1
        while j < n and sids[j] == site:
            j += 1
        chunk = [1] * (j - i) if item_list is None else item_list[i:j]
        runs.append((int(site), chunk))
        i = j
    return runs

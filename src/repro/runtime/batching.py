"""Batch views for the ingestion fast path: stretches and runs.

The per-event driving loop (`Simulation.process`) pays Python call
overhead and space-ledger bookkeeping on every element.  The batched
path hands each site many elements per :meth:`repro.runtime.Site.
on_elements` call, and what decides *how* many is what the site vouches
for:

* A site that states a :meth:`~repro.runtime.Site.quiet_horizon` is, for
  that many elements, a pure function of its own sub-stream — the
  coordinator will not talk back — so the driver
  (:func:`repro.exec.dispatch.drive_batch`) gives it **everything the
  batch holds for it** up to the end of the *quiet stretch*, the
  earliest position where any site's horizon runs out, and replays the
  uplinks the network held in arrival order.  The paper's randomized
  trackers hear from the coordinator only when the tracked sum doubles,
  O(log N) times per stream, so a stretch is usually the whole batch.
* A site that states nothing (horizon 0, the default) is driven one
  *run* at a time — a maximal stretch of consecutive events bound for
  the same site — live and in global arrival order, as is the one run
  that ends each quiet stretch.

Either way protocol transcripts (every message, every RNG draw) are
identical to per-event driving, which is what makes batched ingestion
safe for round-based protocols whose behaviour depends on the
interleaving across sites.

:class:`SiteBatch` is the one view both cases read, computed once per
batch so a multi-tenant service amortizes it over every registered job:
run boundaries for live delivery and, on first use, each site's
elements with their global positions.  :func:`decompose_runs` spells the
runs out as ``(site_id, chunk)`` pairs for the site-actor hub
(:mod:`repro.net.actors`), which posts them to its actors.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as _np

__all__ = [
    "SiteBatch",
    "as_column",
    "decompose_runs",
    "batch_from_stream",
    "batches_from_stream",
    "normalize_items",
]


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


def batches_from_stream(stream, batch_size: int):
    """Chunk an iterable of ``(site_id, item)`` pairs, in order, into
    ``(site_ids, items)`` list pairs of ``batch_size`` events (the last
    one may be shorter) — what every ``ingest_stream``-style driver
    feeds its ``ingest``."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    site_ids: list = []
    items: list = []
    for site_id, item in stream:
        site_ids.append(site_id)
        items.append(item)
        if len(site_ids) >= batch_size:
            yield site_ids, items
            site_ids, items = [], []
    if site_ids:
        yield site_ids, items


_CARRIERS = {frozenset((int,)): _np.int64, frozenset((float,)): _np.float64}


def as_column(values):
    """The carrier of one event column: a typed array or a plain list.

    The one carrier rule.  A column whose every value is a Python
    ``int`` within int64 range (``bool`` excluded) becomes an ``int64``
    array; one whose every value is a ``float`` becomes a ``float64``
    array.  Any other column — bools, mixed int/float, ints beyond
    int64, strings, tuples, empty — stays the plain list it is, because
    numpy would coerce its values.  Numpy integer scalars count as the
    exact Python ints they equal (a list of them is converted first, so
    even one beyond int64 stays an exact int).  The type check runs at
    C speed (one ``frozenset(map(type, ...))``), and an ndarray passes
    through as its canonical carrier (1-D int/uint that fits int64, or
    float up to 64 bits; anything else falls back to its ``tolist()``),
    so applying the rule where a batch enters makes every later layer's
    decision an O(1) ``isinstance`` check: arrays ship by ``tobytes``
    and are viewed by ``SiteBatch``, which hands sites plain Python
    scalars.
    """
    if isinstance(values, _np.ndarray):
        kind = values.dtype.kind
        if values.ndim == 1 and values.size:
            if kind == "i" or (kind == "u" and values.max() < 1 << 63):
                return values.astype(_np.int64, copy=False)
            if kind == "f" and values.dtype.itemsize <= 8:
                return values.astype(_np.float64, copy=False)
        return values.tolist()
    if not isinstance(values, list):
        values = list(values)
    types = frozenset(map(type, values))
    dtype = _CARRIERS.get(types)
    if dtype is None:
        if not types or not all(
            t is int or issubclass(t, _np.integer) for t in types
        ):
            return values
        values, dtype = list(map(int, values)), _np.int64
    try:
        return _np.fromiter(values, dtype, len(values))
    except OverflowError:
        return values  # ints beyond int64 stay exact as Python ints


def normalize_items(items, n: int) -> Optional[list]:
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


class SiteBatch:
    """One ordered event batch, viewed by run and by site.

    ``site_ids`` (numpy integer array or sequence of ints) and ``items``
    (same length, or None for count-style streams of the unit item)
    describe the events in arrival order; position ``g`` below is an
    index into them.

    Attributes
    ----------
    n:
        Number of events.
    items:
        The payloads as one list (None for count-style streams); a run
        is the slice ``items[a:b]``.
    run_starts, run_sites:
        Start position and site of every run, in order; ``run_starts``
        ends with the sentinel ``n``.
    per_site:
        ``{site_id: (positions, site_items)}`` — the ascending global
        positions of the site's events (an integer array) and their
        payloads (a list).  Computed on first use: a batch whose jobs
        all drive live never pays for it.
    """

    def __init__(self, site_ids, items=None):
        if not isinstance(site_ids, _np.ndarray):
            if not hasattr(site_ids, "__len__"):
                site_ids = list(site_ids)
            ids = _np.fromiter(site_ids, _np.int64, len(site_ids))
        elif site_ids.dtype.kind in "iu":
            ids = site_ids
        else:
            ids = site_ids.astype(_np.int64)
        n = int(ids.shape[0])
        self.n = n
        self.items = normalize_items(items, n)
        self._ids = ids
        if n == 0:
            self.run_starts, self.run_sites = [0], []
            return
        if ids.min() < 0:
            # would index the fleet from its end, under a second name
            raise IndexError(f"site id {int(ids.min())} out of range")
        starts = _np.concatenate(
            ([0], _np.flatnonzero(ids[1:] != ids[:-1]) + 1)
        )
        self.run_sites = ids[starts].tolist()
        self.run_starts = starts.tolist()
        self.run_starts.append(n)

    @cached_property
    def per_site(self) -> dict:
        ids, n = self._ids, self.n
        if n == 0:
            return {}
        if ids.max() < 1 << 15:
            # numpy's stable sort of 16-bit keys is a radix sort
            ids = ids.astype(_np.int16)
        order = _np.argsort(ids, kind="stable")
        grouped = ids[order]
        cuts = _np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
        bounds = [0, *cuts.tolist(), n]
        items = self.items
        if items is not None:
            items = list(map(items.__getitem__, order.tolist()))
        return {
            int(grouped[a]): (
                order[a:b],
                [1] * (b - a) if items is None else items[a:b],
            )
            for a, b in zip(bounds, bounds[1:])
        }


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
        item_list = normalize_items(items, n)
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
    item_list = normalize_items(items, n)
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

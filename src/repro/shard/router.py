"""Hash partitioning of the site fleet across shard-local hubs.

A :class:`ShardRouter` owns the one routing decision of the sharded
service: which shard hub hosts which global site.  The assignment is a
*deterministic hash partition* — global site ids are ordered by a
64-bit mixing hash and dealt round-robin into shards — so it is

* **balanced**: shard sizes differ by at most one site, and no shard is
  ever empty (``num_shards <= num_sites`` is enforced);
* **stable**: a function of ``(num_sites, num_shards)`` only, so a
  restarted or re-built service routes identically;
* **order-preserving within a shard**: local site ids follow ascending
  global site order, and :meth:`split` emits each shard's sub-batch in
  global arrival order.  A single shard is therefore the *identity*
  partition: local ids equal global ids and the shard hub replays the
  exact transcript an unsharded service would.

Events for different shards have no ordering relationship — that is the
point: shard hubs are independent protocol instances whose answers the
merge plane (:mod:`repro.shard.merge`) recombines at query time.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as _np

from ..runtime.batching import as_column

__all__ = ["ShardRouter"]


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class ShardRouter:
    """Deterministic site -> (shard, local site id) partition.

    Parameters
    ----------
    num_sites:
        Global fleet size ``k``.
    num_shards:
        Number of shard-local hubs; must satisfy
        ``1 <= num_shards <= num_sites`` so every hub owns at least one
        site (an siteless hub could never be a valid protocol instance).
    """

    def __init__(self, num_sites: int, num_shards: int):
        if num_sites < 1:
            raise ValueError("need at least one site")
        if not 1 <= num_shards <= num_sites:
            raise ValueError(
                f"num_shards must be in [1, num_sites]; got "
                f"{num_shards} shards for {num_sites} sites"
            )
        self.num_sites = num_sites
        self.num_shards = num_shards
        order = sorted(range(num_sites), key=lambda s: (_mix64(s), s))
        shard_of = [0] * num_sites
        for position, site in enumerate(order):
            shard_of[site] = position % num_shards
        members: List[List[int]] = [[] for _ in range(num_shards)]
        local_of = [0] * num_sites
        for site in range(num_sites):  # ascending: local order == global order
            local_of[site] = len(members[shard_of[site]])
            members[shard_of[site]].append(site)
        self._shard_of = shard_of
        self._local_of = local_of
        self._members = members
        self._shard_lut = _np.asarray(shard_of, dtype=_np.int64)
        self._local_lut = _np.asarray(local_of, dtype=_np.int64)

    # -- lookups -----------------------------------------------------------

    def shard_of(self, site_id: int) -> int:
        """The shard hosting global site ``site_id``."""
        return self._shard_of[self._checked(site_id)]

    def local_id(self, site_id: int) -> int:
        """The site's id inside its shard hub."""
        return self._local_of[self._checked(site_id)]

    def shard_size(self, shard: int) -> int:
        """Number of global sites hosted by ``shard``."""
        return len(self._members[shard])

    def members(self, shard: int) -> List[int]:
        """Global site ids of ``shard``, in local-id order."""
        return list(self._members[shard])

    @property
    def shard_sizes(self) -> List[int]:
        return [len(m) for m in self._members]

    def _checked(self, site_id: int) -> int:
        if not 0 <= site_id < self.num_sites:
            raise ValueError(
                f"site id {site_id} out of range [0, {self.num_sites})"
            )
        return site_id

    # -- batch routing -----------------------------------------------------

    def split(self, site_ids, items=None) -> List[Tuple[int, object, object]]:
        """Route one ordered event batch to its shards.

        Returns ``(shard, local_site_ids, items)`` triples — one per
        shard that receives at least one event — with per-shard arrival
        order preserved (the property shard-local transcripts rest on).
        Local site ids are an ``int64`` array; an item column keeps its
        carrier (:func:`repro.runtime.batching.as_column`): a typed
        array is sliced by one fancy index, a list by position, and
        ``items=None`` (count-style unit streams) stays ``None``.
        Raises :class:`ValueError` on any site id that is not an
        integer within int64 (the carrier rule leaves such a column a
        list) or is out of range, *before* any routing, so a bad batch
        is rejected atomically.
        """
        ids = as_column(site_ids)
        n = len(ids)
        if n == 0:
            return []
        if not isinstance(ids, _np.ndarray) or ids.dtype != _np.int64:
            got = (
                ids.dtype.name if isinstance(ids, _np.ndarray)
                else ", ".join(sorted({type(v).__name__ for v in ids}))
            )
            raise ValueError(
                f"site ids must be integers within int64, got {got}"
            )
        if int(ids.min()) < 0 or int(ids.max()) >= self.num_sites:
            bad = int(ids.min()) if int(ids.min()) < 0 else int(ids.max())
            raise ValueError(
                f"site id {bad} out of range [0, {self.num_sites})"
            )
        if items is not None and len(items) != n:
            raise ValueError(
                f"site_ids and items length mismatch: {n} vs {len(items)}"
            )
        if self.num_shards == 1:
            return [(0, ids, items)]
        shards = self._shard_lut[ids]
        out = []
        for shard in range(self.num_shards):
            idx = _np.flatnonzero(shards == shard)
            if idx.shape[0] == 0:
                continue
            local = self._local_lut[ids[idx]]
            if items is None:
                sub = None
            elif isinstance(items, _np.ndarray):
                sub = items[idx]
            else:
                sub = list(map(items.__getitem__, idx.tolist()))
            out.append((shard, local, sub))
        return out

    def __repr__(self) -> str:
        return (
            f"ShardRouter(sites={self.num_sites}, shards={self.num_shards}, "
            f"sizes={self.shard_sizes})"
        )

"""The shared run dispatcher and the one in-flight ledger.

* :func:`drive_batch` — the in-process lockstep loop.  This is the loop
  behind :meth:`Simulation.run_batched`, the multi-tenant batched ingest
  engine *and* WAL replay: deliver one batch view
  (:class:`~repro.runtime.SiteBatch`) to a host's sites — whole
  per-site slices inside quiet stretches, arrival-order runs where a
  site vouches for nothing — with amortized space bookkeeping.
  Keeping it here (rather than one copy per plane) is what makes "a job
  driven by the engine is transcript-identical to a standalone
  simulation" a structural fact instead of a test assertion.
* :func:`coalesce_runs` — merge runs into *super-runs* before posting
  (relaxed dispatch).  The run sequence is cut into consecutive
  windows of at most ``window`` runs and, inside each window, **all**
  of a site's runs merge into one super-run — per-site
  concatenation order is exactly per-site arrival order, which is the
  only order relaxed mode promises.  A fine-grained interleaving
  (round-robin: one element per run) collapses from one frame per
  element to one frame per site per window.  Long super-run chunks
  take their carrier (:func:`~repro.runtime.batching.as_column`), so
  homogeneous numerics become typed numpy arrays that the frame codec
  packs via ``tobytes``.
* :class:`CreditWindow` — what is posted to which target and not yet
  completed.  Every pipelined plane (the coordinator hub posting runs
  to site actors, an :class:`~repro.exec.ExecGroup` posting commands to
  shard hubs) keeps exactly one and books nothing else: the per-target
  FIFO, the summed run weight, the ``window`` / ``per_site_depth``
  bounds and their admit loop, and the ``dispatch_stats()`` counters
  all live there.  An entry is removed where its reply is consumed, so
  no reader of the ledger can see a stale figure.

This module is dependency-free on purpose: the runtime, service, shard
and net layers all import it, so it imports none of them beyond the
batch views of :mod:`repro.runtime.batching` (numpy only).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Callable, Iterable, List, Optional, Tuple

from ..runtime.batching import as_column

__all__ = ["drive_batch", "coalesce_runs", "CreditWindow"]

#: mean run length from which a batch is driven run by run whatever its
#: sites vouch for: live delivery then makes about as few calls as
#: per-site slices would, and the per-site view costs more than the
#: calls it saves (measured crossover: 16 for the count trackers,
#: between 16 and 32 for count + frequency + rank side by side)
_LONG_RUNS = 16

#: shortest merged chunk worth lifting into a typed numpy array; below
#: this the conversion costs more than the packing it accelerates
_COLUMNAR_MIN = 1024


def drive_batch(host, batch, space_sample_interval: int) -> int:
    """Deliver one batch to ``host``'s sites with amortized space
    bookkeeping; returns the number of ``on_elements`` calls it took.

    ``host`` is anything exposing the driving surface shared by
    :class:`~repro.runtime.Simulation` and service jobs: ``sites``,
    ``network``, ``scheme``, ``space``, ``elements_processed`` and
    ``sample_space()``; ``batch`` is a :class:`~repro.runtime.SiteBatch`.

    The batch is walked in arrival order.  Where the site next in line
    states no :meth:`~repro.runtime.Site.quiet_horizon` (or the batch's
    runs are long enough that nothing is left to save, ``_LONG_RUNS``),
    its run is delivered live: sends reach the coordinator at once and
    may re-enter the site.  Otherwise a *quiet stretch* opens: it extends
    to the earliest position at which any site's horizon runs out (or a
    space sweep falls due); every site takes its whole slice of the
    stretch in one call while the network holds the uplinks, stamped
    with the sender's element counter; the held uplinks are then
    replayed in global arrival order.  No coordinator would have spoken
    inside the stretch, so sites, coordinator, ledger, tracer and loss
    RNG end up exactly where run-by-run delivery leaves them — and the
    run that ends the stretch is, by construction, delivered live.

    A full space sweep runs at the first run end ``space_sample_interval``
    elements after the previous one, replacing the per-event bookkeeping
    that dominates the looped hot path (space high-water marks are
    samples either way; comm ledgers stay exact).
    """
    sites = host.sites
    n = batch.n
    starts, run_sites, items = batch.run_starts, batch.run_sites, batch.items
    interval = max(1, space_sample_interval)
    base = host.elements_processed
    next_sweep = base + interval
    quiet = n < _LONG_RUNS * len(run_sites)
    calls = 0
    pos = run = 0
    while pos < n:
        site = sites[run_sites[run]]
        if not quiet or site.quiet_horizon() <= 0:
            end = starts[run + 1]
            site.on_elements(
                [1] * (end - pos) if items is None else items[pos:end]
            )
            calls += 1
            pos = end
            run += 1
        else:
            # The stretch ends where the first site turns loud ...
            cut = n
            pending = []
            for site_id, (positions, site_items) in batch.per_site.items():
                lo = int(positions.searchsorted(pos)) if pos else 0
                if lo < len(positions):
                    site = sites[site_id]
                    loud = lo + site.quiet_horizon()
                    if loud < len(positions) and positions[loud] < cut:
                        cut = positions.item(loud)
                    pending.append((site, positions, site_items, lo))
            # ... or at the run end that owes a space sweep.
            due = next_sweep - base - 1
            if due < cut:
                cut = min(cut, starts[bisect_right(starts, due)])
            origin = {}  # site_id -> (its positions, n_local at positions[0])

            def position(stamp, site_id):
                positions, first = origin[site_id]
                return positions.item(stamp - first)

            network = host.network
            network.hold_uplinks()
            try:
                for site, positions, site_items, lo in pending:
                    hi = len(positions)
                    if cut < n:
                        hi = int(positions.searchsorted(cut))
                    if hi > lo:
                        origin[site.site_id] = positions, site.n_local + 1 - lo
                        calls += 1
                        site.on_elements(site_items[lo:hi])
            finally:
                # Also when a site raised: what the sites believe they
                # sent is what coordinator and ledger must have seen.
                network.replay_uplinks(position, host.scheme.name)
            pos = cut
            run = bisect_right(starts, pos) - 1
            if starts[run] != pos:
                continue  # mid-run: the rest of it goes live, then sweeps
        if base + pos >= next_sweep:
            host.elements_processed = base + pos
            host.sample_space()
            next_sweep = base + pos + interval
    host.elements_processed = base + n
    return calls


def _merged(chunks: List[list]) -> list:
    """One site's chunks concatenated, in their carrier
    (:func:`~repro.runtime.batching.as_column`) when long enough to
    profit: the frame codec packs a typed array via ``tobytes`` instead
    of a per-element struct walk.  Short chunks ship as plain lists."""
    if len(chunks) == 1:
        out = chunks[0]
    else:
        out = []
        for chunk in chunks:
            out.extend(chunk)
    return out if len(out) < _COLUMNAR_MIN else as_column(out)


def coalesce_runs(
    runs: Iterable[Tuple[int, list]],
    *,
    window: Optional[int] = None,
) -> List[Tuple[int, list, int]]:
    """Merge runs into per-site super-runs; returns ``(site_id, chunk,
    weight)``.

    ``weight`` is the number of original runs a super-run carries — the
    unit :class:`CreditWindow` accounts in-flight credit in.

    The run sequence is cut into consecutive groups of at most
    ``window`` original runs (one group for the whole batch when
    ``window`` is None) and within each group **all** of a site's runs
    merge into one super-run, emitted in order of the site's first
    appearance.  Each site's elements are concatenated in arrival
    order, so per-site streams — the only order relaxed mode promises —
    are untouched; applying one merged ``on_elements`` is exactly
    equivalent to applying the original runs back to back.
    """
    out: List[Tuple[int, list, int]] = []
    group_order: List[int] = []  # sites in first-appearance order
    group_chunks = {}  # site_id -> list of chunks
    group_weights = {}  # site_id -> run count
    in_group = 0

    def flush_group() -> None:
        for site_id in group_order:
            out.append(
                (
                    site_id,
                    _merged(group_chunks[site_id]),
                    group_weights[site_id],
                )
            )
        group_order.clear()
        group_chunks.clear()
        group_weights.clear()

    for site_id, chunk in runs:
        if window is not None and in_group >= window:
            flush_group()
            in_group = 0
        if site_id in group_chunks:
            group_chunks[site_id].append(chunk)
            group_weights[site_id] += 1
        else:
            group_order.append(site_id)
            group_chunks[site_id] = [chunk]
            group_weights[site_id] = 1
        in_group += 1
    flush_group()
    return out


class CreditWindow:
    """The in-flight ledger of one pipelined plane.

    One FIFO of ``(post_seq, weight, stamp)`` entries per target (site
    actor or shard hub — replies are FIFO per target, so completion is
    always a ``popleft``), plus the two credit bounds of relaxed
    dispatch: at most ``window`` *runs* (summed entry weights) in
    flight in total and ``per_site_depth`` entries in flight per
    target; None leaves a dimension unbounded.  Commands that carry no
    runs ride the same FIFO with weight 0: they take no window credit
    and are not counted as posted frames.

    The owner calls :meth:`admit` then :meth:`post` where it sends, and
    :meth:`complete` where it consumes the reply — nowhere else.
    """

    def __init__(
        self,
        num_targets: int,
        *,
        relaxed: bool = False,
        window: Optional[int] = None,
        per_site_depth: Optional[int] = None,
    ):
        if not relaxed and (window is not None or per_site_depth is not None):
            raise ValueError(
                "window/per_site_depth only apply to relaxed dispatch; "
                "pass relaxed=True"
            )
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 (or None for unbounded)")
        if per_site_depth is not None and per_site_depth < 1:
            raise ValueError(
                "per_site_depth must be >= 1 (or None for unbounded)"
            )
        self.relaxed = bool(relaxed)
        self.window = window
        self.per_site_depth = per_site_depth
        self._fifos = [deque() for _ in range(num_targets)]
        self._entries = 0
        self._seq = 0
        #: summed weight (runs) of every uncompleted entry
        self.weight = 0
        self.frames_posted = 0
        self.runs_posted = 0
        self.max_inflight_runs = 0
        self.window_stalls = 0

    @property
    def mode(self) -> str:
        """``lockstep``, ``relaxed`` (unbounded) or ``windowed``."""
        if not self.relaxed:
            return "lockstep"
        if self.window is not None or self.per_site_depth is not None:
            return "windowed"
        return "relaxed"

    def __len__(self) -> int:
        """Entries in flight over all targets."""
        return self._entries

    def pending(self, target: int) -> int:
        """Entries in flight towards ``target``."""
        return len(self._fifos[target])

    def admit(self, target: int, weight: int,
              reclaim: Callable[[], None]) -> None:
        """Free the credit a ``weight``-run post to ``target`` needs.

        While the post would exceed ``window`` runs in total or
        ``per_site_depth`` entries on ``target``, count a stall and call
        ``reclaim()``, which must block until the owner has serviced one
        inbound event (typically — not necessarily — a completion).  A
        post heavier than the whole window goes out once the pipe is
        empty, so progress is unconditional.
        """
        window, depth = self.window, self.per_site_depth
        fifo = self._fifos[target]
        while self.weight > 0 and (
            (window is not None and self.weight + weight > window)
            or (depth is not None and len(fifo) >= depth)
        ):
            self.window_stalls += 1
            reclaim()

    def post(self, target: int, weight: int = 0, stamp=None) -> None:
        """Book one entry towards ``target``; ``stamp`` is handed back
        by :meth:`complete` (backends keep the post time there)."""
        self._seq += 1
        self._fifos[target].append((self._seq, weight, stamp))
        self._entries += 1
        if weight:
            self.weight += weight
            self.frames_posted += 1
            self.runs_posted += weight
            if self.weight > self.max_inflight_runs:
                self.max_inflight_runs = self.weight

    def complete(self, target: int):
        """Remove ``target``'s oldest entry; returns its ``stamp``."""
        _, weight, stamp = self._fifos[target].popleft()
        self._entries -= 1
        self.weight -= weight
        return stamp

    def oldest(self) -> Optional[int]:
        """The target holding the globally oldest entry (None: idle)."""
        best = None
        best_seq = 0
        for target, fifo in enumerate(self._fifos):
            if fifo and (best is None or fifo[0][0] < best_seq):
                best, best_seq = target, fifo[0][0]
        return best

    def clear(self, target: Optional[int] = None) -> None:
        """Forget every entry (towards ``target`` only, when given):
        the replies will never be consumed — a failed batch, a
        respawned worker.  Lifetime counters are kept."""
        fifos = self._fifos if target is None else [self._fifos[target]]
        for fifo in fifos:
            self._entries -= len(fifo)
            self.weight -= sum(entry[1] for entry in fifo)
            fifo.clear()

    def stats(self) -> dict:
        """The ``dispatch_stats()`` of whoever owns this ledger.

        ``max_inflight_runs`` is the high-water mark of in-flight runs —
        the flat-memory witness: with a window it never exceeds the
        window (or the heaviest single post).  ``runs_per_frame`` is the
        lifetime mean coalescing ratio."""
        frames = self.frames_posted
        return {
            "mode": self.mode,
            "window": self.window,
            "per_site_depth": self.per_site_depth,
            "frames_posted": frames,
            "runs_posted": self.runs_posted,
            "runs_per_frame": self.runs_posted / frames if frames else 0.0,
            "max_inflight_runs": self.max_inflight_runs,
            "window_stalls": self.window_stalls,
        }

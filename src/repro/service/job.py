"""One registered tracking job: a scheme instance over the shared fleet.

A job owns the full protocol stack for one tracked function — its own
coordinator, one site handler per fleet site, and a logical
:class:`~repro.runtime.Network` whose ledger charges only this job's
traffic (while mirroring into the service-wide aggregate).  Jobs are
created by :meth:`TrackingService.register`, never directly.
"""

from __future__ import annotations

from typing import Optional

from ..runtime import CommStats, TrackingScheme
from ..runtime.simulation import ProtocolStack

__all__ = [
    "TrackingJob",
    "DEFAULT_QUERY_METHODS",
    "query_methods",
    "find_default_query",
    "resolve_query",
]

#: no-argument coordinator queries tried, in order, when ``query()`` is
#: called without an explicit method name.
DEFAULT_QUERY_METHODS = ("estimate", "estimate_total")

#: coordinator methods that mutate protocol state or belong to the
#: transport/persistence machinery — the query API must never reach them.
_NON_QUERY_METHODS = frozenset(
    {
        "on_message",
        "space_words",
        "send_to",
        "broadcast",
        "state_dict",
        "load_state_dict",
    }
)


def query_methods(coordinator) -> list:
    """Public query methods a coordinator exposes, sorted."""
    return sorted(
        name
        for name in dir(coordinator)
        if not name.startswith("_")
        and name not in _NON_QUERY_METHODS
        and callable(getattr(coordinator, name))
    )


def find_default_query(coordinator):
    """The first available no-argument default query, or None."""
    for candidate in DEFAULT_QUERY_METHODS:
        fn = getattr(coordinator, candidate, None)
        if callable(fn):
            return fn
    return None


def resolve_query(coordinator, method):
    """Resolve a query name on a coordinator to a bound callable.

    ``method=None`` picks the default query
    (:data:`DEFAULT_QUERY_METHODS`).  Mutating/transport/persistence
    methods and anything underscored are refused.  Shared by
    :class:`TrackingJob` and the distributed runtime's coordinator hub,
    so the query surface is identical however the protocol is hosted.
    """
    if method is None:
        fn = find_default_query(coordinator)
        if fn is None:
            raise AttributeError(
                f"{type(coordinator).__qualname__} has no default query; "
                f"pass one of {query_methods(coordinator)!r} explicitly"
            )
        return fn
    if method.startswith("_") or method in _NON_QUERY_METHODS:
        raise AttributeError(f"{method!r} is not a public query method")
    fn = getattr(coordinator, method, None)
    if not callable(fn):
        raise AttributeError(
            f"{type(coordinator).__qualname__} has no query method "
            f"{method!r}; available: {query_methods(coordinator)!r}"
        )
    return fn


class TrackingJob(ProtocolStack):
    """A named tracking workload multiplexed over the shared site fleet.

    The same :class:`~repro.runtime.simulation.ProtocolStack` a
    :class:`~repro.runtime.Simulation` is, so the batched ingestion
    engine drives either interchangeably and a job is
    transcript-identical to a standalone simulation with its seed;
    :attr:`comm` is this job's own ledger (its traffic only).
    """

    def __init__(
        self,
        name: str,
        scheme: TrackingScheme,
        num_sites: int,
        seed: int,
        one_way: bool = False,
        uplink_drop_rate: float = 0.0,
        mirror: Optional[CommStats] = None,
        space_budget_words: Optional[int] = None,
    ):
        super().__init__(
            scheme, num_sites, seed, one_way, uplink_drop_rate, mirror=mirror
        )
        self.name = name
        self.seed = seed
        self.space_budget_words = space_budget_words

    # -- queries -----------------------------------------------------------

    def query(self, method: Optional[str] = None, *args, **kwargs):
        """Call a query method on this job's coordinator.

        With ``method=None`` the first available no-argument default
        (:data:`DEFAULT_QUERY_METHODS`) is used — ``estimate()`` for count
        schemes, ``estimate_total()`` for rank schemes.  Otherwise
        ``method`` names any public coordinator method, e.g.
        ``job.query("estimate_rank", 500)`` or ``job.query("top_items", 10)``.
        """
        try:
            fn = resolve_query(self.coordinator, method)
        except AttributeError as exc:
            raise AttributeError(
                f"job {self.name!r} ({self.scheme.name}): {exc}"
            ) from None
        return fn(*args, **kwargs)

    # -- persistence -------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the full protocol stack of this job (JSON-safe).

        One codec scope spans the scheme, network ledger, coordinator and
        every site, so RNG instances shared across components stay shared
        after :meth:`load_state_dict` and the restored job continues the
        exact message/draw transcript.
        """
        from ..persistence.codec import StateEncoder  # deferred: cycle

        encoder = StateEncoder()
        return {
            "name": self.name,
            "seed": self.seed,
            "elements_processed": self.elements_processed,
            "space_budget_words": self.space_budget_words,
            "scheme": encoder.encode(self.scheme),
            "network": encoder.encode(self.network),
            "coordinator": encoder.encode(self.coordinator),
            "sites": encoder.encode(self.sites),
            "space": encoder.encode(self.space),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this (fresh) job.

        The job must have been built from the same scheme configuration
        and fleet size; state is merged into the constructor-built
        components so network wiring stays intact.
        """
        from ..persistence.codec import StateCodecError, StateDecoder

        decoder = StateDecoder()
        self.elements_processed = state["elements_processed"]
        self.space_budget_words = state["space_budget_words"]
        for attr in ("scheme", "network", "coordinator"):
            current = getattr(self, attr)
            if decoder.merge(current, state[attr]) is not current:
                raise StateCodecError(
                    f"job {self.name!r}: snapshot {attr} does not match the "
                    f"registered scheme ({type(current).__qualname__})"
                )
        self.sites = decoder.merge(self.sites, state["sites"])
        self.space = decoder.merge(self.space, state["space"])

    def __repr__(self) -> str:
        return (
            f"TrackingJob(name={self.name!r}, scheme={self.scheme.name!r}, "
            f"elements={self.elements_processed})"
        )

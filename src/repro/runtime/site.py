"""Abstract base class for protocol sites."""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..persistence.codec import PersistableState
from .network import Network
from .protocol import Message

__all__ = ["Site"]


class Site(PersistableState, ABC):
    """One of the ``k`` distributed sites receiving a local stream.

    Subclasses implement :meth:`on_element` (a new stream element arrived
    locally) and :meth:`on_message` (the coordinator sent us something),
    and report their memory footprint through :meth:`space_words`.
    ``state_dict()``/``load_state_dict()`` snapshot everything except the
    network wiring — counters, sketches, RNG streams — so a freshly
    constructed site resumes the exact transcript.
    """

    #: attributes rebuilt by constructors/wiring, never snapshotted
    _persist_transient_ = ("network",)

    def __init__(self, site_id: int, network: Network):
        self.site_id = site_id
        self.network = network

    # -- protocol hooks ---------------------------------------------------

    @abstractmethod
    def on_element(self, item) -> None:
        """Process one element of the local stream."""

    def on_elements(self, items) -> None:
        """Process a contiguous run of local elements (batched fast path).

        ``items`` is a sized, indexable sequence (list or numpy array)
        delivered in arrival order.  The default is a tight loop over
        :meth:`on_element`; subclasses may override with a faster
        implementation, but it MUST be *exactly* equivalent — same
        messages, same RNG consumption in the same order — so batched and
        per-event driving produce identical transcripts from the same
        seed.  The count, frequency and randomized rank sites all
        override it with an inlined ``on_element``; their shared rule is
        that any ``send`` may re-enter :meth:`on_message` (a doubling
        report can start a round), so state held in locals is written
        back before every send and re-read after it.
        """
        on_element = self.on_element
        for item in items:
            on_element(item)

    def on_message(self, message: Message) -> None:
        """Handle a message from the coordinator.  Default: ignore."""

    # -- accounting --------------------------------------------------------

    @abstractmethod
    def space_words(self) -> int:
        """Current working-space footprint, in words."""

    # -- helpers ------------------------------------------------------------

    def send(self, kind: str, payload=None, words: int = 1) -> None:
        """Send a message to the coordinator."""
        self.network.send_to_coordinator(
            self.site_id, Message(kind, payload, words)
        )

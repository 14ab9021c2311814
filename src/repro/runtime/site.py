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
        """Process this site's next local elements (batched fast path).

        ``items`` is a sized, indexable sequence (list or numpy array)
        in local arrival order: one arrival-order run when the site is
        driven live, or — inside a *quiet stretch* the site vouched for
        through :meth:`quiet_horizon` — every element the batch holds
        for it up to the stretch's end, however the other sites'
        elements interleave.  The default is a tight loop over
        :meth:`on_element`; subclasses may override with a faster
        implementation, but it MUST be *exactly* equivalent — same
        messages, same RNG consumption in the same order — so batched and
        per-event driving produce identical transcripts from the same
        seed.  The count, frequency and randomized rank sites all
        override it with an inlined ``on_element``; their shared rule is
        that any ``send`` may re-enter :meth:`on_message` (a doubling
        report can start a round), so state held in locals — the
        element counter :attr:`n_local` first of all — is written back
        before every send and re-read after it.
        """
        on_element = self.on_element
        for item in items:
            on_element(item)

    def quiet_horizon(self) -> int:
        """How many more local elements this site can take before one of
        its *own* uplinks could make the coordinator talk back.

        Between two such uplinks the site is a pure function of its own
        sub-stream and its own RNG, so the batch driver hands it all of
        them in one :meth:`on_elements` call while the network holds the
        uplinks, then replays those in arrival order (see
        :func:`repro.exec.dispatch.drive_batch`).  The default, 0, is
        always safe: the site is driven run by run in arrival order with
        every send delivered at once.  A site that states more must

        * never overstate — a coordinator that answers a held uplink
          raises :class:`~repro.runtime.HorizonViolation`;
        * expose ``n_local``, the number of local elements taken so far,
          and keep it current before every send (the write-back rule of
          :meth:`on_elements`): held uplinks are ordered by it.
        """
        return 0

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

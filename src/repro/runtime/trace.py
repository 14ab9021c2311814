"""Canonical protocol transcripts: record every message a network routes.

A :class:`TranscriptRecorder` attaches to a :class:`~repro.runtime.Network`
tracer hook and keeps the ordered list of (direction, site, message)
events.  :meth:`to_bytes` renders it in one canonical form — JSON lines
with payloads passed through the snapshot codec, so tuples, floats and
nested repro objects serialize deterministically — which makes "these two
runs produced the same transcript" a byte comparison.

This is the equivalence oracle for every alternative driving path: the
batched ingestion engine, the durable replay path, and the distributed
runtime in :mod:`repro.net` all assert byte-identical transcripts against
the per-event simulator.
"""

from __future__ import annotations

import json
from typing import List, Optional

from ..persistence.codec import encode_value
from .protocol import Message

__all__ = ["TranscriptRecorder", "transcript_entry"]


def transcript_entry(direction: str, site_id: Optional[int], message: Message):
    """The canonical tuple recorded for one routed message."""
    return (direction, site_id, message.kind, message.payload, message.words)


class TranscriptRecorder:
    """Ordered, canonically-serializable record of protocol messages.

    Use as a network tracer::

        recorder = TranscriptRecorder()
        recorder.attach(sim.network)
        sim.run(stream)
        blob = recorder.to_bytes()

    Entries are ``(direction, site_id, kind, payload, words)`` tuples;
    broadcasts carry ``site_id=None`` (delivery order to individual
    sites is fixed — ascending site id — in every runtime).
    """

    def __init__(self):
        self.entries: List[tuple] = []

    def __call__(self, direction, site_id, message: Message) -> None:
        self.entries.append(transcript_entry(direction, site_id, message))

    def attach(self, network) -> "TranscriptRecorder":
        """Install this recorder as ``network``'s tracer; returns self."""
        network.set_tracer(self)
        return self

    def __len__(self) -> int:
        return len(self.entries)

    def lines(self) -> List[str]:
        """One canonical JSON line per message, in routing order."""
        return [
            json.dumps(
                [direction, site_id, kind, encode_value(payload), words],
                separators=(",", ":"),
                sort_keys=True,
            )
            for direction, site_id, kind, payload, words in self.entries
        ]

    def to_bytes(self) -> bytes:
        """The whole transcript as one canonical byte string."""
        return ("\n".join(self.lines()) + "\n").encode() if self.entries else b""

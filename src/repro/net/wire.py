"""Wire encoding of protocol messages and event runs.

Two payload families cross the distributed runtime's wire:

* **Protocol messages** (:class:`~repro.runtime.Message`): the kind tag
  and word count ride as-is; the payload — arbitrary immutable Python
  (tuples, floats, nested repro objects for shipped summaries) — goes
  through the persistence snapshot codec, so a decoded message compares
  ``==`` to the original and transcripts stay byte-identical across the
  wire.
* **Event runs** (the per-site chunks of an ingested batch): shipped as
  plain item lists.  Serialization happens at the frame layer: the
  binary payload envelope (:func:`repro.net.frames.encode_payload`)
  lifts long numeric runs — and the number arrays inside snapshot-coded
  summaries — into raw typed blobs, so TCP byte volume is raw-array
  sized instead of JSON/base64 sized, and the loopback transport ships
  the lists with no serialization at all.
"""

from __future__ import annotations

import numpy as _np

from ..persistence.codec import decode_value, encode_value
from ..persistence.wal import _SCALAR_TYPES, decode_items
from ..runtime.protocol import Message

__all__ = [
    "encode_message",
    "decode_message",
    "encode_chunk",
    "decode_chunk",
]


def encode_message(message: Message) -> dict:
    """A :class:`Message` as a JSON-safe dict (payload snapshot-coded)."""
    return {
        "k": message.kind,
        "p": encode_value(message.payload),
        "w": message.words,
    }


def decode_message(obj: dict) -> Message:
    """Inverse of :func:`encode_message`; payload values round-trip."""
    return Message(obj["k"], decode_value(obj["p"]), obj["w"])


def encode_chunk(items) -> dict:
    """One run's item list as a frame-ready dict.

    Count-style unit runs (``[1, 1, ...]``, what the run decomposition
    materializes for item-less streams) collapse to their length — O(1)
    wire bytes per run.  Other items ride as a plain list; the frame
    layer's binary envelope packs all-int / all-float runs into raw
    blobs on TCP.

    Columnar super-runs (typed numpy arrays from
    :func:`repro.exec.dispatch.coalesce_runs`) keep their array form:
    the unit-run collapse becomes one vectorized comparison and the
    frame layer packs the array via ``tobytes`` with no per-element
    walk.  :func:`decode_chunk` normalizes arrays back to plain lists,
    so sites see identical values on every transport.
    """
    if isinstance(items, _np.ndarray):
        kind = items.dtype.kind
        if kind in "iu":
            if items.size and bool((items == 1).all()):
                return {"unit": int(items.size)}
            return {"items": items}
        if kind == "f":
            return {"items": items}
        items = items.tolist()
    if not isinstance(items, list):
        items = list(items)
    if items and all(type(v) is int and v == 1 for v in items):
        return {"unit": len(items)}
    if set(map(type, items)) <= _SCALAR_TYPES:
        return {"items": items}
    # Rich items (tuples, e.g. labeled multi-tenant events) go through
    # the snapshot codec so JSON transports restore identical values.
    return {
        "items": [
            v if type(v) in _SCALAR_TYPES else encode_value(v)
            for v in items
        ],
        "coded": True,
    }


def decode_chunk(obj: dict) -> list:
    """Inverse of :func:`encode_chunk` (a ``coded`` field marks rich
    items that went through the snapshot codec)."""
    if "unit" in obj:
        return [1] * obj["unit"]
    if "coded" in obj:
        return decode_items(obj["items"], obj["coded"])
    items = obj["items"]
    if isinstance(items, list):
        return items
    if isinstance(items, _np.ndarray):
        # tolist() yields native Python scalars — schemes never see
        # numpy types, and loopback (no serialization) matches TCP.
        return items.tolist()
    return list(items)

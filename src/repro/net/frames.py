"""Length-prefixed frame codec for the distributed runtime's wire.

Every frame is a 4-byte big-endian payload length followed by the
payload bytes.  The codec is transport-agnostic byte plumbing:
:func:`encode_frame` produces one frame, :class:`FrameDecoder` consumes
an arbitrary chunking of the byte stream (TCP gives no message
boundaries) and yields complete payloads.

Failure modes are explicit:

* a frame whose declared length exceeds ``max_frame`` raises
  :class:`FrameTooLargeError` *before* buffering the body — a corrupt or
  hostile peer cannot make the decoder allocate unbounded memory;
* a stream that ends mid-frame is a *torn frame*; callers detect it by
  checking :attr:`FrameDecoder.pending_bytes` (or calling
  :meth:`FrameDecoder.finish`) at EOF.

On top of raw frames, :func:`encode_payload` / :func:`decode_payload`
carry the runtime's messages: one codec per boundary.

**Binary payloads.**  Control frames stay JSON (compact separators,
UTF-8), but the bulky payloads — run chunks and shipped summaries —
are mostly long homogeneous number
lists, which JSON (and the WAL's base64 packed-int codec) render at
2-4x their raw size.  :func:`encode_payload` walks an object, lifts
every long all-int / all-float list out into a raw little-endian typed
blob, and emits a *binary envelope*::

    0xF5 | u32 header_len | header JSON | u32 n_blobs | (u32 len | bytes)*

where the header is the original object with each lifted list replaced
by a ``{"__wblob__": [index, dtype]}`` placeholder.  Objects with no
packable lists encode as plain JSON (UTF-8 never begins with ``0xF5``,
so :func:`decode_payload` distinguishes the two without out-of-band
signalling; :func:`decode_json` is the decoder's JSON arm).
Packing is exact: ints ride as ``i4``/``i8`` (bigger ints stay JSON),
floats as IEEE ``f8`` — every value round-trips bit-identically, so
transcript equivalence is untouched.  Columnar super-run chunks (typed
numpy arrays from the dispatch coalescer) take a fast path: the same
blob layout, produced by one ``tobytes`` instead of a per-element
``struct.pack`` walk, and decoded to the same plain Python scalars.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Tuple

import numpy as _np

__all__ = [
    "DEFAULT_MAX_FRAME",
    "MIN_PACK",
    "FrameError",
    "FrameTooLargeError",
    "TornFrameError",
    "FrameDecoder",
    "encode_frame",
    "decode_json",
    "encode_payload",
    "decode_payload",
]

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

#: ceiling on one frame's payload; a run of a few million packed ints
#: fits comfortably, a corrupted length prefix does not
DEFAULT_MAX_FRAME = 64 * 1024 * 1024


class FrameError(RuntimeError):
    """Base class for framing failures."""


class FrameTooLargeError(FrameError):
    """A frame's declared payload length exceeds the configured maximum."""


class TornFrameError(FrameError):
    """The byte stream ended in the middle of a frame."""


def encode_frame(payload: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> bytes:
    """Wrap ``payload`` in a length prefix; rejects oversized payloads."""
    if len(payload) > max_frame:
        raise FrameTooLargeError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(max {max_frame})"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame reassembly over an arbitrarily-chunked stream.

    Feed it whatever the transport produced — single bytes, half a
    header, three frames at once — and it returns the payloads that
    completed::

        decoder = FrameDecoder()
        for chunk in stream:
            for payload in decoder.feed(chunk):
                handle(payload)
        decoder.finish()   # raises TornFrameError on a mid-frame EOF
    """

    def __init__(self, max_frame: int = DEFAULT_MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        self._need: Optional[int] = None  # body length once header parsed

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered that do not yet form a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Consume one chunk; returns every payload it completed."""
        self._buffer.extend(data)
        out: List[bytes] = []
        while True:
            if self._need is None:
                if len(self._buffer) < HEADER_BYTES:
                    break
                (self._need,) = _HEADER.unpack_from(self._buffer)
                if self._need > self.max_frame:
                    raise FrameTooLargeError(
                        f"incoming frame declares {self._need} bytes "
                        f"(max {self.max_frame})"
                    )
                del self._buffer[:HEADER_BYTES]
            if len(self._buffer) < self._need:
                break
            body = bytes(self._buffer[: self._need])
            del self._buffer[: self._need]
            self._need = None
            out.append(body)
        return out

    def finish(self) -> None:
        """Assert the stream ended on a frame boundary."""
        if self._buffer or self._need is not None:
            pending = len(self._buffer) + (
                HEADER_BYTES if self._need is not None else 0
            )
            raise TornFrameError(
                f"stream ended mid-frame with {pending} buffered byte(s)"
            )


def decode_json(payload: bytes):
    """Parse one frame payload as a JSON control message."""
    try:
        return json.loads(payload)
    except ValueError as exc:
        raise FrameError(f"malformed JSON frame: {exc}") from exc


# -- binary payload envelope -----------------------------------------------

_BINARY_MAGIC = 0xF5  # never a valid first byte of UTF-8 JSON
_U32 = struct.Struct(">I")

#: shortest list worth lifting into a typed blob; below this the JSON
#: rendering is competitive and the placeholder overhead is not
MIN_PACK = 16

_BLOB_KEY = "__wblob__"
_ESC_KEY = "__wesc__"

_I8_MIN, _I8_MAX = -(1 << 63), (1 << 63) - 1

#: dtype -> (struct format template, item size in bytes)
_PACKERS = {
    "u1": ("<%dB", 1),
    "i2": ("<%dh", 2),
    "i4": ("<%di", 4),
    "i8": ("<%dq", 8),
    "f8": ("<%dd", 8),
}

#: per-blob envelope overhead (placeholder JSON + length prefix), used
#: by the size gate below
_BLOB_OVERHEAD = 28


def _classify(values) -> Optional[str]:
    """The blob dtype for a list, or None when it must stay JSON.

    Ints pick the smallest fixed width that holds the whole list;
    bigger-than-i8 ints and mixed-type lists stay JSON.
    """
    first = type(values[0])
    if first is int:
        lo = hi = values[0]
        for v in values:
            if type(v) is not int:
                return None
            if v < lo:
                lo = v
            elif v > hi:
                hi = v
        if 0 <= lo and hi <= 0xFF:
            return "u1"
        if -0x8000 <= lo and hi <= 0x7FFF:
            return "i2"
        if -(1 << 31) <= lo and hi <= (1 << 31) - 1:
            return "i4"
        if _I8_MIN <= lo and hi <= _I8_MAX:
            return "i8"
        return None  # bigints stay JSON
    if first is float:
        for v in values:
            if type(v) is not float:
                return None
        return "f8"
    return None


def _json_length(values) -> int:
    """Byte length the list costs inside a JSON rendering.

    ``repr`` of ints and (finite) floats matches their JSON rendering;
    the +1 per element covers the comma/bracket.  Exactness does not
    matter — this only gates whether a raw blob is the smaller layout.
    """
    return sum(len(repr(v)) + 1 for v in values) + 1


#: numpy target dtype for each blob dtype tag
_ND_TARGETS = {"u1": "u1", "i2": "<i2", "i4": "<i4", "i8": "<i8", "f8": "<f8"}


def _pack_ndarray(arr, blobs: List[bytes]) -> Optional[dict]:
    """Blob a 1-D numeric numpy array via ``tobytes`` — no element walk.

    The blob layout is identical to the list path (smallest int width,
    little-endian), so the decoder needs no new cases and values
    round-trip to the same plain Python scalars.  Returns None for
    shapes/dtypes the envelope cannot carry exactly.
    """
    kind = arr.dtype.kind
    if arr.ndim != 1 or arr.size == 0 or kind not in "iuf":
        return None
    if kind == "f":
        if arr.dtype.itemsize > 8:
            return None  # long doubles would lose precision as f8
        dtype = "f8"
    else:
        lo, hi = int(arr.min()), int(arr.max())
        if hi > _I8_MAX or lo < _I8_MIN:
            return None  # u8 values beyond i8 stay JSON (as bigints do)
        if 0 <= lo and hi <= 0xFF:
            dtype = "u1"
        elif -0x8000 <= lo and hi <= 0x7FFF:
            dtype = "i2"
        elif -(1 << 31) <= lo and hi <= (1 << 31) - 1:
            dtype = "i4"
        else:
            dtype = "i8"
    data = arr.astype(_ND_TARGETS[dtype], copy=False)
    index = len(blobs)
    blobs.append(data.tobytes())
    return {_BLOB_KEY: [index, dtype]}


def _pack_walk(obj, blobs: List[bytes]):
    if isinstance(obj, _np.ndarray):
        packed = _pack_ndarray(obj, blobs)
        if packed is not None:
            return packed
        return _pack_walk(obj.tolist(), blobs)
    if isinstance(obj, (list, tuple)):
        if len(obj) >= MIN_PACK:
            dtype = _classify(obj)
            if dtype is not None:
                template, item_size = _PACKERS[dtype]
                blob_size = item_size * len(obj) + _BLOB_OVERHEAD
                # Size gate: small numbers (single-digit ints, "1.0"
                # floats) render tighter as JSON than as fixed-width
                # blobs; only pack when raw bytes actually win.
                if blob_size < _json_length(obj):
                    index = len(blobs)
                    blobs.append(struct.pack(template % len(obj), *obj))
                    return {_BLOB_KEY: [index, dtype]}
        return [_pack_walk(v, blobs) for v in obj]
    if isinstance(obj, dict):
        packed = {k: _pack_walk(v, blobs) for k, v in obj.items()}
        if _BLOB_KEY in obj or _ESC_KEY in obj:
            # A literal payload key collides with the envelope's markers;
            # wrap so the decoder treats this dict's keys as data.
            return {_ESC_KEY: packed}
        return packed
    return obj


def _unpack_walk(obj, blobs: List[bytes]):
    if isinstance(obj, list):
        return [_unpack_walk(v, blobs) for v in obj]
    if isinstance(obj, dict):
        keys = obj.keys()
        if len(obj) == 1 and _BLOB_KEY in keys:
            index, dtype = obj[_BLOB_KEY]
            blob = blobs[index]
            template, item_size = _PACKERS[dtype]
            count, rem = divmod(len(blob), item_size)
            if rem:
                raise FrameError(
                    f"blob {index} is not a whole number of {dtype} items"
                )
            return list(struct.unpack(template % count, blob))
        if len(obj) == 1 and _ESC_KEY in keys:
            return {
                k: _unpack_walk(v, blobs) for k, v in obj[_ESC_KEY].items()
            }
        return {k: _unpack_walk(v, blobs) for k, v in obj.items()}
    return obj


def encode_payload(obj) -> bytes:
    """One wire object as a frame payload, numeric bulk in raw blobs.

    Falls back to plain JSON when nothing is packable, so small control
    messages pay zero envelope overhead.
    """
    blobs: List[bytes] = []
    header_obj = _pack_walk(obj, blobs)
    if not blobs:
        try:
            return json.dumps(obj, separators=(",", ":")).encode()
        except TypeError:
            # Non-JSON leaves (e.g. an array the blob layout can't carry
            # exactly) were normalized into header_obj by the walk; ship
            # the envelope with zero blobs so the decoder unwraps it.
            pass
    header = json.dumps(header_obj, separators=(",", ":")).encode()
    parts = [bytes([_BINARY_MAGIC]), _U32.pack(len(header)), header,
             _U32.pack(len(blobs))]
    for blob in blobs:
        parts.append(_U32.pack(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def _read_u32(payload: bytes, offset: int) -> Tuple[int, int]:
    if offset + 4 > len(payload):
        raise FrameError("truncated binary payload")
    return _U32.unpack_from(payload, offset)[0], offset + 4


def decode_payload(payload: bytes):
    """Inverse of :func:`encode_payload`; also accepts plain JSON."""
    if not payload or payload[0] != _BINARY_MAGIC:
        return decode_json(payload)
    header_len, offset = _read_u32(payload, 1)
    if offset + header_len > len(payload):
        raise FrameError("binary payload header overruns the frame")
    header = decode_json(payload[offset:offset + header_len])
    offset += header_len
    n_blobs, offset = _read_u32(payload, offset)
    blobs: List[bytes] = []
    for _ in range(n_blobs):
        blob_len, offset = _read_u32(payload, offset)
        if offset + blob_len > len(payload):
            raise FrameError("binary payload blob overruns the frame")
        blobs.append(payload[offset:offset + blob_len])
        offset += blob_len
    if offset != len(payload):
        raise FrameError(
            f"{len(payload) - offset} trailing byte(s) after the last blob"
        )
    return _unpack_walk(header, blobs)

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
transcript equivalence is untouched.

**Typed columns.**  Event columns follow one carrier rule, applied once
where a batch enters (:func:`repro.runtime.batching.as_column`): all
Python ints within int64 are an ``int64`` array, all floats a
``float64`` array, anything else a list.  A 1-D int/float numpy array
— an ingested column, a columnar super-run, a rank table's columns —
takes the fast path: the same blob layout, produced by one ``tobytes``
instead of a per-element walk, with a third placeholder field marking
it array-origin (``{"__wblob__": [index, dtype, "a"]}``), and the
receiver rebuilds it with one ``np.frombuffer`` as an ``int64`` /
``float64`` array.  List-origin blobs decode to lists, so protocol
messages and shipped summaries are byte-for-byte what they always were.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Tuple

import numpy as _np

from ..runtime.batching import as_column

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

#: blob dtype tag -> the numpy dtype of its little-endian items
_BLOB_DTYPES = {
    tag: _np.dtype(code)
    for tag, code in (
        ("u1", "u1"), ("i2", "<i2"), ("i4", "<i4"), ("i8", "<i8"),
        ("f8", "<f8"),
    )
}

#: per-blob envelope overhead (placeholder JSON + length prefix), used
#: by the size gate below
_BLOB_OVERHEAD = 28

#: third placeholder field of an array-origin blob (decoded as an array)
_ARRAY_ORIGIN = "a"

#: 10 ** 1 .. 10 ** 19: digit counts of int64 magnitudes by bisection
_POW10 = _np.array([10**e for e in range(1, 20)], dtype=_np.uint64)


def _classify(column) -> Optional[str]:
    """The blob dtype for a typed column, or None when it must stay JSON.

    Lists reach here only through their carrier (:func:`~repro.runtime.
    batching.as_column`), so bools, mixed int/float, bigger-than-i8 ints
    and anything non-numeric never do.  Ints pick the smallest fixed
    width that holds the whole column, floats ride as IEEE ``f8``.
    """
    if column.ndim != 1:
        return None
    kind = column.dtype.kind
    if not column.size or kind not in "iuf":
        return None
    if kind == "f":
        # long doubles would lose precision as f8
        return "f8" if column.dtype.itemsize <= 8 else None
    lo, hi = int(column.min()), int(column.max())
    if 0 <= lo and hi <= 0xFF:
        return "u1"
    if -0x8000 <= lo and hi <= 0x7FFF:
        return "i2"
    if -(1 << 31) <= lo and hi <= (1 << 31) - 1:
        return "i4"
    if -(1 << 63) <= lo and hi <= (1 << 63) - 1:
        return "i8"
    return None  # u8 values beyond i8 stay JSON (as bigints do)


def _json_length(values, column) -> int:
    """Byte length the list costs inside a JSON rendering.

    ``repr`` of ints and (finite) floats matches their JSON rendering;
    the +1 per element covers the comma/bracket.  An int column counts
    its digits in one vectorized bisection; floats take their ``repr``.
    Exactness does not matter — this only gates whether a raw blob is
    the smaller layout — but the count is exact, so the layout is the
    same whichever way it is computed.
    """
    if column.dtype.kind == "f":
        return sum(len(repr(v)) + 1 for v in values) + 1
    negative = column < 0
    magnitude = _np.where(negative, -(column + 1), column).astype(
        _np.uint64
    ) + negative
    digits = _np.searchsorted(_POW10, magnitude, side="right") + 1
    return int(digits.sum()) + int(negative.sum()) + len(column) + 1


def _pack_column(column, blobs: List[bytes], listed=None) -> Optional[dict]:
    """Blob a typed column via ``tobytes`` — no element walk.

    ``listed`` is the list the column was lifted from, or None for an
    array the caller handed over.  List-origin columns keep the list
    layout (and decode back to lists); a size gate leaves them JSON
    when small numbers render tighter than fixed-width items.
    Array-origin blobs carry a third placeholder field and decode with
    one ``np.frombuffer`` as the canonical carrier (``int64`` /
    ``float64``).  Returns None when the envelope cannot carry the
    column exactly.
    """
    dtype = _classify(column)
    if dtype is None:
        return None
    target = _BLOB_DTYPES[dtype]
    if listed is not None and (
        target.itemsize * len(column) + _BLOB_OVERHEAD
        >= _json_length(listed, column)
    ):
        return None
    index = len(blobs)
    blobs.append(column.astype(target, copy=False).tobytes())
    if listed is not None:
        return {_BLOB_KEY: [index, dtype]}
    return {_BLOB_KEY: [index, dtype, _ARRAY_ORIGIN]}


def _pack_walk(obj, blobs: List[bytes]):
    if isinstance(obj, _np.ndarray):
        packed = _pack_column(obj, blobs)
        if packed is not None:
            return packed
        return _pack_walk(obj.tolist(), blobs)
    if isinstance(obj, (list, tuple)):
        if len(obj) >= MIN_PACK:
            column = as_column(obj)
            if isinstance(column, _np.ndarray):
                packed = _pack_column(column, blobs, obj)
                if packed is not None:
                    return packed
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
            index, dtype, *origin = obj[_BLOB_KEY]
            blob = blobs[index]
            target = _BLOB_DTYPES[dtype]
            if len(blob) % target.itemsize:
                raise FrameError(
                    f"blob {index} is not a whole number of {dtype} items"
                )
            column = _np.frombuffer(blob, target)
            if origin:
                return column.astype(
                    _np.float64 if dtype == "f8" else _np.int64, copy=False
                )
            return column.tolist()
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

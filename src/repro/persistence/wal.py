"""Write-ahead event log with segment rotation.

The durability contract of the tracking service: every mutation of
protocol state — an ingested batch, a job (un)registration — is appended
here *before* it is applied to the in-memory protocol stacks.  A crash
therefore loses at most the mutation being written, never an applied
one; recovery replays the tail after the latest snapshot through the
normal batched engine and lands on transcript-identical state.

Records are JSON lines, grouped into fixed-size segments named by the
sequence number of their first record (``wal-000000000123.seg``).
Rotation keeps individual files small so snapshot-covered prefixes can
be deleted wholesale (:meth:`WriteAheadLog.truncate_through`) without
rewriting anything.

A torn final line (crash mid-append) is silently discarded on both
replay and reopen: by the write-ahead ordering, a record that never
finished writing was never applied, and it was never acknowledged.

Batch payloads keep item values exact: scalar items are stored raw and
tuple-or-richer items go through the snapshot codec, so replayed events
compare (and hash) identically to the originals.  Columns arrive in
their carrier (:func:`repro.runtime.batching.as_column`: all Python
ints within int64 -> an ``int64`` array, all floats -> a ``float64``
array, anything else a list): an int array is packed straight from its
buffer with no list round trip, and every layout is byte-for-byte what
the same values give as a plain list, so a log replays the same
whichever carrier wrote it.  Replay hands back plain lists.
"""

from __future__ import annotations

import base64
import json
import os
from typing import Iterator, List, Optional, Tuple

import numpy as _np

from ..runtime.batching import as_column
from .codec import _SCALARS as _codec_scalars
from .codec import decode_value, encode_value

__all__ = [
    "WriteAheadLog",
    "WalCorruptionError",
    "encode_int_array",
    "decode_int_array",
    "encode_items",
    "decode_items",
]

#: record type tags
REC_BATCH = "batch"
REC_REGISTER = "register"
REC_UNREGISTER = "unregister"

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".seg"


class WalCorruptionError(RuntimeError):
    """A WAL segment is unreadable somewhere other than its final line."""


def _segment_name(first_seq: int) -> str:
    return f"{_SEGMENT_PREFIX}{first_seq:012d}{_SEGMENT_SUFFIX}"


_SCALAR_TYPES = frozenset(_codec_scalars)
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1


def _pack_int_array(arr) -> dict:
    """Base64-pack a numpy integer array (int32 when it fits).

    An order of magnitude cheaper to write than a JSON number list on
    the ingest hot path, and decoded back to exact Python ints.
    """
    lo, hi = int(arr.min()), int(arr.max())
    if _INT32_MIN <= lo and hi <= _INT32_MAX:
        arr, tag = arr.astype(_np.int32, copy=False), "i4"
    else:
        arr, tag = arr.astype(_np.int64, copy=False), "i8"
    return {tag: base64.b64encode(arr.tobytes()).decode("ascii")}


def encode_int_array(values):
    """Pack a site-id or all-int item list into a JSON-safe payload.

    Values outside int64 (or anything numpy rejects) fall back to the
    raw JSON list path, which is lossless for arbitrary Python ints.
    Shared with the network wire format (:mod:`repro.net.wire`), so
    batches cost the same whether they hit the log or the wire.
    """
    try:
        if isinstance(values, _np.ndarray):
            if values.size == 0:
                return []
            return _pack_int_array(values)
        if values:
            return _pack_int_array(_np.asarray(values, dtype=_np.int64))
    except (OverflowError, TypeError, ValueError):
        pass
    return values if isinstance(values, list) else list(values)


def decode_int_array(payload) -> list:
    """Inverse of :func:`encode_int_array`; always a list of exact ints."""
    if isinstance(payload, dict):
        (tag, blob), = payload.items()
        dtype = _np.int32 if tag == "i4" else _np.int64
        return _np.frombuffer(base64.b64decode(blob), dtype=dtype).tolist()
    return payload


def encode_items(items) -> Tuple[Optional[object], bool]:
    """(payload, codec_flag) for a batch's item column.

    The column's carrier (:func:`repro.runtime.batching.as_column`)
    picks the layout: an ``int64`` array is packed straight from its
    buffer, a ``float64`` array is stored as its raw JSON list, other
    scalar mixes are stored raw, and anything richer (tuples, e.g. the
    labeled multi-tenant items) goes through the snapshot codec so
    decoding restores identical — hashable — values.  Every layout is
    byte-for-byte what the same values give as a plain list.
    """
    if items is None:
        return None, False
    items = as_column(items)
    if isinstance(items, _np.ndarray):
        if items.dtype.kind == "f":
            return items.tolist(), False
        return _pack_int_array(items), False
    if set(map(type, items)) <= _SCALAR_TYPES:
        return items, False
    return [
        v if type(v) in _SCALAR_TYPES else encode_value(v) for v in items
    ], True


def decode_items(payload, coded: bool = False) -> Optional[list]:
    """Inverse of :func:`encode_items`; items compare and hash exactly."""
    if payload is None:
        return None
    if isinstance(payload, dict):
        return decode_int_array(payload)
    if coded:
        return [
            decode_value(v) if isinstance(v, (dict, list)) else v
            for v in payload
        ]
    return payload


def _peek_seq(line: bytes) -> Optional[int]:
    """Sequence number of a record line without a full JSON parse.

    Every record is ``["<type>",<seq>,...]``; the bytes between the
    first two commas are the seq.  Returns None when the line does not
    match that shape (caller falls back to a full parse).
    """
    first = line.find(b",")
    if first < 0:
        return None
    second = line.find(b",", first + 1)
    if second < 0:
        second = line.find(b"]", first + 1)
        if second < 0:
            return None
    try:
        return int(line[first + 1 : second])
    except ValueError:
        return None


class WriteAheadLog:
    """Append-only, segment-rotated event log under one directory.

    Parameters
    ----------
    directory:
        Where segments live; created if missing.
    segment_records:
        Records per segment before rotating to a new file.
    sync:
        Force an ``fsync`` after every append.  Off by default: the
        service's durability point is then the OS page cache (process
        death safe, power loss not), which is the usual trade for a
        negligible-overhead hot path.
    """

    def __init__(self, directory: str, segment_records: int = 4096,
                 sync: bool = False):
        if segment_records < 1:
            raise ValueError("segment_records must be positive")
        self.directory = directory
        self.segment_records = segment_records
        self.sync = sync
        os.makedirs(directory, exist_ok=True)
        self._file = None
        self._records_in_segment = 0
        self._undo = None
        self.last_seq = -1
        #: bytes appended by this process (monotonic; rollbacks do not
        #: subtract — the write happened, which is what telemetry asks)
        self.bytes_appended = 0
        self.records_appended = 0
        self._recover_tail()

    # -- segment bookkeeping ----------------------------------------------

    def _segments(self) -> List[Tuple[int, str]]:
        """Sorted (first_seq, path) pairs of existing segments."""
        out = []
        for name in os.listdir(self.directory):
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX):
                seq_text = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
                try:
                    first_seq = int(seq_text)
                except ValueError:
                    continue
                out.append((first_seq, os.path.join(self.directory, name)))
        out.sort()
        return out

    def _recover_tail(self) -> None:
        """Find the last complete record; drop a torn final line.

        Only newline structure is scanned (C speed) and only the final
        line is parsed — reopening a multi-megabyte segment costs
        milliseconds, which keeps recovery dominated by actual replay.
        """
        segments = self._segments()
        if not segments:
            return
        first_seq, path = segments[-1]
        with open(path, "rb") as f:
            data = f.read()
        keep = len(data)
        last_seq = None
        while keep > 0:
            end = data.rfind(b"\n", 0, keep)
            if end + 1 != keep:
                keep = end + 1  # torn tail: record never applied/acked
                continue
            start = data.rfind(b"\n", 0, end) + 1
            last_seq = _peek_seq(data[start:end])
            if last_seq is not None:
                break
            keep = start  # trailing garbage line: drop it too
        if keep < len(data):
            with open(path, "r+b") as f:
                f.truncate(keep)
        self.last_seq = first_seq - 1 if last_seq is None else last_seq
        self._records_in_segment = data.count(b"\n", 0, keep)
        # Older segments must be complete; their last seq is implied by
        # the next segment's first seq, so no scan is needed here.

    def _open_for_append(self) -> None:
        if self._file is not None:
            return
        segments = self._segments()
        if segments and self._records_in_segment < self.segment_records:
            self._file = open(segments[-1][1], "ab")
        else:
            self._rotate()

    def _rotate(self) -> None:
        if self._file is not None:
            self._file.close()
        path = os.path.join(self.directory, _segment_name(self.last_seq + 1))
        self._file = open(path, "ab")
        self._records_in_segment = 0

    # -- appends -----------------------------------------------------------

    def _append(self, record: list) -> int:
        self._open_for_append()
        if self._records_in_segment >= self.segment_records:
            self._rotate()
        seq = self.last_seq + 1
        record[1] = seq
        line = json.dumps(record, separators=(",", ":")) + "\n"
        self._undo = (self._file.tell(), self.last_seq, self._records_in_segment)
        encoded = line.encode()
        self._file.write(encoded)
        self._file.flush()
        if self.sync:
            os.fsync(self._file.fileno())
        self.last_seq = seq
        self._records_in_segment += 1
        self.bytes_appended += len(encoded)
        self.records_appended += 1
        return seq

    def ensure_seq_floor(self, seq: int) -> None:
        """Never hand out sequence numbers at or below ``seq``.

        A checkpoint that covers every record truncates the log to
        nothing; on the next recovery the files alone cannot tell where
        numbering left off.  The recovery manager calls this with the
        snapshot's ``wal_seq`` so post-restore appends (and the
        snapshots they lead to) stay monotonic.
        """
        if seq > self.last_seq:
            if self._segments():
                raise RuntimeError(
                    "snapshot is ahead of a non-empty WAL; the log "
                    "directory has been tampered with"
                )
            self.last_seq = seq

    def rollback_last(self) -> None:
        """Erase the most recent append (write-ahead + failed apply).

        The service logs a mutation ahead of applying it; if the apply
        raises, the logged record must not survive to poison recovery.
        Truncating the active segment back to its pre-append length
        restores the exact on-disk state.
        """
        if self._undo is None or self._file is None:
            raise RuntimeError("no append to roll back")
        offset, last_seq, records = self._undo
        self._undo = None
        self._file.truncate(offset)
        self._file.seek(offset)
        self.last_seq = last_seq
        self._records_in_segment = records

    def append_batch(self, site_ids, items=None) -> int:
        """Log one ingested batch ahead of applying it; returns its seq."""
        payload, coded = encode_items(items)
        return self._append(
            [REC_BATCH, -1, encode_int_array(site_ids), payload, coded]
        )

    def append_register(self, name: str, scheme_state, seed: int,
                        space_budget_words) -> int:
        """Log a job registration (scheme encoded via the codec)."""
        return self._append(
            [REC_REGISTER, -1, name, scheme_state, seed, space_budget_words]
        )

    def append_unregister(self, name: str) -> int:
        """Log a job removal."""
        return self._append([REC_UNREGISTER, -1, name])

    # -- replay ------------------------------------------------------------

    def records(self, after_seq: int = -1) -> Iterator[list]:
        """Yield complete records with seq > ``after_seq``, in order.

        Batch records come out as ``[type, seq, site_ids, items]`` with
        items decoded back to their original values.
        """
        segments = self._segments()
        for index, (first_seq, path) in enumerate(segments):
            last_segment = index == len(segments) - 1
            if index + 1 < len(segments) and segments[index + 1][0] <= after_seq:
                continue  # wholly covered by the snapshot
            with open(path, "rb") as f:
                for raw in f:
                    if not raw.endswith(b"\n"):
                        if last_segment:
                            break  # torn tail
                        raise WalCorruptionError(f"truncated record in {path}")
                    # Cheap seq peek skips snapshot-covered records
                    # without paying for a full JSON parse.
                    peeked = _peek_seq(raw)
                    if peeked is not None and peeked <= after_seq:
                        continue
                    try:
                        record = json.loads(raw)
                    except ValueError:
                        if last_segment:
                            break
                        raise WalCorruptionError(f"corrupt record in {path}")
                    if record[1] <= after_seq:
                        continue
                    if record[0] == REC_BATCH:
                        _, seq, site_ids, payload, coded = record
                        yield [
                            REC_BATCH,
                            seq,
                            decode_int_array(site_ids),
                            decode_items(payload, coded),
                        ]
                    else:
                        yield record

    # -- maintenance -------------------------------------------------------

    def truncate_through(self, seq: int) -> int:
        """Delete segments whose records are all <= ``seq``.

        Called after a snapshot covering ``seq`` is durably written.
        Returns the number of segments removed.  When *everything* is
        covered the active segment goes too (recovery then reads no
        records at all); appends continue into a fresh segment.
        """
        segments = self._segments()
        removed = 0
        if segments and seq >= self.last_seq:
            if self._file is not None:
                self._file.close()
                self._file = None
            for _, path in segments:
                os.remove(path)
            self._records_in_segment = 0
            return len(segments)
        for index, (first_seq, path) in enumerate(segments):
            next_first = (
                segments[index + 1][0] if index + 1 < len(segments) else None
            )
            if next_first is None or next_first > seq + 1:
                break  # segment may contain records beyond seq (or is active)
            os.remove(path)
            removed += 1
        return removed

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

"""Frame codec: partial reads, torn frames, oversized rejection, wire codec."""

import pytest

from repro.net.frames import (
    FrameDecoder,
    FrameError,
    FrameTooLargeError,
    MIN_PACK,
    TornFrameError,
    decode_json,
    decode_payload,
    encode_frame,
    encode_payload,
)
from repro.net.wire import (
    decode_chunk,
    decode_message,
    encode_chunk,
    encode_message,
)
from repro.runtime import Message


class TestFrameRoundTrip:
    def test_single_frame(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"hello")) == [b"hello"]
        assert decoder.pending_bytes == 0

    def test_empty_payload(self):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(b"")) == [b""]

    def test_many_frames_in_one_chunk(self):
        payloads = [b"a", b"bb" * 100, b"", b"xyz"]
        blob = b"".join(encode_frame(p) for p in payloads)
        assert FrameDecoder().feed(blob) == payloads

    def test_byte_by_byte_feed(self):
        payloads = [b"alpha", b"beta-gamma", b""]
        blob = b"".join(encode_frame(p) for p in payloads)
        decoder = FrameDecoder()
        out = []
        for i in range(len(blob)):
            out.extend(decoder.feed(blob[i : i + 1]))
        assert out == payloads
        decoder.finish()  # clean boundary

    def test_split_inside_header(self):
        frame = encode_frame(b"payload")
        decoder = FrameDecoder()
        assert decoder.feed(frame[:2]) == []
        assert decoder.feed(frame[2:]) == [b"payload"]

    def test_split_inside_body(self):
        frame = encode_frame(b"0123456789")
        decoder = FrameDecoder()
        assert decoder.feed(frame[:7]) == []
        assert decoder.pending_bytes > 0
        assert decoder.feed(frame[7:]) == [b"0123456789"]


class TestFrameFailures:
    def test_oversized_encode_rejected(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame(b"x" * 11, max_frame=10)

    def test_oversized_decode_rejected_before_buffering(self):
        frame = encode_frame(b"x" * 100)
        decoder = FrameDecoder(max_frame=10)
        # The header alone is enough to refuse; the body never arrives.
        with pytest.raises(FrameTooLargeError):
            decoder.feed(frame[:4])

    def test_torn_frame_mid_body(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"abcdef")[:6])
        with pytest.raises(TornFrameError):
            decoder.finish()

    def test_torn_frame_mid_header(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"abcdef")[:2])
        with pytest.raises(TornFrameError):
            decoder.finish()

    def test_clean_eof_passes(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(b"whole"))
        decoder.finish()

    def test_malformed_json_payload(self):
        with pytest.raises(FrameError):
            decode_json(b"{not json")


class TestJsonFrames:
    def test_round_trip(self):
        obj = {"t": "run", "items": [1, 2, 3], "nested": {"a": None}}
        frames = FrameDecoder().feed(encode_frame(encode_payload(obj)))
        assert [decode_json(f) for f in frames] == [obj]  # plain JSON
        assert [decode_payload(f) for f in frames] == [obj]


class TestWireCodec:
    def test_message_payload_tuples_survive(self):
        message = Message("summary", (3, 0, (1, 2), [4.5, "x"]), words=7)
        decoded = decode_message(encode_message(message))
        assert decoded == message
        assert isinstance(decoded.payload, tuple)
        assert isinstance(decoded.payload[2], tuple)

    def test_message_none_payload(self):
        assert decode_message(encode_message(Message("ping"))) == Message("ping")

    def test_chunk_int_fast_path(self):
        chunk = list(range(1000))
        encoded = encode_chunk(chunk)
        # all-int chunks take the WAL's packed-array representation
        assert isinstance(encoded["items"], (dict, list))
        assert decode_chunk(encoded) == chunk

    def test_chunk_rich_items(self):
        chunk = [(0, 5), (1, 7), "label", 2.5]
        decoded = decode_chunk(encode_chunk(chunk))
        assert decoded == chunk
        assert isinstance(decoded[0], tuple)

    def test_unit_chunk(self):
        chunk = [1] * 64
        assert decode_chunk(encode_chunk(chunk)) == chunk


class TestBinaryPayloads:
    def round_trip(self, obj):
        from repro.net.frames import decode_payload, encode_payload

        return decode_payload(encode_payload(obj))

    def test_plain_control_messages_stay_json(self):
        from repro.net.frames import encode_payload

        obj = {"t": "ack", "n": 3}
        payload = encode_payload(obj)
        assert payload[0:1] == b"{"  # no envelope, zero overhead
        assert self.round_trip(obj) == obj

    def test_long_int_list_packs_and_round_trips(self):
        from repro.net.frames import encode_payload

        values = list(range(100_000, 101_000))
        obj = {"t": "run", "chunk": {"items": values}}
        payload = encode_payload(obj)
        assert payload[0] == 0xF5
        assert self.round_trip(obj) == obj
        # raw i4 beats the ~7 bytes/int JSON rendering
        import json

        assert len(payload) < len(json.dumps(obj).encode()) * 0.7

    def test_float_lists_round_trip_bit_exact(self):
        values = [i * 0.1234567890123 for i in range(64)]
        decoded = self.round_trip({"xs": values})["xs"]
        assert decoded == values
        assert all(type(v) is float for v in decoded)

    def test_short_float_lists_stay_json(self):
        from repro.net.frames import encode_payload

        # "1.0"-style floats render at 4 bytes in JSON vs 8 raw; the
        # size gate must leave them unpacked (ints still win as u1)
        obj = {"b": [1.0] * 500}
        assert encode_payload(obj)[0:1] == b"{"
        assert self.round_trip(obj) == obj

    def test_single_digit_ints_pack_as_u1(self):
        from repro.net.frames import encode_payload

        obj = {"a": [1] * 500}
        assert encode_payload(obj)[0] == 0xF5  # u1 halves "1," JSON
        assert self.round_trip(obj) == obj

    def test_dtype_choice_follows_range(self):
        import numpy

        from repro.net.frames import _classify
        from repro.runtime.batching import as_column

        assert _classify(as_column(list(range(16)))) == "u1"
        assert _classify(as_column([-5] + [300] * 20)) == "i2"
        assert _classify(as_column([1 << 20] * 20)) == "i4"
        assert _classify(as_column([1 << 40] * 20)) == "i8"
        assert _classify(as_column([0.5] * 20)) == "f8"
        assert _classify(numpy.full(20, 1 << 63, numpy.uint64)) is None
        # bigints, mixed int/float and bools keep the list carrier, so
        # they stay JSON
        assert isinstance(as_column([1 << 70] * 20), list)
        assert isinstance(as_column([1, 0.5] + [3] * 20), list)
        assert isinstance(as_column([True] * 20), list)

    def test_reserved_key_collision_is_escaped(self):
        obj = {"__wblob__": [0, "i8"], "__wesc__": {"x": 1},
               "data": list(range(1000, 1100))}
        assert self.round_trip(obj) == obj

    def test_mixed_and_nested_structures(self):
        obj = {
            "runs": [list(range(500, 600)), ["a", "b"], []],
            "summary": {"values": list(range(3000, 3100)),
                        "weights": [2.5] * 100},
            "none": None,
        }
        assert self.round_trip(obj) == obj

    def test_truncated_envelope_raises(self):
        from repro.net.frames import decode_payload, encode_payload

        payload = encode_payload({"xs": list(range(1000, 1100))})
        assert payload[0] == 0xF5
        with pytest.raises(FrameError):
            decode_payload(payload[:-3])
        with pytest.raises(FrameError):
            decode_payload(payload + b"\x00")

    def test_shipped_rank_summary_matches_its_json_rendering(self):
        # What a hub ships for a merged read: a snapshot-coded rank
        # table (int items, float cumulative weights).  The envelope
        # must hand the receiver exactly what an all-JSON frame would.
        import json as _json

        from repro import RandomizedRankScheme, Simulation
        from repro.persistence.codec import decode_value, encode_value

        sim = Simulation(RandomizedRankScheme(0.05), 4, seed=3)
        sim.run_batched(
            [i % 4 for i in range(4000)],
            [(i * 7919) % 100003 for i in range(4000)],
        )
        typed = sim.coordinator.rank_table()
        # the list-origin twin of the typed table a hub now ships
        table = (typed[0].tolist(), typed[1].tolist(), typed[2])
        values, weights = table[0], table[1]
        assert len(values) >= MIN_PACK and type(values[0]) is int
        assert len(weights) >= MIN_PACK and type(weights[0]) is float
        reply = {"t": "ok", "result": encode_value(table)}
        payload = encode_payload(reply)
        assert payload[0] == 0xF5
        decoded = self.round_trip(reply)
        # repr: 1 == 1.0, but an int must not come back a float
        assert repr(decoded) == repr(_json.loads(_json.dumps(reply)))
        assert decode_value(decoded["result"]) == table

    def test_typed_rank_table_ships_as_array_blobs(self):
        # A hub's rank table for numeric values is two typed columns:
        # each rides one array-origin blob and comes back typed, equal
        # value for value, with the closing total a plain float.
        import numpy

        from repro import RandomizedRankScheme, Simulation
        from repro.persistence.codec import decode_value, encode_value

        sim = Simulation(RandomizedRankScheme(0.05), 4, seed=3)
        sim.run_batched(
            [i % 4 for i in range(4000)],
            [(i * 7919) % 100003 for i in range(4000)],
        )
        values, ranks, total = sim.coordinator.rank_table()
        assert values.dtype == numpy.int64 and ranks.dtype == numpy.float64
        reply = {"t": "ok", "result": encode_value((values, ranks, total))}
        payload = encode_payload(reply)
        assert payload.count(b'"a"]') == 2  # two array-origin blobs
        got_values, got_ranks, got_total = decode_value(
            self.round_trip(reply)["result"]
        )
        assert got_values.dtype == numpy.int64
        assert got_values.tolist() == values.tolist()
        assert got_ranks.tobytes() == ranks.tobytes()
        assert type(got_total) is float and got_total == total

    def test_tcp_vs_json_transport_agree_on_rich_chunks(self):
        # tuples inside a coded chunk survive a JSON rendering (what the
        # TCP transport does), matching the loopback's object passing
        import json as _json

        chunk = [(0, 5), (1, 7), "label", 2.5]
        encoded = encode_chunk(chunk)
        over_json = _json.loads(_json.dumps(encoded))
        assert decode_chunk(over_json) == chunk
        assert isinstance(decode_chunk(over_json)[0], tuple)

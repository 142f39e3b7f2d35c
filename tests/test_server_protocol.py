"""Tests for the page-service wire protocol (framing and payloads)."""

from __future__ import annotations

import asyncio

import pytest

from repro.server.protocol import (
    MAX_FRAME,
    ErrorCode,
    Op,
    ProtocolError,
    RetryReason,
    Status,
    decode_head,
    encode_error,
    encode_frame,
    encode_request,
    encode_response,
    encode_retry_after,
    pack_lsn,
    pack_page_ids,
    read_frame,
    unpack_error,
    unpack_lsn,
    unpack_page_id,
    unpack_page_ids,
    unpack_retry_after,
)


def read_all_frames(data: bytes) -> list[bytes]:
    """Feed bytes into a StreamReader, read frames until EOF."""

    async def _run() -> list[bytes]:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        frames = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return frames
            frames.append(frame)

    return asyncio.run(_run())


class TestRoundTrips:
    def test_request_round_trip(self):
        frame = encode_request(Op.FETCH_MANY, 42, pack_page_ids([-7]))
        (body,) = read_all_frames(frame)
        op, request_id, payload = decode_head(body)
        assert op == Op.FETCH_MANY
        assert request_id == 42
        assert unpack_page_ids(payload) == [-7]

    def test_response_round_trip(self):
        frame = encode_response(Status.OK, 9, b"payload")
        (body,) = read_all_frames(frame)
        status, request_id, payload = decode_head(body)
        assert (status, request_id, payload) == (Status.OK, 9, b"payload")

    def test_error_round_trip(self):
        frame = encode_error(3, ErrorCode.NOT_FOUND, "page 12 missing")
        (body,) = read_all_frames(frame)
        status, request_id, payload = decode_head(body)
        assert status == Status.ERROR
        code, message = unpack_error(payload)
        assert code == ErrorCode.NOT_FOUND
        assert message == "page 12 missing"

    def test_retry_after_round_trip(self):
        frame = encode_retry_after(5, RetryReason.QUEUE_FULL, 75, "busy")
        (body,) = read_all_frames(frame)
        status, request_id, payload = decode_head(body)
        assert status == Status.RETRY_AFTER
        reason, hint_ms, message = unpack_retry_after(payload)
        assert (reason, hint_ms, message) == (RetryReason.QUEUE_FULL, 75, "busy")

    def test_lsn_round_trip(self):
        assert unpack_lsn(pack_lsn(1 << 40)) == 1 << 40

    def test_pipelined_frames_stay_separate(self):
        data = encode_request(Op.FETCH_MANY, 1, pack_page_ids([1])) + encode_request(
            Op.COMMIT, 2
        )
        frames = read_all_frames(data)
        assert len(frames) == 2
        assert decode_head(frames[0])[1] == 1
        assert decode_head(frames[1])[1] == 2


class TestMalformedStreams:
    def test_clean_eof_between_frames_is_none(self):
        assert read_all_frames(b"") == []

    def test_eof_mid_length_prefix(self):
        with pytest.raises(ProtocolError, match="mid-length"):
            read_all_frames(b"\x05\x00")

    def test_eof_mid_body(self):
        frame = encode_request(Op.FETCH_MANY, 1, pack_page_ids([1]))
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_all_frames(frame[:-3])

    def test_oversized_declared_length(self):
        import struct

        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            read_all_frames(struct.pack("<I", MAX_FRAME + 1))

    def test_oversized_body_rejected_at_encode_time(self):
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            encode_frame(b"\x00" * (MAX_FRAME + 1))

    def test_truncated_head_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_head(b"\x01")

    def test_short_payloads_raise_value_errors(self):
        with pytest.raises(ValueError):
            unpack_page_id(b"\x00")
        with pytest.raises(ValueError):
            unpack_lsn(b"")
        with pytest.raises(ValueError):
            unpack_error(b"")
        with pytest.raises(ValueError):
            unpack_retry_after(b"\x01")


class TestBatchPayloads:
    """FETCH_MANY / UPDATE_MANY payload round trips and malformations."""

    def test_page_ids_round_trip(self):
        from repro.server.protocol import pack_page_ids, unpack_page_ids

        ids = [0, 1, 7, 2**40, -5, 1 << 62]
        assert unpack_page_ids(pack_page_ids(ids)) == ids

    def test_page_ids_batch_bounds(self):
        from repro.server.protocol import MAX_BATCH, pack_page_ids

        with pytest.raises(ValueError, match="1\\.\\."):
            pack_page_ids([])
        with pytest.raises(ValueError, match="1\\.\\."):
            pack_page_ids(list(range(MAX_BATCH + 1)))

    def test_page_ids_count_out_of_range(self):
        import struct

        from repro.server.protocol import MAX_BATCH, unpack_page_ids

        with pytest.raises(ValueError, match="outside"):
            unpack_page_ids(struct.pack("<H", 0))
        with pytest.raises(ValueError, match="outside"):
            unpack_page_ids(struct.pack("<H", MAX_BATCH + 1))

    def test_page_ids_length_mismatch(self):
        import struct

        from repro.server.protocol import pack_page_ids, unpack_page_ids

        with pytest.raises(ValueError, match="missing the count"):
            unpack_page_ids(b"\x07")
        with pytest.raises(ValueError, match="needs"):
            unpack_page_ids(struct.pack("<H", 3) + b"\x00" * 8)
        with pytest.raises(ValueError, match="needs"):
            unpack_page_ids(pack_page_ids([1, 2]) + b"\x00")

    def test_update_batch_round_trip(self):
        from repro.server.protocol import pack_update_batch, unpack_update_batch

        items = [(9, b"abc"), (-1, b""), (2**40, b"\x00" * 128)]
        decoded = unpack_update_batch(pack_update_batch(items))
        assert [(pid, bytes(blob)) for pid, blob in decoded] == items
        # Zero-copy contract: the blobs are views, not copies.
        assert all(isinstance(blob, memoryview) for _, blob in decoded)

    def test_update_batch_truncations(self):
        import struct

        from repro.server.protocol import pack_update_batch, unpack_update_batch

        whole = pack_update_batch([(1, b"abcd"), (2, b"efgh")])
        with pytest.raises(ValueError):
            unpack_update_batch(whole[:-1])  # truncated final blob
        with pytest.raises(ValueError, match="trailing"):
            unpack_update_batch(whole + b"\x00")
        with pytest.raises(ValueError, match="truncated"):
            unpack_update_batch(struct.pack("<H", 2) + struct.pack("<qI", 1, 0))

    def test_response_parts_equal_monolithic_encoding(self):
        from repro.server.protocol import encode_response_parts

        parts = [b"aaaa", memoryview(b"bbbbbb"), b""]
        flat = b"".join(bytes(part) for part in encode_response_parts(7, 42, parts))
        assert flat == encode_response(7, 42, b"aaaabbbbbb")

    def test_response_parts_respect_max_frame(self):
        from repro.server.protocol import encode_response_parts

        big = bytes(MAX_FRAME // 2 + 1)
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            encode_response_parts(0, 1, [big, big])


class TestBatchDecoderFuzz:
    """Random bytes must decode cleanly or raise ValueError — nothing else."""

    def _fuzz(self, decoder, seed: int):
        import random

        rng = random.Random(seed)
        for _ in range(500):
            blob = rng.randbytes(rng.randrange(0, 64))
            try:
                decoder(blob)
            except ValueError:
                pass  # the documented rejection path

    def test_unpack_page_ids_survives_fuzz(self):
        from repro.server.protocol import unpack_page_ids

        self._fuzz(unpack_page_ids, seed=1)

    def test_unpack_update_batch_survives_fuzz(self):
        from repro.server.protocol import unpack_update_batch

        self._fuzz(unpack_update_batch, seed=2)

    def test_mutated_valid_batches_survive_fuzz(self):
        import random

        from repro.server.protocol import (
            pack_page_ids,
            pack_update_batch,
            unpack_page_ids,
            unpack_update_batch,
        )

        rng = random.Random(3)
        fetch = bytearray(pack_page_ids([5, 6, 7, 8]))
        update = bytearray(pack_update_batch([(1, b"xy"), (2, b"z" * 30)]))
        for payload, decoder in ((fetch, unpack_page_ids),
                                 (update, unpack_update_batch)):
            for _ in range(300):
                mutated = bytearray(payload)
                for _ in range(rng.randrange(1, 4)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                if rng.random() < 0.5:
                    del mutated[rng.randrange(len(mutated) + 1) :]
                try:
                    decoder(bytes(mutated))
                except ValueError:
                    pass

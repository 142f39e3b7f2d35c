"""The page-service wire protocol: length-prefixed binary frames.

Every message — request or response — travels as one frame::

    frame    := length:u32 | body
    request  := op:u8     | request_id:u32 | payload
    response := status:u8 | request_id:u32 | payload

``request_id`` is chosen by the client and echoed verbatim, which is what
makes per-connection *pipelining* work: a client may have many requests
outstanding and match responses by id, and the server may complete them
out of order.  All integers are little-endian; page ids are signed 64-bit.

Operations and their payloads:

===========  =====================================  ===========================
op           request payload                        OK payload
===========  =====================================  ===========================
PIN          page_id:i64                            (empty)
UNPIN        page_id:i64                            (empty)
COMMIT       (empty)                                lsn:i64
STATS        (empty)                                UTF-8 JSON object
FETCH_MANY   count:u16 | page_id:i64 x count        count fixed-size page blobs
UPDATE_MANY  count:u16 | item x count               (empty)
OWNERSHIP    (empty)                                UTF-8 JSON cluster map
===========  =====================================  ===========================

``OWNERSHIP`` is the *cluster-plane* opcode of :mod:`repro.cluster`: it
returns the node's current :class:`~repro.cluster.ring.ClusterMap` as
JSON.  A single-node :class:`~repro.server.PageServer` answers it with
``ERROR/UNKNOWN_OP``: it is well-formed but unsupported there, exactly
like a genuinely unknown opcode.

A page is read and installed only in batches: ``FETCH_MANY`` and
``UPDATE_MANY`` carry one to :data:`MAX_BATCH` pages, so one frame, one
syscall and one admission decision serve the whole batch, and a single
page is a batch of one.  Bytes 1 and 2, which once named single-page
FETCH and UPDATE, are unknown opcodes now.  A ``FETCH_MANY`` OK payload
is the requested pages' encodings concatenated *in request order*; every
blob is exactly ``page_size`` bytes (the fixed-size slot encoding of
:func:`repro.storage.serialization.encode_page`), so the client splits it
by offset arithmetic alone.  An ``UPDATE_MANY`` item is
``page_id:i64 | blob_len:u32 | blob``.  Batches are all-or-error: any
failing page fails the whole batch with ``ERROR`` and no partial result.
A malformed batch payload (bad count, truncated items, trailing garbage)
is a *request* error — ``ERROR/MALFORMED``, the connection survives.

Non-OK statuses:

* ``ERROR`` — payload ``code:u8 | utf-8 message``.  The request failed;
  the connection stays usable (codes: :class:`ErrorCode`).
* ``RETRY_AFTER`` — payload ``reason:u8 | hint_ms:u32 | utf-8 message``.
  The *backpressure* response: the server refused to queue the request
  (admission limits, quota, pinned-full buffer, shutdown) and the client
  should retry after roughly ``hint_ms`` milliseconds.

Frames above :data:`MAX_FRAME` bytes, truncated frames, and bodies
shorter than a header are *protocol* errors — the stream can no longer
be trusted and the connection is closed.  An unknown opcode in a
well-formed frame is merely a request error (``ERROR/UNKNOWN_OP``).
"""

from __future__ import annotations

import asyncio
import struct
from enum import IntEnum

#: Upper bound on one frame's body, malformed-stream guard (16 MiB).
MAX_FRAME = 16 * 1024 * 1024

#: Upper bound on the pages of one batched request (fits the u16 count).
MAX_BATCH = 1024

_LENGTH = struct.Struct("<I")
_HEAD = struct.Struct("<BI")  # op/status, request_id
_PAGE_ID = struct.Struct("<q")
_LSN = struct.Struct("<q")
_ERROR = struct.Struct("<B")
_RETRY = struct.Struct("<BI")  # reason, hint_ms
_COUNT = struct.Struct("<H")  # batch size
_ITEM_HEAD = struct.Struct("<qI")  # page_id, blob length


class Op(IntEnum):
    """Request opcodes."""

    PIN = 3
    UNPIN = 4
    COMMIT = 5
    STATS = 6
    FETCH_MANY = 7
    UPDATE_MANY = 8
    # Cluster-plane opcode (repro.cluster); a single-node PageServer
    # answers it with ERROR/UNKNOWN_OP.
    OWNERSHIP = 9


#: Opcodes only a cluster-aware server implements.
CLUSTER_OPS = frozenset({Op.OWNERSHIP})


class Status(IntEnum):
    """Response statuses."""

    OK = 0
    ERROR = 1
    RETRY_AFTER = 2


class ErrorCode(IntEnum):
    """Why a request failed (``Status.ERROR`` payload)."""

    MALFORMED = 1
    UNKNOWN_OP = 2
    NOT_FOUND = 3
    TIMEOUT = 4
    NOT_PINNED = 5
    INTERNAL = 6


class RetryReason(IntEnum):
    """Why a request was refused (``Status.RETRY_AFTER`` payload)."""

    QUEUE_FULL = 1
    CLIENT_QUOTA = 2
    BUFFER_FULL = 3
    SHUTTING_DOWN = 4


class ProtocolError(Exception):
    """The byte stream violated the framing contract; close the connection."""


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode_frame(body: bytes) -> bytes:
    """Wrap a message body in its length prefix."""
    if len(body) > MAX_FRAME:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds MAX_FRAME")
    return _LENGTH.pack(len(body)) + body


def encode_request(op: int, request_id: int, payload: bytes = b"") -> bytes:
    return encode_frame(_HEAD.pack(op, request_id) + payload)


def encode_response(status: int, request_id: int, payload: bytes = b"") -> bytes:
    return encode_frame(_HEAD.pack(status, request_id) + payload)


def encode_error(request_id: int, code: int, message: str) -> bytes:
    payload = _ERROR.pack(code) + message.encode("utf-8")
    return encode_response(Status.ERROR, request_id, payload)


def encode_retry_after(
    request_id: int, reason: int, hint_ms: int, message: str = ""
) -> bytes:
    payload = _RETRY.pack(reason, max(0, hint_ms)) + message.encode("utf-8")
    return encode_response(Status.RETRY_AFTER, request_id, payload)


def pack_page_id(page_id: int) -> bytes:
    return _PAGE_ID.pack(page_id)


def pack_lsn(lsn: int) -> bytes:
    return _LSN.pack(lsn)


def encode_response_parts(
    status: int, request_id: int, parts: list
) -> list:
    """Build a response as a *buffer list* for ``writer.writelines``.

    The zero-copy sibling of :func:`encode_response`: the payload pieces
    (``bytes`` or ``memoryview``) are never concatenated — the length
    prefix and header travel as one small buffer followed by the pieces
    verbatim, so a batched page response costs no payload copy at all.
    """
    total = _HEAD.size + sum(len(part) for part in parts)
    if total > MAX_FRAME:
        raise ProtocolError(f"frame body of {total} bytes exceeds MAX_FRAME")
    head = _LENGTH.pack(total) + _HEAD.pack(status, request_id)
    return [head, *parts]


def pack_page_ids(page_ids: list) -> bytes:
    """FETCH_MANY request payload: ``count:u16 | page_id:i64 x count``."""
    count = len(page_ids)
    if not 0 < count <= MAX_BATCH:
        raise ValueError(f"batch must hold 1..{MAX_BATCH} pages, got {count}")
    return _COUNT.pack(count) + struct.pack(f"<{count}q", *page_ids)


def unpack_page_ids(payload: bytes) -> list[int]:
    """Decode a FETCH_MANY payload; raises ``ValueError`` when malformed."""
    if len(payload) < _COUNT.size:
        raise ValueError("batch payload is missing the count")
    (count,) = _COUNT.unpack_from(payload, 0)
    if not 0 < count <= MAX_BATCH:
        raise ValueError(f"batch count {count} outside 1..{MAX_BATCH}")
    expected = _COUNT.size + count * _PAGE_ID.size
    if len(payload) != expected:
        raise ValueError(
            f"batch of {count} ids needs {expected} bytes, got {len(payload)}"
        )
    return list(struct.unpack_from(f"<{count}q", payload, _COUNT.size))


def pack_update_batch(items: list) -> bytes:
    """UPDATE_MANY request payload from ``(page_id, blob)`` pairs."""
    count = len(items)
    if not 0 < count <= MAX_BATCH:
        raise ValueError(f"batch must hold 1..{MAX_BATCH} pages, got {count}")
    pieces = [_COUNT.pack(count)]
    for page_id, blob in items:
        pieces.append(_ITEM_HEAD.pack(page_id, len(blob)))
        pieces.append(blob)
    return b"".join(pieces)


def unpack_update_batch(payload: bytes) -> list[tuple[int, memoryview]]:
    """Decode an UPDATE_MANY payload into ``(page_id, blob)`` pairs.

    The blobs are ``memoryview`` slices over the received frame — no
    copies; raises ``ValueError`` on any malformation (bad count,
    truncated item, trailing garbage).
    """
    if len(payload) < _COUNT.size:
        raise ValueError("batch payload is missing the count")
    (count,) = _COUNT.unpack_from(payload, 0)
    if not 0 < count <= MAX_BATCH:
        raise ValueError(f"batch count {count} outside 1..{MAX_BATCH}")
    view = memoryview(payload)
    offset = _COUNT.size
    items: list[tuple[int, memoryview]] = []
    for _ in range(count):
        if len(payload) - offset < _ITEM_HEAD.size:
            raise ValueError("batch item header is truncated")
        page_id, blob_len = _ITEM_HEAD.unpack_from(payload, offset)
        offset += _ITEM_HEAD.size
        if len(payload) - offset < blob_len:
            raise ValueError("batch item blob is truncated")
        items.append((page_id, view[offset : offset + blob_len]))
        offset += blob_len
    if offset != len(payload):
        raise ValueError(
            f"batch has {len(payload) - offset} bytes of trailing garbage"
        )
    return items


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def decode_head(body: bytes) -> tuple[int, int, bytes]:
    """Split a message body into (op-or-status, request id, payload)."""
    if len(body) < _HEAD.size:
        raise ProtocolError(f"message body of {len(body)} bytes is truncated")
    first, request_id = _HEAD.unpack_from(body, 0)
    return first, request_id, body[_HEAD.size :]


def unpack_page_id(payload: bytes) -> int:
    if len(payload) < _PAGE_ID.size:
        raise ValueError("payload is missing the page id")
    (page_id,) = _PAGE_ID.unpack_from(payload, 0)
    return page_id


def unpack_lsn(payload: bytes) -> int:
    if len(payload) < _LSN.size:
        raise ValueError("payload is missing the LSN")
    (lsn,) = _LSN.unpack_from(payload, 0)
    return lsn


def unpack_error(payload: bytes) -> tuple[int, str]:
    if len(payload) < _ERROR.size:
        raise ValueError("error payload is missing the code")
    (code,) = _ERROR.unpack_from(payload, 0)
    return code, payload[_ERROR.size :].decode("utf-8", "replace")


def unpack_retry_after(payload: bytes) -> tuple[int, int, str]:
    if len(payload) < _RETRY.size:
        raise ValueError("retry payload is missing reason/hint")
    reason, hint_ms = _RETRY.unpack_from(payload, 0)
    return reason, hint_ms, payload[_RETRY.size :].decode("utf-8", "replace")


# ----------------------------------------------------------------------
# Stream I/O
# ----------------------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame body; ``None`` on clean EOF between frames.

    EOF *inside* a frame (mid-length or mid-body) and oversized lengths
    raise :class:`ProtocolError` — the peer vanished mid-message or is
    not speaking this protocol.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-length-prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME:
        raise ProtocolError(
            f"declared frame length {length} exceeds MAX_FRAME ({MAX_FRAME})"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc

"""``repro.client`` — async and sync clients for the page service.

:class:`AsyncPageClient` speaks the framed protocol of
:mod:`repro.server.protocol` with full *pipelining*: each request gets a
fresh request id and a future, a single reader task matches responses by
id, and any number of requests may be outstanding at once.  A page
request is a batch: ``fetch_many`` is one ``FETCH_MANY`` round trip for
the whole list, and ``fetch``/``update`` are batches of one::

    client = await AsyncPageClient.connect("127.0.0.1", port)
    pages = await client.fetch_many(list(range(32)))
    await client.update_many(pages)
    await client.close()

:class:`PageClient` is the synchronous wrapper: it runs an event loop on
a private daemon thread and exposes the same operations as plain calls —
the shape the benchmarks and most tests want.  The cluster's
:class:`~repro.cluster.client.ClusterClient` is built on the same
loop-thread base (:class:`_LoopThreadClient`).

Failures map to three exceptions:

* :class:`ServerError` — the server answered ``ERROR`` (``.code`` is an
  :class:`~repro.server.protocol.ErrorCode`); the connection stays usable.
* :class:`RetryAfter` — the server refused the request under load
  (``.reason``, ``.hint_ms``); back off and retry.
* :class:`ConnectionLost` — the transport died; *every* outstanding
  request fails with it, whether the loss surfaced on the read side (EOF,
  garbage or a reply it cannot parse) or the write side (a send failed
  mid-pipeline), and the client refuses further use.  The sync
  :class:`PageClient` additionally *reconnects* through a
  :class:`~repro.storage.retry.RetryPolicy` and replays the failed call —
  every operation is an idempotent full-page read or install, so a replay
  is always safe — surfacing :class:`ConnectionLost` only once the policy
  is exhausted.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from typing import TYPE_CHECKING

from repro.storage.retry import RetryPolicy

from repro.server.protocol import (
    MAX_BATCH,
    ErrorCode,
    Op,
    ProtocolError,
    RetryReason,
    Status,
    encode_request,
    decode_head,
    pack_page_id,
    pack_page_ids,
    pack_update_batch,
    read_frame,
    unpack_error,
    unpack_lsn,
    unpack_retry_after,
)
from repro.storage.serialization import VerifiedPages, encode_page

if TYPE_CHECKING:
    from repro.storage.page import Page, PageId


class ServerError(Exception):
    """The server answered ``ERROR``; the connection stays usable."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        try:
            self.code = ErrorCode(code)
        except ValueError:
            self.code = code  # type: ignore[assignment]


class RetryAfter(Exception):
    """Backpressure: the server refused the request; retry after ``hint_ms``."""

    def __init__(self, reason: int, hint_ms: int, message: str) -> None:
        super().__init__(message or f"retry after {hint_ms}ms")
        try:
            self.reason = RetryReason(reason)
        except ValueError:
            self.reason = reason  # type: ignore[assignment]
        self.hint_ms = hint_ms


class ConnectionLost(Exception):
    """The transport died with requests outstanding."""


class AsyncPageClient:
    """Pipelined asyncio client for :class:`~repro.server.PageServer`."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        page_size: int = 4096,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.page_size = page_size
        self._request_ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        # Set to the ConnectionLost that killed the transport; a dead
        # client fails every later request immediately instead of writing
        # into a broken pipe.
        self._dead: ConnectionLost | None = None
        # A page re-fetched with unchanged bytes is not verified again.
        self._verified = VerifiedPages()
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str, port: int, *, page_size: int = 4096
    ) -> "AsyncPageClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, page_size=page_size)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    async def _read_loop(self) -> None:
        error: BaseException
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    error = ConnectionLost("server closed the connection")
                    break
                status, request_id, payload = decode_head(frame)
                # Taken once parsed: a malformed ERROR or RETRY_AFTER payload
                # (ValueError) fails every pending request, this one too.
                future = self._pending.get(request_id)
                if future is None or future.done():
                    self._pending.pop(request_id, None)
                    continue  # response to a request we gave up on
                if status == Status.OK:
                    future.set_result(payload)
                elif status == Status.ERROR:
                    future.set_exception(ServerError(*unpack_error(payload)))
                elif status == Status.RETRY_AFTER:
                    future.set_exception(RetryAfter(*unpack_retry_after(payload)))
                else:
                    future.set_exception(
                        ProtocolError(f"unknown response status {status}")
                    )
                del self._pending[request_id]
        except asyncio.CancelledError:
            error = ConnectionLost("client is closing")
        except (ProtocolError, ValueError, ConnectionError, OSError) as exc:
            error = ConnectionLost(f"connection lost: {exc}")
        self._fail_pending(error)

    def _fail_pending(self, error: BaseException) -> None:
        """The transport is gone: reject *all* in-flight futures.

        Pipelining means many requests share one stream — once it dies,
        no outstanding response can ever arrive, so every pending future
        gets the same typed :class:`ConnectionLost` and the client is
        latched dead.
        """
        if isinstance(error, ConnectionLost) and self._dead is None:
            self._dead = error
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _request(self, op: Op, payload: bytes = b"") -> bytes:
        if self._closed:
            raise ConnectionLost("client is closed")
        if self._dead is not None:
            raise ConnectionLost(str(self._dead))
        request_id = next(self._request_ids)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            self._writer.write(encode_request(op, request_id, payload))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            # A failed send means the stream is broken for everyone
            # pipelined behind it, not just this request.
            self._fail_pending(ConnectionLost(f"connection lost: {exc}"))
            raise ConnectionLost(f"connection lost: {exc}") from exc
        return await future

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    async def fetch(self, page_id: "PageId") -> "Page":
        """Fetch one page: a batch of one (see :meth:`fetch_many`)."""
        return (await self.fetch_many([page_id]))[0]

    async def update(self, page: "Page") -> None:
        """Install one page: a batch of one (see :meth:`update_many`)."""
        await self.update_many([page])

    async def fetch_many(self, page_ids: "list[PageId]") -> "list[Page]":
        """Fetch a batch of pages in one round trip, in request order.

        Each page comes back *packed* (verified once per connection and
        page version), its entries inside the reply (``page.image()``)
        until read.  The reply is one ``page_size`` slot per page, so it is
        split by offset alone; the reply to a batch of one is that page's
        slot whatever its length, which ``read_page`` verifies.  Batches
        larger than ``MAX_BATCH`` are split transparently.
        """
        if not page_ids:
            return []
        if len(page_ids) > MAX_BATCH:
            pages: list[Page] = []
            for start in range(0, len(page_ids), MAX_BATCH):
                pages.extend(
                    await self.fetch_many(page_ids[start : start + MAX_BATCH])
                )
            return pages
        blob = await self._request(Op.FETCH_MANY, pack_page_ids(page_ids))
        size = self.page_size if len(page_ids) > 1 else len(blob)
        if len(blob) != size * len(page_ids):
            raise ProtocolError(
                f"FETCH_MANY of {len(page_ids)} pages returned "
                f"{len(blob)} bytes, expected {size * len(page_ids)}"
            )
        # bytes slices: each page's image owns its slot, not the reply.
        return [
            self._verified.read(blob[index * size : (index + 1) * size], pid)
            for index, pid in enumerate(page_ids)
        ]

    async def update_many(self, pages: "list[Page]") -> None:
        """Install a batch of pages in one round trip (all-or-error)."""
        if not pages:
            return
        if len(pages) > MAX_BATCH:
            for start in range(0, len(pages), MAX_BATCH):
                await self.update_many(pages[start : start + MAX_BATCH])
            return
        size = self.page_size
        payload = pack_update_batch(
            [(page.page_id, encode_page(page, size)) for page in pages]
        )
        await self._request(Op.UPDATE_MANY, payload)

    async def pin(self, page_id: "PageId") -> None:
        await self._request(Op.PIN, pack_page_id(page_id))

    async def unpin(self, page_id: "PageId") -> None:
        await self._request(Op.UNPIN, pack_page_id(page_id))

    async def commit(self) -> int:
        return unpack_lsn(await self._request(Op.COMMIT))

    async def stats(self) -> dict:
        return json.loads((await self._request(Op.STATS)).decode("utf-8"))


class _LoopThreadClient:
    """A synchronous face on an async client whose event loop runs on a
    private daemon thread named :attr:`THREAD_NAME`.

    ``connect`` makes the coroutine that builds the async client; every
    call runs on the loop and waits at most ``timeout`` seconds.
    """

    THREAD_NAME: str

    def __init__(self, connect, timeout: float) -> None:
        self.timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=self.THREAD_NAME, daemon=True
        )
        self._thread.start()
        try:
            self._client = self._call(connect())
        except BaseException:
            self._shutdown_loop()
            raise

    def _call(self, coroutine):
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        return future.result(self.timeout)

    def _shutdown_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(5.0)
        self._loop.close()

    def _op(self, factory):
        """Run ``factory(client)`` on the loop and return its result."""
        return self._call(factory(self._client))

    def fetch(self, page_id: "PageId") -> "Page":
        return self._op(lambda client: client.fetch(page_id))

    def update(self, page: "Page") -> None:
        self._op(lambda client: client.update(page))

    def fetch_many(self, page_ids: "list[PageId]") -> "list[Page]":
        return self._op(lambda client: client.fetch_many(page_ids))

    def update_many(self, pages: "list[Page]") -> None:
        self._op(lambda client: client.update_many(pages))

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self._client.close())
        finally:
            self._shutdown_loop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PageClient(_LoopThreadClient):
    """Synchronous page-service client (event loop on a daemon thread).

    A lost connection is handled, not surfaced: the failed operation
    raises :class:`ConnectionLost` inside, the client reconnects with the
    backoff schedule of ``retry`` (a
    :class:`~repro.storage.retry.RetryPolicy`; the storage layer's
    default when omitted) and replays the call.  Replays are safe because
    every operation is an idempotent full-page read or install.  Only
    when the policy's attempts are exhausted does the caller see the
    :class:`ConnectionLost` — never a raw socket error.
    """

    THREAD_NAME = "page-client-loop"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        page_size: int = 4096,
        timeout: float = 30.0,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self._host = host
        self._port = port
        self._page_size = page_size
        self._retry = retry if retry is not None else RetryPolicy()
        super().__init__(self._connect, timeout)

    def _connect(self):
        return AsyncPageClient.connect(
            self._host, self._port, page_size=self._page_size
        )

    def _reconnect(self) -> None:
        # The old client stays in place until the new connection exists,
        # so a failed reconnect leaves a dead-latched client (every call
        # raises ConnectionLost) rather than a half-built one.
        old = self._client
        try:
            self._call(old.close())
        except Exception:  # noqa: BLE001 - the transport is already gone
            pass
        self._client = self._call(self._connect())

    def _op(self, factory):
        """Run ``factory(client)``; on ConnectionLost reconnect and replay."""
        try:
            return self._call(factory(self._client))
        except ConnectionLost as exc:
            failure = exc
        for attempt in range(1, self._retry.attempts):
            time.sleep(self._retry.delay(attempt))
            try:
                self._reconnect()
                return self._call(factory(self._client))
            except (ConnectionLost, ConnectionError, OSError) as exc:
                failure = (
                    exc
                    if isinstance(exc, ConnectionLost)
                    else ConnectionLost(f"reconnect failed: {exc}")
                )
        raise failure

    # ------------------------------------------------------------------

    def pin(self, page_id: "PageId") -> None:
        self._op(lambda client: client.pin(page_id))

    def unpin(self, page_id: "PageId") -> None:
        self._op(lambda client: client.unpin(page_id))

    def commit(self) -> int:
        return self._op(lambda client: client.commit())

    def stats(self) -> dict:
        return self._op(lambda client: client.stats())

"""The asyncio page server: a network front-end for a buffer system.

:class:`PageServer` listens on a TCP socket, speaks the framed binary
protocol of :mod:`repro.server.protocol`, and serves FETCH_MANY /
UPDATE_MANY / PIN / UNPIN / COMMIT / STATS against any
:class:`~repro.api.BufferSystem`.

Execution model
===============

The event loop owns connections, framing and admission.  Where an
admitted request's buffer work runs depends on the media it can touch
(:func:`_may_block`, read per request): the buffer's read disk, the
system's write-back disk and, with durability attached, the WAL's byte
store.  Each says whether an access may block (``may_block``):

* all in memory (``SimulatedDisk``, ``DurableDisk`` and WAL over
  ``MemoryByteStore`` — what ``repro serve`` builds): nothing can block,
  so the request runs on the event loop itself; a hop to a worker thread
  would only cost CPU in a process the GIL already serialises;
* anything else (``FileByteStore``, a ``DurableDisk`` over one,
  ``DelayedDisk``, an armed transient failure whose retry sleeps, or a
  medium without the attribute): the request runs on a small thread pool via
  ``run_in_executor``, so a slow medium never stalls the loop.  Over a
  sequential ``BufferManager`` pooled requests take one lock and run one
  at a time; a ``ConcurrentBufferManager`` runs them side by side.

Per-connection **pipelining** falls out of the design: the reader loop
spawns one task per frame and never waits for the previous request,
responses are written in completion order and matched by request id.

Overload never queues unboundedly: the :class:`AdmissionController`
bounds both in-flight and queued requests, rejects the rest with
``RETRY_AFTER``, enforces per-client quotas, and times out stale
waiters.  ``request_timeout`` additionally bounds the *execution* of
pooled work: a request that exceeds it is answered with
``ERROR/TIMEOUT``, and its admission slot is returned only when the
blocking work actually finishes (a stuck disk keeps its slot occupied —
which is exactly the backpressure a healthy server wants).  It cannot
fire for a request run on the loop, which cannot stall.

Shutdown is a graceful drain: stop accepting, bounce new requests with
``RETRY_AFTER/SHUTTING_DOWN``, wait for the in-flight tail, then flush
every dirty frame through the WAL path (``BufferSystem.close`` →
checkpoint + log sync) so the durable medium equals a committed-prefix
replay.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING

from repro.buffer.manager import BufferFullError
from repro.server.admission import (
    AdmissionController,
    AdmissionRejected,
    AdmissionTimeout,
)
from repro.server.protocol import (
    CLUSTER_OPS,
    ErrorCode,
    Op,
    ProtocolError,
    RetryReason,
    Status,
    decode_head,
    encode_error,
    encode_response,
    encode_response_parts,
    encode_retry_after,
    pack_lsn,
    read_frame,
    unpack_page_id,
    unpack_page_ids,
    unpack_update_batch,
)
from repro.storage.serialization import encode_page, read_page

if TYPE_CHECKING:
    from repro.api import BufferSystem


def _may_block(system: "BufferSystem") -> bool:
    """Whether one request on ``system`` may block the thread it runs on.

    A request reads through the buffer's disk, writes dirty pages back
    through the system's disk (``flush_to`` on the WAL first) and, on
    ``COMMIT``, may fsync the WAL's store.  A medium without ``may_block``
    counts as blocking.  Read per request: callers swap
    ``system.buffer.disk`` after the build.
    """
    if getattr(system.buffer.disk, "may_block", True):
        return True
    if getattr(system.disk, "may_block", True):
        return True
    durability = system.durability
    return durability is not None and getattr(durability.wal.store, "may_block", True)


class _Connection:
    """Per-connection state: writer, write lock, client id."""

    __slots__ = ("client_id", "reader", "writer", "write_lock", "tasks")

    def __init__(
        self,
        client_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.client_id = client_id
        self.reader = reader
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()


class PageServer:
    """Serve a :class:`~repro.api.BufferSystem` over TCP.

    An admitted request runs on the event loop when none of its media may
    block, and on a pool of ``workers`` threads otherwise (see the module
    docstring).  ``request_timeout`` bounds queueing and pooled execution;
    it cannot fire for a request run on the loop, which cannot stall.
    """

    #: Opcodes this server implements.  The cluster-plane opcode decodes
    #: as a valid :class:`Op` member but a single-node server must answer
    #: it ``ERROR/UNKNOWN_OP`` exactly like a genuinely unknown byte —
    #: without this set it would fall through ``_run_operation`` and be
    #: misreported as ``MALFORMED``.  ``ClusterPageServer`` widens it.
    SUPPORTED_OPS: frozenset = frozenset(Op) - CLUSTER_OPS

    #: Opcodes served directly on the event loop (no admission, no worker
    #: pool).  Empty here; the cluster server answers ``OWNERSHIP``
    #: through this, so a map refresh never waits behind a full
    #: admission queue.
    LOOP_OPS: frozenset = frozenset()

    def __init__(
        self,
        system: "BufferSystem",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 16,
        max_queued: int = 64,
        per_client_limit: int | None = None,
        request_timeout: float | None = None,
        retry_hint_ms: int = 50,
        workers: int | None = None,
        page_size: int = 4096,
    ) -> None:
        self.system = system
        self.host = host
        self.port = port
        self.page_size = getattr(system.disk, "page_size", page_size)
        self.request_timeout = request_timeout
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            max_queued=max_queued,
            per_client_limit=per_client_limit,
            queue_timeout=request_timeout,
            retry_hint_ms=retry_hint_ms,
            observer=system.observer,
        )
        if workers is None:
            shard_count = getattr(system.buffer, "shard_count", 1)
            workers = max(4, min(32, 2 * shard_count))
        self._workers = workers
        #: Held around pooled work on a sequential ``BufferManager``,
        #: which two threads must never enter at once.
        self._sequential = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._client_ids = itertools.count(1)
        self._draining = False
        # Service counters (reported by STATS).
        self.requests = 0
        self.responses_ok = 0
        self.responses_error = 0
        self.responses_retry = 0
        self.op_counts: dict[str, int] = {op.name: 0 for op in Op}
        self.protocol_errors = 0
        self.connections_total = 0
        #: Pages requested through FETCH_MANY/UPDATE_MANY, every page
        #: request (declared batch sizes; one batch = one entry in
        #: ``requests``/``op_counts``).
        self.batch_pages = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="page-server"
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Graceful drain: finish in-flight work, flush via the WAL, close.

        1. stop accepting; new requests on live connections get
           ``RETRY_AFTER/SHUTTING_DOWN`` and queued waiters are bounced;
        2. wait up to ``drain_timeout`` for the in-flight tail;
        3. flush every dirty frame through the WAL path
           (:meth:`BufferSystem.close`: checkpoint + log sync);
        4. close the connections and the worker pool.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.admission.reject_all_queued(RetryReason.SHUTTING_DOWN)
        pending = [
            task
            for connection in self._connections
            for task in connection.tasks
            if not task.done()
        ]
        if pending:
            done, still_running = await asyncio.wait(
                pending, timeout=drain_timeout
            )
            for task in still_running:
                task.cancel()
            if still_running:
                await asyncio.gather(*still_running, return_exceptions=True)
        loop = asyncio.get_running_loop()
        if self._pool is not None:
            await loop.run_in_executor(self._pool, self._pooled, self.system.close)
        else:
            self.system.close()
        for connection in list(self._connections):
            self._close_connection(connection)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._server = None

    def _close_connection(self, connection: _Connection) -> None:
        self._connections.discard(connection)
        if not connection.writer.is_closing():
            connection.writer.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(next(self._client_ids), reader, writer)
        self._connections.add(connection)
        self.connections_total += 1
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                try:
                    op, request_id, payload = decode_head(frame)
                except ProtocolError:
                    # The body cannot carry a request id to answer to; the
                    # stream is unframed garbage — close the connection.
                    self.protocol_errors += 1
                    break
                task = asyncio.ensure_future(
                    self._handle(connection, op, request_id, payload)
                )
                connection.tasks.add(task)
                task.add_done_callback(connection.tasks.discard)
        except ProtocolError:
            self.protocol_errors += 1
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client vanished mid-request; in-flight tasks still drain
        finally:
            self._close_connection(connection)

    async def _respond(self, connection: _Connection, frame) -> None:
        """Write one response frame; a vanished client is not an error.

        ``frame`` is either one ``bytes`` blob or a *buffer list* from
        :func:`~repro.server.protocol.encode_response_parts` — the latter
        goes out through ``writelines`` so batched page payloads are
        handed to the transport without ever being concatenated.
        """
        try:
            async with connection.write_lock:
                if type(frame) is list:
                    connection.writer.writelines(frame)
                else:
                    connection.writer.write(frame)
                await connection.writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # Client disconnected mid-request: the buffer work already
            # happened and was accounted; dropping the response is the
            # only correct option left.
            self._close_connection(connection)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _handle(
        self,
        connection: _Connection,
        op: int,
        request_id: int,
        payload: bytes,
    ) -> None:
        self.requests += 1
        if self._draining:
            self.responses_retry += 1
            await self._respond(
                connection,
                encode_retry_after(
                    request_id,
                    RetryReason.SHUTTING_DOWN,
                    self.admission.retry_hint_ms,
                    "server is draining",
                ),
            )
            return
        try:
            operation = Op(op)
        except ValueError:
            operation = None
        if operation is None or operation not in self.SUPPORTED_OPS:
            self.responses_error += 1
            await self._respond(
                connection,
                encode_error(
                    request_id, ErrorCode.UNKNOWN_OP, f"unknown opcode {op}"
                ),
            )
            return
        self.op_counts[operation.name] += 1
        if (
            operation is Op.FETCH_MANY or operation is Op.UPDATE_MANY
        ) and len(payload) >= 2:
            # Declared batch size; counted here on the loop thread so the
            # counter never races the worker pool.
            self.batch_pages += int.from_bytes(payload[:2], "little")
        if operation is Op.STATS:
            # Introspection must work under full load — it reads counters
            # only and bypasses admission.
            body = json.dumps(self.stats_snapshot()).encode("utf-8")
            self.responses_ok += 1
            await self._respond(
                connection, encode_response(Status.OK, request_id, body)
            )
            return
        if operation in self.LOOP_OPS:
            # Cheap in-memory bookkeeping answered on the event loop
            # itself, outside admission — see LOOP_OPS.
            frame = await self._handle_loop_op(operation, request_id, payload)
            await self._respond(connection, frame)
            return
        try:
            await self.admission.acquire(connection.client_id)
        except AdmissionRejected as exc:
            self.responses_retry += 1
            await self._respond(
                connection,
                encode_retry_after(
                    request_id, exc.reason, exc.hint_ms, str(exc)
                ),
            )
            return
        except AdmissionTimeout as exc:
            self.responses_error += 1
            await self._respond(
                connection,
                encode_error(request_id, ErrorCode.TIMEOUT, str(exc)),
            )
            return
        frame = await self._execute_admitted(
            connection, operation, request_id, payload
        )
        await self._respond(connection, frame)

    async def _handle_loop_op(
        self, operation: Op, request_id: int, payload: bytes
    ) -> bytes:
        """Serve a ``LOOP_OPS`` opcode; only reachable when overridden."""
        raise NotImplementedError  # pragma: no cover - LOOP_OPS is empty here

    async def _execute_admitted(
        self,
        connection: _Connection,
        operation: Op,
        request_id: int,
        payload: bytes,
    ) -> bytes:
        """Run one admitted request's buffer work; build the response.

        A request whose media cannot block (:func:`_may_block`) runs right
        here on the event loop, because the pool hop would only cost CPU;
        any other runs on the worker pool.  The admission slot is released
        exactly once: normally when the work finishes, or — after an
        execution timeout of pooled work — by a done callback when the
        stuck work eventually returns (the slot stays occupied meanwhile,
        which is deliberate backpressure).
        """
        client_id = connection.client_id
        try:
            if not _may_block(self.system):
                result = self._run_operation(operation, payload)
            else:
                assert self._pool is not None
                future = asyncio.get_running_loop().run_in_executor(
                    self._pool, self._pooled, self._run_operation, operation, payload
                )
                try:
                    if self.request_timeout is None:
                        result = await future
                    else:
                        result = await asyncio.wait_for(
                            asyncio.shield(future), self.request_timeout
                        )
                except asyncio.TimeoutError:
                    self.admission._emit(
                        "req_timeout", client_id, self.admission.inflight
                    )
                    self.admission.timeouts += 1

                    def _release_when_done(done: "asyncio.Future") -> None:
                        done.exception()  # consume, avoid "never retrieved"
                        self.admission.release(client_id)

                    future.add_done_callback(_release_when_done)
                    self.responses_error += 1
                    return encode_error(
                        request_id,
                        ErrorCode.TIMEOUT,
                        f"request exceeded {self.request_timeout}s",
                    )
        except BufferFullError as exc:
            self.admission.release(client_id)
            self.responses_retry += 1
            return encode_retry_after(
                request_id,
                RetryReason.BUFFER_FULL,
                self.admission.retry_hint_ms,
                str(exc),
            )
        except KeyError as exc:
            self.admission.release(client_id)
            self.responses_error += 1
            return encode_error(
                request_id, ErrorCode.NOT_FOUND, str(exc.args[0]) if exc.args else ""
            )
        except ValueError as exc:
            self.admission.release(client_id)
            self.responses_error += 1
            message = str(exc)
            code = (
                ErrorCode.NOT_PINNED
                if "not pinned" in message
                else ErrorCode.MALFORMED
            )
            return encode_error(request_id, code, message)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            self.admission.release(client_id)
            self.responses_error += 1
            return encode_error(
                request_id,
                ErrorCode.INTERNAL,
                f"{type(exc).__name__}: {exc}",
            )
        else:
            self.admission.release(client_id)
            self.responses_ok += 1
            if type(result) is list:
                # Batched page payloads stay separate buffers all the way
                # to ``writelines`` — no concatenation copy.
                try:
                    return encode_response_parts(Status.OK, request_id, result)
                except ProtocolError as exc:
                    # Batch × page_size overflowed MAX_FRAME; answer the
                    # request instead of killing the connection.
                    self.responses_ok -= 1
                    self.responses_error += 1
                    return encode_error(
                        request_id, ErrorCode.INTERNAL, str(exc)
                    )
            return encode_response(Status.OK, request_id, result)

    def _pooled(self, work, *args):
        """``work(*args)`` on a pool thread: a thread-safe manager runs it
        as is, a sequential one under ``_sequential``, one at a time."""
        if self.system.is_concurrent:
            return work(*args)
        with self._sequential:
            return work(*args)

    def _run_operation(self, operation: Op, payload: bytes):
        """The buffer work of one request (loop or worker thread).

        Returns the OK payload: a buffer *list* for ``FETCH_MANY`` (written
        via ``writelines``), ``bytes`` for the others.
        """
        buffer = self.system.buffer
        if operation is Op.FETCH_MANY:
            return self._fetch_slots(unpack_page_ids(payload))
        if operation is Op.UPDATE_MANY:
            self._install_slots(unpack_update_batch(payload))
            return b""
        if operation is Op.PIN:
            buffer.fetch_pinned(unpack_page_id(payload))
            return b""
        if operation is Op.UNPIN:
            buffer.unpin(unpack_page_id(payload))
            return b""
        if operation is Op.COMMIT:
            return pack_lsn(self.system.commit())
        raise ValueError(f"unhandled operation {operation!r}")

    def _fetch_slots(self, page_ids: list[int]) -> list[bytes]:
        """Fetch pages; their slots in request order, ``page_size`` bytes
        each, so a reply is the blobs with no framing between them."""
        fetch = self.system.buffer.fetch
        page_size = self.page_size
        return [encode_page(fetch(pid), page_size) for pid in page_ids]

    def _install_slots(self, items) -> None:
        """Install ``(page_id, blob)`` pairs, all or none.

        Every blob is verified before any page is installed, so a
        malformed tail never leaves a half-applied batch.  The pages stay
        packed: log, write-back and a later fetch serve the sent bytes.
        """
        pages = [read_page(blob, page_id) for page_id, blob in items]
        install = self.system.buffer.install
        for page in pages:
            install(page)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Everything STATS reports: buffer, admission, service counters.

        A cluster-aware server additionally reports a ``node`` block
        (node id, ring epoch, owned slots, forwarding counters) via
        :meth:`_node_stats`; single-node servers omit it.
        """
        snapshot = {
            "buffer": self.system.stats_snapshot(),
            "admission": self.admission.snapshot(),
            "server": {
                "requests": self.requests,
                "responses_ok": self.responses_ok,
                "responses_error": self.responses_error,
                "responses_retry": self.responses_retry,
                "op_counts": dict(self.op_counts),
                "batch_pages": self.batch_pages,
                "protocol_errors": self.protocol_errors,
                "connections": len(self._connections),
                "connections_total": self.connections_total,
                "draining": self._draining,
                "resident": len(self.system.buffer),
                "capacity": self.system.capacity,
                "pinned": getattr(self.system.buffer, "pinned_count", 0),
            },
        }
        node = self._node_stats()
        if node is not None:
            snapshot["node"] = node
        return snapshot

    def _node_stats(self) -> dict | None:
        """The STATS ``node`` block; ``None`` outside a cluster."""
        return None

"""The cluster-aware page server: ownership, replication, far memory.

:class:`ClusterPageServer` subclasses :class:`~repro.server.PageServer`
so the single-node server (and its golden traces) stay bit-identical —
everything cluster-shaped lives in overrides:

* **Ownership.**  Every page has one owner (:class:`ClusterMap`).  A
  request for an owned page runs through the inherited pool path
  untouched.  A request for a foreign page is *served anyway*: from the
  local replica store when a valid copy exists, otherwise forwarded to
  the owner over a lazily-connected peer client — a client talking to
  the wrong node gets the right answer, just a hop slower.
* **Hot-page replication.**  Owners count per-page read heat; at
  ``replicate_after`` reads the already-encoded response bytes are
  pushed (``REPLICATE``) to the page's K ring successors.  An UPDATE at
  the owner bumps the page's LSN and *synchronously* invalidates every
  replica holder (and the far node) **before** the update is
  acknowledged — which is the whole correctness story: once a writer
  sees its ack, no replica can serve the old version, so no client ever
  observes a stale page.  Invalidation and the other peer-plane opcodes
  run directly on the event loop (``LOOP_OPS``), outside admission, so
  an overloaded node can always retire stale copies.
* **Far buffer.**  One designated node (not in the ring, owns no slots)
  hosts a :class:`FarBuffer` of clean evicted pages.  Owners watch their
  own evictions through an :class:`EvictOfferSink`, offer clean pages
  (``OFFER_FAR``) with the page's current LSN, and on a local miss probe
  the far node (``FETCH_FAR``) *with the LSN they expect* before paying
  the disk read — the far node answers only on an exact LSN match, so a
  stale far copy is structurally unservable.  The probe happens inside
  :class:`FarProbeDisk`, a disk wrapper, so the buffer manager itself
  never learns the cluster exists.

Every LSN here is the owner's per-node committed counter for the page —
the same monotonic contract the WAL stamps durable pages with, kept by
the cluster layer so undurable nodes cluster too.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.client import (
    AsyncPageClient,
    ConnectionLost,
    RetryAfter,
    ServerError,
)
from repro.cluster.ring import ClusterMap
from repro.obs.events import BufferEvent
from repro.server.core import PageServer
from repro.server.protocol import (
    CLUSTER_OPS,
    ErrorCode,
    Op,
    Status,
    encode_error,
    encode_response,
    encode_response_parts,
    encode_retry_after,
    pack_page_ids,
    pack_page_lsn,
    pack_page_lsn_blob,
    pack_update_batch,
    unpack_page_id,
    unpack_page_ids,
    unpack_page_lsn,
    unpack_page_lsn_blob,
    unpack_update_batch,
)
from repro.storage.serialization import encode_page, read_page

if TYPE_CHECKING:
    from repro.api import BufferSystem
    from repro.storage.page import Page, PageId

#: Response head: length prefix (4) + status/request-id head (5).  A
#: single-page OK response is exactly this plus the encoded page bytes,
#: which is how the replication path recovers the blob without a second
#: buffer access.
_FRAME_HEAD = 9


# ----------------------------------------------------------------------
# LSN-guarded byte stores
# ----------------------------------------------------------------------


class ReplicaStore:
    """Per-node store of replicated page bytes, guarded by LSN floors.

    ``invalidate(pid, lsn)`` raises the page's floor and drops any copy
    strictly below it; ``put`` rejects pushes that lost a race with an
    invalidation (their LSN is below the floor).  The floor is what makes
    the push/invalidate pair safe under arbitrary reordering: a late push
    of retired bytes can never resurrect them.  A push tagged *exactly*
    at the floor is accepted — the invalidation's LSN is the one the
    owner assigned to the new version, and owners only ship (LSN, bytes)
    pairs captured while that LSN held, so such a copy is the
    post-invalidation version itself, not a stale one.  Rejecting it
    would permanently bar every page that has ever been written from
    re-entering the replica and far tiers.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[int, bytes]] = {}
        self._floor: dict[int, int] = {}
        self.puts = 0
        self.rejected_puts = 0
        self.invalidations = 0

    def put(self, page_id: int, lsn: int, blob: bytes) -> bool:
        if lsn < self._floor.get(page_id, -1):
            self.rejected_puts += 1
            return False
        current = self._entries.get(page_id)
        if current is not None and current[0] >= lsn:
            self.rejected_puts += 1
            return False
        self._entries[page_id] = (lsn, blob)
        self.puts += 1
        return True

    def get(self, page_id: int) -> Optional[tuple[int, bytes]]:
        return self._entries.get(page_id)

    def invalidate(self, page_id: int, lsn: int) -> bool:
        if lsn > self._floor.get(page_id, -1):
            self._floor[page_id] = lsn
        self.invalidations += 1
        entry = self._entries.get(page_id)
        if entry is not None and entry[0] < lsn:
            del self._entries[page_id]
            return True
        return False

    def __len__(self) -> int:
        return len(self._entries)


class FarBuffer(ReplicaStore):
    """The far-memory tier: a bounded LRU of clean evicted pages.

    Same LSN-floor discipline as :class:`ReplicaStore`, plus a capacity
    bound (least-recently-touched offer evicted first) and hit/miss
    accounting for the ``FETCH_FAR`` exact-LSN lookups.
    """

    def __init__(self, capacity: int) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError("far buffer capacity must be >= 1")
        self.capacity = capacity
        self._entries: "collections.OrderedDict[int, tuple[int, bytes]]" = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def put(self, page_id: int, lsn: int, blob: bytes) -> bool:
        accepted = super().put(page_id, lsn, blob)
        if accepted:
            self._entries.move_to_end(page_id)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return accepted

    def get_exact(self, page_id: int, lsn: int) -> Optional[bytes]:
        entry = self._entries.get(page_id)
        if entry is None or entry[0] != lsn:
            self.misses += 1
            return None
        self._entries.move_to_end(page_id)
        self.hits += 1
        return entry[1]


# ----------------------------------------------------------------------
# Disk wrapper: probe the far tier before paying a disk read
# ----------------------------------------------------------------------


class FarProbeDisk:
    """A disk wrapper inserting the far tier into the miss path.

    ``read`` consults a late-bound probe first — the cluster server
    binds it at start-up; before that (and on any probe miss, timeout or
    peer failure) the read falls through to the wrapped disk verbatim.
    Everything else (``store``, ``peek``, stats, injection hooks, …)
    proxies straight through, so the buffer manager sees an ordinary
    disk and the accounting identity is untouched: a far hit is still a
    buffer miss, it just costs a memory round-trip instead of a device
    read.
    """

    #: A probe is a network round-trip to the far node, whose answer the
    #: node's own event loop delivers: it must never run on that loop.  A
    #: class attribute, so that ``__getattr__`` never forwards the inner
    #: disk's answer.
    may_block = True

    def __init__(self, inner: object) -> None:
        self._inner = inner
        self._probe: Optional[Callable[[int], Optional[bytes]]] = None

    def bind_probe(self, probe: Callable[[int], Optional[bytes]]) -> None:
        self._probe = probe

    def unbind_probe(self) -> None:
        self._probe = None

    def read(self, page_id: "PageId") -> "Page":
        probe = self._probe
        if probe is not None:
            blob = probe(page_id)
            if blob is not None:
                return read_page(blob, page_id)
        return self._inner.read(page_id)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
# Eviction observer: the far tier's supply side
# ----------------------------------------------------------------------


class EvictOfferSink:
    """An event sink that queues clean evictions as far-buffer offers.

    ``emit`` is called from buffer worker threads; it records clean
    ``evict`` events into a thread-safe queue (and forwards everything
    to an optional inner sink).  The cluster server drains the queue on
    its event loop and turns entries into ``OFFER_FAR`` pushes.
    """

    def __init__(self, inner: object | None = None) -> None:
        self._inner = inner
        self._queue: collections.deque[int] = collections.deque()
        self._lock = threading.Lock()

    def emit(self, event: "BufferEvent") -> None:
        if event.kind == "evict" and event.dirty is False:
            with self._lock:
                self._queue.append(event.page_id)
        if self._inner is not None:
            self._inner.emit(event)

    def drain(self, limit: int = 256) -> list[int]:
        with self._lock:
            take = min(limit, len(self._queue))
            return [self._queue.popleft() for _ in range(take)]


# ----------------------------------------------------------------------
# The cluster node
# ----------------------------------------------------------------------


@dataclass
class ClusterNodeConfig:
    """Everything a :class:`ClusterPageServer` needs beyond a PageServer.

    ``cluster_map`` is shared *by reference* across an in-process fleet:
    the facade fills in bound ports after start-up and every node sees
    them.  ``replicate_after`` is the read-heat threshold that triggers
    replication; ``far_capacity`` is only honoured on the far node
    itself; ``offer_sink`` is the eviction observer wired into this
    node's buffer when a far tier exists.
    """

    node_id: str
    cluster_map: ClusterMap
    replicate_after: int = 4
    far_capacity: int = 1024
    far_probe_timeout_s: float = 2.0
    offer_sink: Optional[EvictOfferSink] = None
    offer_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.node_id not in self.cluster_map.nodes:
            raise ValueError(
                f"node {self.node_id!r} is not in the cluster map"
            )
        if self.replicate_after < 1:
            raise ValueError("replicate_after must be >= 1")


class ClusterPageServer(PageServer):
    """A :class:`PageServer` that is one node of a cluster."""

    SUPPORTED_OPS = frozenset(Op)
    LOOP_OPS = CLUSTER_OPS

    def __init__(
        self, system: "BufferSystem", config: ClusterNodeConfig, **kwargs
    ) -> None:
        super().__init__(system, **kwargs)
        self.node_id = config.node_id
        self.cluster_map = config.cluster_map
        self.replicate_after = config.replicate_after
        self._far_probe_timeout = config.far_probe_timeout_s
        self._offer_sink = config.offer_sink
        self._offer_interval = config.offer_interval_s
        self.is_far_node = self.cluster_map.far_node == self.node_id
        self.replica_store = ReplicaStore()
        self.far_store: Optional[FarBuffer] = (
            FarBuffer(config.far_capacity) if self.is_far_node else None
        )
        # Owner-side cluster state (all touched on the event loop only).
        self._page_lsn: dict[int, int] = {}
        self._lsn_clock = itertools.count(1)
        self._heat: dict[int, int] = {}
        self._replica_holders: dict[int, set[str]] = {}
        self._far_offered: set[int] = set()
        self._peers: dict[str, AsyncPageClient] = {}
        self._peer_locks: dict[str, asyncio.Lock] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._offer_task: asyncio.Task | None = None
        self._cluster_clock = itertools.count(1)
        # Cluster counters (STATS "node" block).
        self.forwards = 0
        self.forward_failures = 0
        self.replica_hits = 0
        self.replica_pushes = 0
        self.invalidations_sent = 0
        self.invalidate_failures = 0
        self.far_offers = 0
        self.far_probes = 0
        self.far_hits = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self._loop = asyncio.get_running_loop()
        self.cluster_map.set_address(self.node_id, self.host, self.port)
        disk = self.system.disk
        if (
            not self.is_far_node
            and self.cluster_map.far_node is not None
            and isinstance(disk, FarProbeDisk)
        ):
            disk.bind_probe(self._probe_far_blocking)
        if self._offer_sink is not None and not self.is_far_node:
            self._offer_task = asyncio.ensure_future(self._offer_loop())

    async def stop(self, drain_timeout: float = 10.0) -> None:
        disk = self.system.disk
        if isinstance(disk, FarProbeDisk):
            disk.unbind_probe()
        if self._offer_task is not None:
            self._offer_task.cancel()
            try:
                await self._offer_task
            except asyncio.CancelledError:
                pass
            self._offer_task = None
        peers, self._peers = self._peers, {}
        for client in peers.values():
            try:
                await client.close()
            except Exception:  # noqa: BLE001 - peer may already be gone
                pass
        await super().stop(drain_timeout)

    # ------------------------------------------------------------------
    # Peers and events
    # ------------------------------------------------------------------

    def _owns(self, page_id: int) -> bool:
        if self.is_far_node:
            return False
        return self.cluster_map.owner(page_id) == self.node_id

    async def _peer(self, node_id: str) -> AsyncPageClient:
        lock = self._peer_locks.setdefault(node_id, asyncio.Lock())
        async with lock:
            client = self._peers.get(node_id)
            if (
                client is not None
                and client._dead is None
                and not client._closed
            ):
                return client
            host, port = self.cluster_map.address(node_id)
            client = await AsyncPageClient.connect(
                host, port, page_size=self.page_size
            )
            self._peers[node_id] = client
            return client

    def _emit_cluster(self, kind: str, **fields) -> None:
        sink = getattr(self.system.buffer, "observer", None) or (
            self.system.observer
        )
        if sink is None:
            return
        sink.emit(
            BufferEvent(kind=kind, clock=next(self._cluster_clock), **fields)
        )

    # ------------------------------------------------------------------
    # Peer-plane opcodes (event loop, no admission)
    # ------------------------------------------------------------------

    async def _handle_loop_op(
        self, operation: Op, request_id: int, payload: bytes
    ) -> bytes:
        try:
            if operation is Op.OWNERSHIP:
                body = self.cluster_map.to_json().encode("utf-8")
                self.responses_ok += 1
                return encode_response(Status.OK, request_id, body)
            if operation is Op.REPLICATE:
                page_id, lsn, blob = unpack_page_lsn_blob(payload)
                self.replica_store.put(page_id, lsn, blob)
                self.responses_ok += 1
                return encode_response(Status.OK, request_id)
            if operation is Op.INVALIDATE:
                page_id, lsn = unpack_page_lsn(payload)
                self.replica_store.invalidate(page_id, lsn)
                if self.far_store is not None:
                    self.far_store.invalidate(page_id, lsn)
                self.responses_ok += 1
                return encode_response(Status.OK, request_id)
            if operation is Op.OFFER_FAR:
                page_id, lsn, blob = unpack_page_lsn_blob(payload)
                if self.far_store is None:
                    self.responses_error += 1
                    return encode_error(
                        request_id,
                        ErrorCode.UNKNOWN_OP,
                        f"node {self.node_id} hosts no far buffer",
                    )
                self.far_store.put(page_id, lsn, blob)
                self.responses_ok += 1
                return encode_response(Status.OK, request_id)
            if operation is Op.FETCH_FAR:
                page_id, lsn = unpack_page_lsn(payload)
                if self.far_store is None:
                    self.responses_error += 1
                    return encode_error(
                        request_id,
                        ErrorCode.UNKNOWN_OP,
                        f"node {self.node_id} hosts no far buffer",
                    )
                blob = self.far_store.get_exact(page_id, lsn)
                if blob is None:
                    self.responses_error += 1
                    return encode_error(
                        request_id,
                        ErrorCode.NOT_FOUND,
                        f"far buffer holds no page {page_id} at lsn {lsn}",
                    )
                self.responses_ok += 1
                return encode_response(Status.OK, request_id, blob)
        except ValueError as exc:
            self.responses_error += 1
            return encode_error(request_id, ErrorCode.MALFORMED, str(exc))
        raise AssertionError(f"not a loop op: {operation!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Routed data plane
    # ------------------------------------------------------------------

    async def _execute_admitted(
        self,
        connection,
        operation: Op,
        request_id: int,
        payload: bytes,
    ):
        if len(self.cluster_map.data_nodes) > 1 or self.is_far_node:
            if operation is Op.FETCH:
                return await self._routed_fetch(
                    connection, request_id, payload
                )
            if operation is Op.UPDATE:
                return await self._routed_update(
                    connection, request_id, payload
                )
            if operation is Op.FETCH_MANY:
                return await self._routed_fetch_many(
                    connection, request_id, payload
                )
            if operation is Op.UPDATE_MANY:
                return await self._routed_update_many(
                    connection, request_id, payload
                )
        frame = await super()._execute_admitted(
            connection, operation, request_id, payload
        )
        # Single-data-node fast path still keeps LSN bookkeeping so the
        # far tier works in a 1-node + far topology.
        if operation is Op.UPDATE and self._frame_ok(frame):
            try:
                page_id = unpack_page_id(payload)
            except ValueError:
                return frame
            await self._after_owner_writes([page_id])
        elif operation is Op.UPDATE_MANY and self._frame_ok(frame):
            try:
                page_ids = [
                    page_id for page_id, _ in unpack_update_batch(payload)
                ]
            except ValueError:
                return frame
            await self._after_owner_writes(page_ids)
        return frame

    @staticmethod
    def _frame_ok(frame) -> bool:
        head = frame[0] if type(frame) is list else frame
        return len(head) > 4 and head[4] == Status.OK

    # -- FETCH ---------------------------------------------------------

    async def _routed_fetch(self, connection, request_id: int, payload: bytes):
        try:
            page_id = unpack_page_id(payload)
        except ValueError:
            # Let the inherited path produce the canonical MALFORMED reply.
            return await super()._execute_admitted(
                connection, Op.FETCH, request_id, payload
            )
        if self._owns(page_id):
            before = self._page_lsn.get(page_id, 0)
            frame = await super()._execute_admitted(
                connection, Op.FETCH, request_id, payload
            )
            if self._frame_ok(frame) and type(frame) is not list:
                self._note_owner_read(page_id, frame[_FRAME_HEAD:], before)
            return frame
        try:
            entry = self.replica_store.get(page_id)
            if entry is not None:
                self.replica_hits += 1
                self._emit_cluster(
                    "cluster_route", page_id=page_id, label="replica"
                )
                self.responses_ok += 1
                return encode_response(Status.OK, request_id, entry[1])
            owner = self.cluster_map.owner(page_id)
            self._emit_cluster(
                "cluster_route", page_id=page_id, label=f"forward:{owner}"
            )
            return await self._forward(
                owner,
                request_id,
                lambda client: client.fetch_blob(page_id),
                ok=lambda blob: encode_response(Status.OK, request_id, blob),
            )
        finally:
            self.admission.release(connection.client_id)

    # -- UPDATE --------------------------------------------------------

    async def _routed_update(self, connection, request_id: int, payload: bytes):
        try:
            page_id = unpack_page_id(payload)
        except ValueError:
            return await super()._execute_admitted(
                connection, Op.UPDATE, request_id, payload
            )
        if self._owns(page_id):
            frame = await super()._execute_admitted(
                connection, Op.UPDATE, request_id, payload
            )
            if self._frame_ok(frame):
                await self._after_owner_writes([page_id])
            return frame
        try:
            owner = self.cluster_map.owner(page_id)
            self._emit_cluster(
                "cluster_route", page_id=page_id, label=f"forward:{owner}"
            )
            return await self._forward(
                owner,
                request_id,
                lambda client: client._request(Op.UPDATE, payload),
                ok=lambda _: encode_response(Status.OK, request_id),
            )
        finally:
            self.admission.release(connection.client_id)

    # -- batched -------------------------------------------------------

    async def _routed_fetch_many(
        self, connection, request_id: int, payload: bytes
    ):
        try:
            page_ids = unpack_page_ids(payload)
        except ValueError:
            return await super()._execute_admitted(
                connection, Op.FETCH_MANY, request_id, payload
            )
        local = [pid for pid in page_ids if self._owns(pid)]
        if len(local) == len(page_ids):
            before = {pid: self._page_lsn.get(pid, 0) for pid in page_ids}
            frame = await super()._execute_admitted(
                connection, Op.FETCH_MANY, request_id, payload
            )
            if self._frame_ok(frame) and type(frame) is list:
                for pid, blob in zip(page_ids, frame[1:]):
                    self._note_owner_read(pid, blob, before[pid])
            return frame
        # Mixed batch: serve the owned slice on the pool and foreign
        # pages from the replica store where a valid copy exists, fan the
        # rest out per owner, reassemble in request order.  All-or-error.
        try:
            groups: dict[str, list[int]] = {}
            blobs: dict[int, bytes] = {}
            for pid in page_ids:
                owner = self.cluster_map.owner(pid)
                if owner != self.node_id:
                    entry = self.replica_store.get(pid)
                    if entry is not None:
                        self.replica_hits += 1
                        self._emit_cluster(
                            "cluster_route", page_id=pid, label="replica"
                        )
                        blobs[pid] = entry[1]
                        continue
                groups.setdefault(owner, []).append(pid)

            async def _local(ids: list[int]) -> None:
                loop = asyncio.get_running_loop()
                before = {pid: self._page_lsn.get(pid, 0) for pid in ids}
                results = await loop.run_in_executor(
                    self._pool, self._fetch_blobs_blocking, ids
                )
                for pid, blob in zip(ids, results):
                    blobs[pid] = blob
                    self._note_owner_read(pid, blob, before[pid])

            async def _remote(owner: str, ids: list[int]) -> None:
                self.forwards += 1
                for pid in ids:
                    self._emit_cluster(
                        "cluster_route", page_id=pid, label=f"forward:{owner}"
                    )
                client = await self._peer(owner)
                blob = await client._request(Op.FETCH_MANY, pack_page_ids(ids))
                size = self.page_size
                for index, pid in enumerate(ids):
                    blobs[pid] = blob[index * size : (index + 1) * size]

            jobs = []
            for owner, ids in groups.items():
                if owner == self.node_id:
                    jobs.append(_local(ids))
                else:
                    jobs.append(_remote(owner, ids))
            try:
                await asyncio.gather(*jobs)
            except (ServerError, RetryAfter, ConnectionLost, OSError) as exc:
                return self._peer_failure_frame(request_id, exc)
            except KeyError as exc:
                self.responses_error += 1
                return encode_error(
                    request_id,
                    ErrorCode.NOT_FOUND,
                    str(exc.args[0]) if exc.args else "",
                )
            except Exception as exc:  # noqa: BLE001 - reported to the client
                self.responses_error += 1
                return encode_error(
                    request_id,
                    ErrorCode.INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                )
            self.responses_ok += 1
            return encode_response_parts(
                Status.OK, request_id, [blobs[pid] for pid in page_ids]
            )
        finally:
            self.admission.release(connection.client_id)

    async def _routed_update_many(
        self, connection, request_id: int, payload: bytes
    ):
        try:
            items = [
                (pid, bytes(blob))
                for pid, blob in unpack_update_batch(payload)
            ]
        except ValueError:
            return await super()._execute_admitted(
                connection, Op.UPDATE_MANY, request_id, payload
            )
        if all(self._owns(pid) for pid, _ in items):
            frame = await super()._execute_admitted(
                connection, Op.UPDATE_MANY, request_id, payload
            )
            if self._frame_ok(frame):
                await self._after_owner_writes([pid for pid, _ in items])
            return frame
        try:
            groups: dict[str, list[tuple[int, bytes]]] = {}
            for item in items:
                owner = self.cluster_map.owner(item[0])
                groups.setdefault(owner, []).append(item)

            async def _local(batch: list[tuple[int, bytes]]) -> None:
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(
                    self._pool, self._install_blobs_blocking, batch
                )
                await self._after_owner_writes([pid for pid, _ in batch])

            async def _remote(
                owner: str, batch: list[tuple[int, bytes]]
            ) -> None:
                self.forwards += 1
                for pid, _ in batch:
                    self._emit_cluster(
                        "cluster_route", page_id=pid, label=f"forward:{owner}"
                    )
                client = await self._peer(owner)
                await client._request(Op.UPDATE_MANY, pack_update_batch(batch))

            jobs = []
            for owner, batch in groups.items():
                if owner == self.node_id:
                    jobs.append(_local(batch))
                else:
                    jobs.append(_remote(owner, batch))
            try:
                await asyncio.gather(*jobs)
            except (ServerError, RetryAfter, ConnectionLost, OSError) as exc:
                return self._peer_failure_frame(request_id, exc)
            except Exception as exc:  # noqa: BLE001 - reported to the client
                self.responses_error += 1
                return encode_error(
                    request_id,
                    ErrorCode.INTERNAL,
                    f"{type(exc).__name__}: {exc}",
                )
            self.responses_ok += 1
            return encode_response(Status.OK, request_id)
        finally:
            self.admission.release(connection.client_id)

    # -- forwarding helpers -------------------------------------------

    async def _forward(self, owner: str, request_id: int, call, *, ok):
        """Relay one call to ``owner``; translate the peer's verdict."""
        self.forwards += 1
        try:
            client = await self._peer(owner)
            result = await call(client)
        except (ServerError, RetryAfter, ConnectionLost, OSError) as exc:
            return self._peer_failure_frame(request_id, exc)
        self.responses_ok += 1
        return ok(result)

    def _peer_failure_frame(self, request_id: int, exc: BaseException):
        """Map a peer failure onto this node's own response to the client."""
        if isinstance(exc, ServerError):
            self.responses_error += 1
            return encode_error(request_id, int(exc.code), str(exc))
        if isinstance(exc, RetryAfter):
            self.responses_retry += 1
            return encode_retry_after(
                request_id, int(exc.reason), exc.hint_ms, str(exc)
            )
        self.forward_failures += 1
        self.responses_error += 1
        return encode_error(
            request_id, ErrorCode.INTERNAL, f"owner unreachable: {exc}"
        )

    def _fetch_blobs_blocking(self, page_ids: list[int]) -> list[bytes]:
        fetch = self.system.buffer.fetch
        size = self.page_size
        return [encode_page(fetch(pid), size) for pid in page_ids]

    def _install_blobs_blocking(self, items: list[tuple[int, bytes]]) -> None:
        pages = [read_page(blob, page_id) for page_id, blob in items]
        install = self.system.buffer.install
        for page in pages:
            install(page)

    # ------------------------------------------------------------------
    # Owner-side read heat and replication
    # ------------------------------------------------------------------

    def _note_owner_read(self, page_id: int, blob, lsn_before: int) -> None:
        """Count read heat; push a replica when the page turns hot.

        ``lsn_before`` was sampled on the loop *before* the pool fetch
        ran; replication happens only when the LSN is unchanged after —
        so the (blob, LSN) pair shipped to replicas is always a
        consistent snapshot, never new bytes under an old LSN or vice
        versa (a racing write invalidates whichever pair loses anyway,
        via the replica store's LSN floor).
        """
        if self.cluster_map.replicas <= 0:
            return
        if len(self.cluster_map.data_nodes) < 2:
            return
        lsn = self._page_lsn.get(page_id, 0)
        if lsn != lsn_before:
            return
        heat = self._heat.get(page_id, 0) + 1
        self._heat[page_id] = heat
        if heat != self.replicate_after:
            return
        targets = self.cluster_map.replica_nodes(page_id)
        if not targets:
            return
        holders = self._replica_holders.setdefault(page_id, set())
        holders.update(targets)
        payload = pack_page_lsn_blob(page_id, lsn, bytes(blob))
        task = asyncio.ensure_future(self._push_replicas(targets, payload))
        task.add_done_callback(lambda t: t.exception())

    async def _push_replicas(self, targets: list[str], payload: bytes) -> None:
        for target in targets:
            try:
                client = await self._peer(target)
                await client._request(Op.REPLICATE, payload)
                self.replica_pushes += 1
            except Exception:  # noqa: BLE001 - replication is best-effort
                pass

    async def _after_owner_writes(self, page_ids: list[int]) -> None:
        """Bump LSNs and synchronously invalidate every remote copy.

        Runs after the local install succeeded and **before** the update
        is acknowledged: the writer's ack therefore implies no replica or
        far copy of the old version can be served anywhere.
        """
        jobs = []
        for page_id in page_ids:
            lsn = next(self._lsn_clock)
            self._page_lsn[page_id] = lsn
            self._heat.pop(page_id, None)
            targets = set(self._replica_holders.pop(page_id, ()))
            far = self.cluster_map.far_node
            if far is not None and page_id in self._far_offered:
                self._far_offered.discard(page_id)
                targets.add(far)
            if not targets:
                continue
            self._emit_cluster(
                "cluster_invalidate",
                page_id=page_id,
                lsn=lsn,
                size=len(targets),
            )
            payload = pack_page_lsn(page_id, lsn)
            for target in targets:
                jobs.append(self._invalidate_at(target, payload))
        if jobs:
            await asyncio.gather(*jobs)

    async def _invalidate_at(self, target: str, payload: bytes) -> None:
        try:
            client = await self._peer(target)
            await client._request(Op.INVALIDATE, payload)
            self.invalidations_sent += 1
        except Exception:  # noqa: BLE001 - counted; the node may be gone
            self.invalidate_failures += 1

    # ------------------------------------------------------------------
    # Far tier: offers (supply) and probes (demand)
    # ------------------------------------------------------------------

    async def _offer_loop(self) -> None:
        far = self.cluster_map.far_node
        if far is None or self._offer_sink is None:
            return
        while True:
            await asyncio.sleep(self._offer_interval)
            page_ids = self._offer_sink.drain()
            if not page_ids:
                continue
            seen: set[int] = set()
            for page_id in page_ids:
                if page_id in seen:
                    continue
                seen.add(page_id)
                if not self._owns(page_id):
                    continue
                # The residency probe, LSN capture, disk peek and LSN
                # re-check run back-to-back on the loop with no await in
                # between: a write that lands after them bumps the LSN, so
                # the offered (LSN, bytes) pair is always consistent.  A
                # batch-wide residency snapshot would go stale across the
                # per-page offer awaits — a page updated mid-batch (dirty
                # in a frame, disk bytes lagging its new LSN) would slip
                # through and park old bytes under the current tag.
                if self.system.buffer.contains(page_id):
                    # Possibly dirty in a frame; the disk bytes may lag the
                    # page's LSN.  Skip — a later eviction will offer the
                    # fresh version.
                    continue
                lsn = self._page_lsn.get(page_id, 0)
                try:
                    page = self.system.disk.peek(page_id)
                except KeyError:
                    continue
                blob = encode_page(page, self.page_size)
                if self._page_lsn.get(page_id, 0) != lsn:
                    continue  # raced with a write; offer nothing stale
                # Register the page as far-held *before* the RPC: a write
                # racing the in-flight offer then still invalidates the far
                # node, whose LSN floor retires whichever copy lost.  A
                # failed offer leaves a harmless extra invalidation target.
                self._far_offered.add(page_id)
                try:
                    client = await self._peer(far)
                    await client._request(
                        Op.OFFER_FAR, pack_page_lsn_blob(page_id, lsn, blob)
                    )
                    self.far_offers += 1
                except Exception:  # noqa: BLE001 - offers are best-effort
                    pass

    def _probe_far_blocking(self, page_id: int) -> Optional[bytes]:
        """The far probe bound into :class:`FarProbeDisk` (worker thread).

        Blocks the missing worker on a loop round-trip to the far node;
        the far node answers on its own event loop, so the wait can
        never deadlock against a saturated worker pool.  Any failure or
        timeout degrades to ``None`` — the caller reads the disk.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return None
        expected = self._page_lsn.get(page_id, 0)
        future = asyncio.run_coroutine_threadsafe(
            self._far_fetch(page_id, expected), loop
        )
        try:
            return future.result(self._far_probe_timeout)
        except Exception:  # noqa: BLE001 - probe failure means "miss"
            future.cancel()
            return None

    async def _far_fetch(self, page_id: int, expected: int) -> Optional[bytes]:
        far = self.cluster_map.far_node
        if far is None:
            return None
        self.far_probes += 1
        try:
            client = await self._peer(far)
            blob = await client._request(
                Op.FETCH_FAR, pack_page_lsn(page_id, expected)
            )
        except ServerError as exc:
            if exc.code == ErrorCode.NOT_FOUND:
                return None
            raise
        except (ConnectionLost, OSError):
            return None
        self.far_hits += 1
        self._emit_cluster("far_hit", page_id=page_id, lsn=expected)
        return blob

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _node_stats(self) -> dict:
        return {
            "node_id": self.node_id,
            "epoch": self.cluster_map.epoch,
            "owned_slots": self.cluster_map.owned_slots(self.node_id),
            "replicas": self.cluster_map.replicas,
            "is_far_node": self.is_far_node,
            "replica_pages": len(self.replica_store),
            "replica_hits": self.replica_hits,
            "replica_pushes": self.replica_pushes,
            "replica_rejected_puts": self.replica_store.rejected_puts,
            "forwards": self.forwards,
            "forward_failures": self.forward_failures,
            "invalidations_sent": self.invalidations_sent,
            "invalidate_failures": self.invalidate_failures,
            "far_pages": 0 if self.far_store is None else len(self.far_store),
            "far_capacity": (
                0 if self.far_store is None else self.far_store.capacity
            ),
            "far_store_hits": (
                0 if self.far_store is None else self.far_store.hits
            ),
            "far_offers": self.far_offers,
            "far_probes": self.far_probes,
            "far_hits": self.far_hits,
            "tracked_lsns": len(self._page_lsn),
        }

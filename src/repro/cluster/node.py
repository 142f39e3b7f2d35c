"""The cluster-aware page server: ownership and forwarding.

:class:`ClusterPageServer` subclasses :class:`~repro.server.PageServer`
so the single-node server (and its golden traces) stay bit-identical —
everything cluster-shaped lives in overrides.  Every page has one owner
(:class:`ClusterMap`).  A batch of owned pages runs through the
inherited path untouched.  A batch with foreign pages is *served
anyway*: its owned slice runs here (the same
:meth:`~repro.server.PageServer._fetch_slots` / ``_install_slots`` the
inherited path calls, on the event loop or the worker pool by the rule a
whole request follows) and the rest is forwarded, one batch per owner,
over lazily-connected peer clients — a client talking to the wrong node
gets the right answer, just a hop slower.  ``OWNERSHIP`` runs directly
on the event loop (``LOOP_OPS``), outside admission, so a routing client
can refresh its map from a node whose admission plane is saturated.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import TYPE_CHECKING

from repro.client import (
    AsyncPageClient,
    ConnectionLost,
    RetryAfter,
    ServerError,
)
from repro.cluster.ring import ClusterMap
from repro.obs.events import BufferEvent
from repro.server.core import PageServer, _may_block
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
    pack_update_batch,
    unpack_page_ids,
    unpack_update_batch,
)

if TYPE_CHECKING:
    from repro.api import BufferSystem


class ClusterPageServer(PageServer):
    """A :class:`PageServer` that is node ``node_id`` of a cluster.

    ``cluster_map`` is shared *by reference* across an in-process fleet:
    the facade fills in bound ports after start-up and every node sees
    them.
    """

    SUPPORTED_OPS = frozenset(Op)
    LOOP_OPS = CLUSTER_OPS

    def __init__(
        self,
        system: "BufferSystem",
        cluster_map: ClusterMap,
        node_id: str,
        **kwargs,
    ) -> None:
        if node_id not in cluster_map.nodes:
            raise ValueError(f"node {node_id!r} is not in the cluster map")
        super().__init__(system, **kwargs)
        self.node_id = node_id
        self.cluster_map = cluster_map
        self._peers: dict[str, AsyncPageClient] = {}
        self._peer_locks: dict[str, asyncio.Lock] = {}
        self._cluster_clock = itertools.count(1)
        # Routing counters (STATS "node" block).
        self.forwards = 0
        self.forward_failures = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await super().start()
        self.cluster_map.set_address(self.node_id, self.host, self.port)

    async def stop(self, drain_timeout: float = 10.0) -> None:
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

    def _emit_route(self, page_id: int, owner: str) -> None:
        sink = getattr(self.system.buffer, "observer", None) or (
            self.system.observer
        )
        if sink is None:
            return
        sink.emit(
            BufferEvent(
                kind="cluster_route",
                clock=next(self._cluster_clock),
                page_id=page_id,
                label=f"forward:{owner}",
            )
        )

    # ------------------------------------------------------------------
    # OWNERSHIP (event loop, no admission)
    # ------------------------------------------------------------------

    async def _handle_loop_op(
        self, operation: Op, request_id: int, payload: bytes
    ) -> bytes:
        body = self.cluster_map.to_json().encode("utf-8")
        self.responses_ok += 1
        return encode_response(Status.OK, request_id, body)

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
        if len(self.cluster_map.data_nodes) > 1:
            if operation is Op.FETCH_MANY:
                return await self._routed_fetch_many(
                    connection, request_id, payload
                )
            if operation is Op.UPDATE_MANY:
                return await self._routed_update_many(
                    connection, request_id, payload
                )
        return await super()._execute_admitted(
            connection, operation, request_id, payload
        )

    # -- batched -------------------------------------------------------

    async def _routed_fetch_many(
        self, connection, request_id: int, payload: bytes
    ):
        try:
            page_ids = unpack_page_ids(payload)
        except ValueError:
            page_ids = None
        if page_ids is None or all(self._owns(pid) for pid in page_ids):
            return await super()._execute_admitted(
                connection, Op.FETCH_MANY, request_id, payload
            )
        # Mixed batch: serve the owned slice here, fan the rest out per
        # owner, reassemble in request order.  All-or-error.
        try:
            groups: dict[str, list[int]] = {}
            for pid in page_ids:
                groups.setdefault(self.cluster_map.owner(pid), []).append(pid)
            blobs: dict[int, bytes] = {}

            async def _local(ids: list[int]) -> None:
                results = await self._run_owned(self._fetch_slots, ids)
                blobs.update(zip(ids, results))

            async def _remote(owner: str, ids: list[int]) -> None:
                self.forwards += 1
                for pid in ids:
                    self._emit_route(pid, owner)
                client = await self._peer(owner)
                blob = await client._request(Op.FETCH_MANY, pack_page_ids(ids))
                size = self.page_size
                for index, pid in enumerate(ids):
                    blobs[pid] = blob[index * size : (index + 1) * size]

            failure = await self._gather_groups(
                request_id, groups, _local, _remote
            )
            if failure is not None:
                return failure
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
            items = None
        if items is None or all(self._owns(pid) for pid, _ in items):
            return await super()._execute_admitted(
                connection, Op.UPDATE_MANY, request_id, payload
            )
        try:
            groups: dict[str, list[tuple[int, bytes]]] = {}
            for item in items:
                groups.setdefault(self.cluster_map.owner(item[0]), []).append(
                    item
                )

            async def _local(batch: list[tuple[int, bytes]]) -> None:
                await self._run_owned(self._install_slots, batch)

            async def _remote(
                owner: str, batch: list[tuple[int, bytes]]
            ) -> None:
                self.forwards += 1
                for pid, _ in batch:
                    self._emit_route(pid, owner)
                client = await self._peer(owner)
                await client._request(Op.UPDATE_MANY, pack_update_batch(batch))

            failure = await self._gather_groups(
                request_id, groups, _local, _remote
            )
            if failure is not None:
                return failure
            self.responses_ok += 1
            return encode_response(Status.OK, request_id)
        finally:
            self.admission.release(connection.client_id)

    # -- forwarding helpers -------------------------------------------

    async def _run_owned(self, work, slice_):
        """Run the owned slice of a mixed batch where a whole request runs:
        on the event loop when no medium may block (:func:`_may_block`),
        on the worker pool otherwise."""
        if not _may_block(self.system):
            return work(slice_)
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, self._pooled, work, slice_
        )

    async def _gather_groups(self, request_id: int, groups, local, remote):
        """Run every per-owner job; the error frame of a failure, or None."""
        jobs = [
            local(group) if owner == self.node_id else remote(owner, group)
            for owner, group in groups.items()
        ]
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
                request_id, ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        return None

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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _node_stats(self) -> dict:
        return {
            "node_id": self.node_id,
            "epoch": self.cluster_map.epoch,
            "owned_slots": self.cluster_map.owned_slots(self.node_id),
            "forwards": self.forwards,
            "forward_failures": self.forward_failures,
        }

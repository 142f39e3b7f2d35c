"""Cluster-aware clients: route every request to the page's owner.

:class:`RoutingClient` holds a :class:`~repro.cluster.ring.ClusterMap`
and one lazy :class:`~repro.client.AsyncPageClient` per node.  Every page
request is a batch: it is split per owner and the parts fan out
concurrently, so one ``fetch_many`` costs one round trip *per owner
touched*, not per page, and ``fetch``/``update`` (batches of one) go
straight to the owner.

Failures route around: on :class:`ConnectionLost` / ``RETRY_AFTER`` the
client sleeps the :class:`~repro.storage.retry.RetryPolicy` schedule,
re-fetches the ownership map (``OWNERSHIP``) from any reachable node —
picking up a newer ring epoch if membership changed, and with it the
node's new address — and replays the part against the node it was
split for.  Replays are safe for the same reason they are in
:class:`~repro.client.PageClient`: every operation is an idempotent
full-page read or install.

:class:`ClusterClient` is the synchronous wrapper, built like
:class:`~repro.client.PageClient` on an event loop that runs on a
private daemon thread.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.client import (
    AsyncPageClient,
    ConnectionLost,
    RetryAfter,
    _LoopThreadClient,
)
from repro.cluster.ring import ClusterMap
from repro.server.protocol import Op
from repro.storage.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.storage.page import Page, PageId


class RoutingClient:
    """Async client that routes page operations by cluster ownership."""

    def __init__(
        self,
        cluster_map: ClusterMap,
        *,
        page_size: int = 4096,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.cluster_map = cluster_map
        self.page_size = page_size
        self._retry = retry if retry is not None else RetryPolicy()
        self._clients: dict[str, AsyncPageClient] = {}
        self._locks: dict[str, asyncio.Lock] = {}
        self._closed = False
        self.map_refreshes = 0
        self.rerouted = 0

    # ------------------------------------------------------------------
    # Construction / lifecycle
    # ------------------------------------------------------------------

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        page_size: int = 4096,
        retry: RetryPolicy | None = None,
    ) -> "RoutingClient":
        """Bootstrap from any one node: fetch its map, then route."""
        seed = await AsyncPageClient.connect(host, port, page_size=page_size)
        try:
            blob = await seed._request(Op.OWNERSHIP)
        except BaseException:
            await seed.close()
            raise
        cluster_map = ClusterMap.from_json(blob.decode("utf-8"))
        client = cls(cluster_map, page_size=page_size, retry=retry)
        # Keep the bootstrap connection if the seed is a cluster member.
        adopted = False
        for node_id, (node_host, node_port) in cluster_map.nodes.items():
            if (node_host, node_port) == (host, port):
                client._clients[node_id] = seed
                adopted = True
                break
        if not adopted:
            await seed.close()
        return client

    async def close(self) -> None:
        self._closed = True
        clients, self._clients = self._clients, {}
        for client in clients.values():
            try:
                await client.close()
            except Exception:  # noqa: BLE001 - close is best-effort
                pass

    # ------------------------------------------------------------------
    # Node plumbing
    # ------------------------------------------------------------------

    async def _node_client(self, node_id: str) -> AsyncPageClient:
        if self._closed:
            raise ConnectionLost("routing client is closed")
        lock = self._locks.setdefault(node_id, asyncio.Lock())
        async with lock:
            client = self._clients.get(node_id)
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
            self._clients[node_id] = client
            return client

    async def refresh_map(self) -> bool:
        """Re-fetch the ownership map from any reachable node.

        Adopts the received map when its epoch is newer than the one in
        hand and returns whether an adoption happened.  Every node
        answers ``OWNERSHIP`` on its event loop, so a refresh works even
        against a node whose admission plane is saturated.
        """
        for node_id in list(self.cluster_map.nodes):
            try:
                client = await self._node_client(node_id)
                blob = await client._request(Op.OWNERSHIP)
            except Exception:  # noqa: BLE001 - try the next node
                continue
            fetched = ClusterMap.from_json(blob.decode("utf-8"))
            self.map_refreshes += 1
            if fetched.epoch > self.cluster_map.epoch:
                stale = set(self.cluster_map.nodes) - set(fetched.nodes)
                self.cluster_map = fetched
                for gone in stale:
                    old = self._clients.pop(gone, None)
                    if old is not None:
                        try:
                            await old.close()
                        except Exception:  # noqa: BLE001
                            pass
                return True
            return False
        return False

    async def _routed(self, node_id: str, call):
        """Run ``call`` against ``node_id``'s client; retry on failure.

        Each retry refreshes the map first, so a node that moved is
        reached at its new address.
        """
        failure: Exception | None = None
        for attempt in range(self._retry.attempts):
            if attempt:
                await asyncio.sleep(self._retry.delay(attempt))
                try:
                    await self.refresh_map()
                except Exception:  # noqa: BLE001 - retry with the old map
                    pass
                self.rerouted += 1
            try:
                client = await self._node_client(node_id)
                return await call(client)
            except RetryAfter as exc:
                failure = exc
                await asyncio.sleep(max(exc.hint_ms, 1) / 1000.0)
            except (ConnectionLost, ConnectionError, OSError) as exc:
                failure = exc
        assert failure is not None
        raise failure

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    async def fetch(self, page_id: "PageId") -> "Page":
        return (await self.fetch_many([page_id]))[0]

    async def update(self, page: "Page") -> None:
        await self.update_many([page])

    async def fetch_many(self, page_ids: "list[PageId]") -> "list[Page]":
        """Fetch a batch: one concurrent ``FETCH_MANY`` per node touched."""
        if not page_ids:
            return []
        groups: dict[str, list] = {}
        for pid in page_ids:
            groups.setdefault(self.cluster_map.owner(pid), []).append(pid)
        by_pid: dict = {}

        async def _one(node_id: str, ids: list) -> None:
            pages = await self._routed(
                node_id, lambda client: client.fetch_many(ids)
            )
            for pid, page in zip(ids, pages):
                by_pid[pid] = page

        await asyncio.gather(
            *(_one(node_id, ids) for node_id, ids in groups.items())
        )
        return [by_pid[pid] for pid in page_ids]

    async def update_many(self, pages: "list[Page]") -> None:
        """Install a batch: one concurrent ``UPDATE_MANY`` per owner."""
        if not pages:
            return
        groups: dict[str, list] = {}
        for page in pages:
            owner = self.cluster_map.owner(page.page_id)
            groups.setdefault(owner, []).append(page)

        async def _one(node_id: str, batch: list) -> None:
            await self._routed(
                node_id, lambda client: client.update_many(batch)
            )

        await asyncio.gather(
            *(_one(node_id, batch) for node_id, batch in groups.items())
        )

    async def stats(self, node_id: str | None = None) -> dict:
        if node_id is None:
            node_id = self.cluster_map.data_nodes[0]
        client = await self._node_client(node_id)
        return await client.stats()

    async def stats_all(self) -> dict[str, dict]:
        """STATS from every node, keyed by id."""
        out: dict[str, dict] = {}
        for node_id in sorted(self.cluster_map.nodes):
            client = await self._node_client(node_id)
            out[node_id] = await client.stats()
        return out


class ClusterClient(_LoopThreadClient):
    """Synchronous cluster client (event loop on a daemon thread)."""

    THREAD_NAME = "cluster-client-loop"

    def __init__(
        self,
        host: str,
        port: int,
        *,
        page_size: int = 4096,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            lambda: RoutingClient.connect(
                host, port, page_size=page_size, retry=retry
            ),
            timeout,
        )

    @property
    def cluster_map(self) -> ClusterMap:
        return self._client.cluster_map

    def refresh_map(self) -> bool:
        return self._call(self._client.refresh_map())

    def stats(self, node_id: str | None = None) -> dict:
        return self._call(self._client.stats(node_id))

    def stats_all(self) -> dict[str, dict]:
        return self._call(self._client.stats_all())

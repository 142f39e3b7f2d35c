"""Tests for the cluster clients and the transport failure contract.

Two layers are pinned down here.  The transport layer
(:class:`AsyncPageClient` / :class:`PageClient`): when a pipelined
connection dies, *every* in-flight future must fail with the same typed
:class:`ConnectionLost` — no request may hang — and the synchronous
client must transparently reconnect through its
:class:`~repro.storage.retry.RetryPolicy` and replay.  The routing
layer (:class:`RoutingClient` / :class:`ClusterClient`): singles go to
the page's owner and batches fan out one request per owner touched.
"""

from __future__ import annotations

import asyncio
import struct

import pytest

from repro.api import BufferSystem, ClusterSystem
from repro.client import (
    AsyncPageClient,
    ConnectionLost,
    PageClient,
)
from repro.server import ServerThread
from repro.storage import DelayedDisk, seed_page
from repro.storage.serialization import encode_page
from repro.storage.retry import RetryPolicy

PAGE_SIZE = 512


def seeded_system(pages: int = 32, capacity: int = 8) -> BufferSystem:
    system = BufferSystem.build(
        policy="LRU", capacity=capacity, page_size=PAGE_SIZE
    )
    for page_id in range(pages):
        system.disk.store(seed_page(page_id))
    return system


class TestFailAllPending:
    def test_server_hangup_fails_every_pipelined_request(self):
        system = seeded_system()
        # Slow reads keep several requests in flight on one connection.
        system.buffer.disk = DelayedDisk(system.disk, 0.2)

        async def scenario(host: str, port: int) -> None:
            client = await AsyncPageClient.connect(
                host, port, page_size=PAGE_SIZE
            )
            try:
                fetches = [
                    asyncio.ensure_future(client.fetch(pid))
                    for pid in range(4)
                ]
                await asyncio.sleep(0.05)
                # An oversized length prefix makes the server hang up on
                # this connection with four responses still owed.
                client._writer.write(struct.pack("<I", 1 << 31))
                results = await asyncio.gather(
                    *fetches, return_exceptions=True
                )
                assert len(results) == 4
                assert all(
                    isinstance(result, ConnectionLost) for result in results
                )
                # The client is latched dead: later requests fail fast
                # instead of writing into a broken pipe.
                with pytest.raises(ConnectionLost):
                    await client.fetch(9)
            finally:
                await client.close()

        with ServerThread(system, page_size=PAGE_SIZE) as server:
            asyncio.run(scenario(server.host, server.port))
            # The server survives the malformed frame and the next
            # connection works.
            with PageClient(
                server.host, server.port, page_size=PAGE_SIZE
            ) as ok:
                assert ok.fetch(5).page_id == 5


class TestPageClientReconnect:
    def test_reconnects_and_replays_after_a_dead_transport(self):
        system = seeded_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            with PageClient(
                server.host,
                server.port,
                page_size=PAGE_SIZE,
                retry=RetryPolicy(attempts=3, base_delay_s=0.001),
            ) as client:
                assert client.fetch(1).page_id == 1
                first = client._client
                # Kill the transport under the client: the next call sees
                # ConnectionLost inside, reconnects, and replays.
                client._loop.call_soon_threadsafe(
                    first._writer.transport.abort
                )
                assert client.fetch(2).page_id == 2
                assert client._client is not first

    def test_exhausted_retries_surface_connection_lost(self):
        system = seeded_system()
        server = ServerThread(system, page_size=PAGE_SIZE)
        server.start()
        client = PageClient(
            server.host,
            server.port,
            page_size=PAGE_SIZE,
            retry=RetryPolicy(attempts=2, base_delay_s=0.001),
        )
        try:
            assert client.fetch(1).page_id == 1
            server.stop()
            with pytest.raises(ConnectionLost):
                client.fetch(2)
        finally:
            client.close()


def seeded_fleet(**kwargs) -> ClusterSystem:
    fleet = ClusterSystem.build(
        page_size=PAGE_SIZE, capacity=16, **kwargs
    )
    for page_id in range(64):
        fleet.disk.store(seed_page(page_id))
    return fleet


class TestRoutingClient:
    def test_bootstrap_adopts_the_fleet_map(self):
        with seeded_fleet(nodes=3) as fleet:
            with fleet.client() as client:
                cmap = client.cluster_map
                assert cmap.epoch == 0
                assert cmap.data_nodes == ("node-0", "node-1", "node-2")
                assert client.refresh_map() is False  # same epoch: no-op

    def test_singles_route_to_the_owner_without_forwarding(self):
        with seeded_fleet(nodes=3) as fleet:
            with fleet.client() as client:
                for page_id in range(48):
                    assert client.fetch(page_id).page_id == page_id
            stats = fleet.node_stats()
            assert all(
                node["node"]["forwards"] == 0 for node in stats.values()
            )
            # Every node served some of the keyspace directly.
            served = [
                node["server"]["op_counts"].get("FETCH_MANY", 0)
                for node in stats.values()
            ]
            assert all(count > 0 for count in served)
            assert sum(served) == 48

    def test_batches_fan_out_one_request_per_owner(self):
        with seeded_fleet(nodes=3) as fleet:
            page_ids = list(range(32))
            with fleet.client() as client:
                pages = client.fetch_many(page_ids)
                assert [page.page_id for page in pages] == page_ids
            stats = fleet.node_stats()
            batches = [
                node["server"]["op_counts"].get("FETCH_MANY", 0)
                for node in stats.values()
            ]
            # One FETCH_MANY per owner, never one per page.
            assert all(count == 1 for count in batches)
            assert all(
                node["server"]["op_counts"].get("FETCH", 0) == 0
                for node in stats.values()
            )

    def test_update_many_installs_at_the_owners(self):
        with seeded_fleet(nodes=3) as fleet:
            with fleet.client() as client:
                client.update_many(
                    [seed_page(pid, 1000 + pid) for pid in range(16)]
                )
                pages = client.fetch_many(list(range(16)))
                for pid, page in zip(range(16), pages):
                    expected = seed_page(pid, 1000 + pid)
                    assert (
                        page.entries[0].payload
                        == expected.entries[0].payload
                    )

    def test_a_relayed_batch_stays_packed(self):
        """Through one node without routing, so it relays two thirds of each
        batch: what comes back and what the owners install are images that
        own their bytes."""
        with seeded_fleet(nodes=3) as fleet:
            ids = list(range(24))
            with PageClient(*fleet.address(), page_size=PAGE_SIZE) as client:
                sent = [seed_page(pid, 500 + pid) for pid in ids]
                client.update_many(sent)
                relayed = client.fetch_many(ids)
            with fleet.client() as client:
                routed = client.fetch_many(ids)
            owners = {fleet.cluster_map.owner(pid) for pid in ids}
            assert owners == set(fleet.data_nodes)
            for page, other, source in zip(relayed, routed, sent):
                installed = fleet.systems[
                    fleet.cluster_map.owner(page.page_id)
                ].buffer.fetch(page.page_id)
                for packed in (page, other, installed):
                    assert type(packed.image()) is bytes
                    assert packed.image() == encode_page(source, PAGE_SIZE)

    def test_stats_all_covers_every_node(self):
        with seeded_fleet(nodes=2) as fleet:
            with fleet.client() as client:
                stats = client.stats_all()
            assert sorted(stats) == ["node-0", "node-1"]
            assert [stats[node]["node"]["node_id"] for node in sorted(stats)] == [
                "node-0",
                "node-1",
            ]

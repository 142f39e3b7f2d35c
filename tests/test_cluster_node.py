"""Unit tests for the cluster node (repro.cluster.node).

Covers the ``OWNERSHIP`` opcode on a live :class:`ClusterPageServer`, the
STATS ``node`` block, and the opcode bytes the wire protocol no longer
names: both servers answer them with ``ERROR/UNKNOWN_OP`` and keep
serving the connection.  The base :class:`PageServer` answers
``OWNERSHIP`` with ``ERROR/UNKNOWN_OP`` too — clients use that to tell a
plain node from a cluster node.  The owned slice of a mixed batch runs
on the thread a whole request would run on, asserted by thread name.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api import BufferSystem, ClusterSystem
from repro.client import AsyncPageClient, PageClient, ServerError
from repro.cluster import ClusterPageServer
from repro.cluster.ring import ClusterMap
from repro.server import ServerThread
from repro.server.protocol import ErrorCode, Op, pack_page_id
from repro.storage import seed_page
from repro.storage.disk import DelayedDisk, SimulatedDisk

PAGE_SIZE = 512


def seeded_system() -> BufferSystem:
    system = BufferSystem.build(
        policy="LRU", capacity=8, shards=1, page_size=PAGE_SIZE
    )
    for page_id in range(16):
        system.disk.store(seed_page(page_id))
    return system


def data_node_server() -> tuple[BufferSystem, ClusterPageServer]:
    system = seeded_system()
    cluster_map = ClusterMap.build(["node-0"])
    return system, ClusterPageServer(
        system, cluster_map, "node-0", page_size=PAGE_SIZE
    )


def loop_call(server_thread: ServerThread, coroutine_factory):
    async def scenario():
        client = await AsyncPageClient.connect(
            server_thread.host, server_thread.port, page_size=PAGE_SIZE
        )
        try:
            return await coroutine_factory(client)
        finally:
            await client.close()

    return asyncio.run(scenario())


class TestClusterOpcodes:
    def test_a_node_must_be_in_the_map(self):
        with pytest.raises(ValueError):
            ClusterPageServer(
                seeded_system(), ClusterMap.build(["node-0"]), "node-9"
            )

    def test_ownership_returns_the_shared_map(self):
        system, server = data_node_server()
        with ServerThread(server=server) as thread:
            body = loop_call(thread, lambda c: c._request(Op.OWNERSHIP))
            shipped = ClusterMap.from_json(body.decode("utf-8"))
            assert shipped.epoch == server.cluster_map.epoch
            assert shipped.data_nodes == ("node-0",)
            # The map ships the *bound* address filled in at start-up.
            assert shipped.address("node-0") == (thread.host, thread.port)

    def test_stats_reports_the_node_block(self):
        system, server = data_node_server()
        with ServerThread(server=server) as thread:
            stats = loop_call(thread, lambda c: c.stats())
            assert stats["node"] == {
                "node_id": "node-0",
                "epoch": 0,
                "owned_slots": server.cluster_map.slots,
                "forwards": 0,
                "forward_failures": 0,
            }

    def test_base_page_server_rejects_ownership(self):
        with ServerThread(seeded_system(), page_size=PAGE_SIZE) as thread:
            async def scenario(client):
                with pytest.raises(ServerError) as excinfo:
                    await client._request(Op.OWNERSHIP)
                assert (await client.fetch(1)).page_id == 1
                return excinfo.value.code

            assert loop_call(thread, scenario) == ErrorCode.UNKNOWN_OP

    @pytest.mark.parametrize("kind", ["page-server", "cluster-node"])
    @pytest.mark.parametrize("opcode", [1, 2, 10, 11, 12, 13])
    def test_retired_opcode_bytes_are_unknown(self, kind, opcode):
        """The bytes that once named the single-page FETCH and UPDATE, and
        REPLICATE, INVALIDATE, OFFER_FAR and FETCH_FAR, get ``UNKNOWN_OP``;
        the connection keeps serving."""
        if kind == "page-server":
            thread = ServerThread(seeded_system(), page_size=PAGE_SIZE)
        else:
            thread = ServerThread(server=data_node_server()[1])
        with thread:
            async def scenario(client):
                with pytest.raises(ServerError) as excinfo:
                    await client._request(opcode, pack_page_id(1))
                assert (await client.fetch(1)).page_id == 1
                return excinfo.value.code

            assert loop_call(thread, scenario) == ErrorCode.UNKNOWN_OP


class TestWhereOwnedSlicesRun:
    @pytest.mark.parametrize("medium", ["memory", "delayed"])
    def test_owned_slice_of_a_mixed_batch_runs_where_a_request_runs(
        self, medium, monkeypatch
    ):
        """A mixed batch's owned slice follows the whole-request rule: on
        the event loop over memory media, on the pool over a medium that
        may block."""
        disk = SimulatedDisk()
        for page_id in range(32):
            disk.store(seed_page(page_id))
        if medium == "delayed":
            disk = DelayedDisk(disk, 0.001)
        with ClusterSystem.build(
            nodes=3, capacity=16, page_size=PAGE_SIZE, disk=disk
        ) as fleet:
            server = fleet.servers["node-0"].server
            threads: list[tuple[str, str]] = []
            for name in ("_fetch_slots", "_install_slots"):
                work = getattr(server, name)

                def spy(slice_, _name=name, _work=work):
                    threads.append((_name, threading.current_thread().name))
                    return _work(slice_)

                monkeypatch.setattr(server, name, spy)
            owners = fleet.cluster_map.owner
            owned = [pid for pid in range(32) if owners(pid) == "node-0"][:3]
            foreign = [pid for pid in range(32) if owners(pid) != "node-0"][:3]
            batch = owned + foreign
            with PageClient(*fleet.address("node-0"), page_size=PAGE_SIZE) as client:
                pages = client.fetch_many(batch)
                assert [page.page_id for page in pages] == batch
                client.update_many(pages)

        assert [name for name, _ in threads] == ["_fetch_slots", "_install_slots"]
        for _, thread in threads:
            if medium == "memory":
                assert thread == "page-server-loop"
            else:
                assert thread.startswith("page-server_")

"""Unit tests for the cluster node building blocks (repro.cluster.node).

Covers the LSN-floor discipline of :class:`ReplicaStore` and
:class:`FarBuffer` (the invariant the zero-stale-read guarantee leans
on), the :class:`FarProbeDisk` miss-path wrapper, the
:class:`EvictOfferSink` supply side, the five cluster-plane opcodes on a
live :class:`ClusterPageServer`, and the STATS ``node`` block.  The base
:class:`PageServer` must answer every cluster opcode with
``ERROR/UNKNOWN_OP`` — clients use that to tell a plain node from a
cluster node.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import BufferSystem
from repro.client import AsyncPageClient, ServerError
from repro.cluster import (
    ClusterNodeConfig,
    ClusterPageServer,
    EvictOfferSink,
    FarBuffer,
    FarProbeDisk,
    ReplicaStore,
)
from repro.cluster.ring import ClusterMap
from repro.obs.events import BufferEvent
from repro.server import ServerThread
from repro.server.protocol import (
    CLUSTER_OPS,
    ErrorCode,
    Op,
    pack_page_lsn,
    pack_page_lsn_blob,
)
from repro.storage import seed_page
from repro.storage.disk import SimulatedDisk
from repro.storage.serialization import encode_page

PAGE_SIZE = 512


class TestReplicaStoreFloors:
    def test_put_then_get_round_trips(self):
        store = ReplicaStore()
        assert store.put(7, 3, b"v3")
        assert store.get(7) == (3, b"v3")
        assert len(store) == 1

    def test_invalidation_raises_a_floor_late_pushes_cannot_pass(self):
        store = ReplicaStore()
        store.invalidate(7, 5)
        assert not store.put(7, 4, b"stale")  # lost the race: below floor
        assert store.get(7) is None
        assert store.rejected_puts == 1

    def test_push_exactly_at_the_floor_is_the_new_version(self):
        # The invalidation's LSN is the one the owner stamped on the new
        # bytes; a push tagged exactly there must land, or written pages
        # would be permanently barred from the replica tier.
        store = ReplicaStore()
        store.invalidate(7, 5)
        assert store.put(7, 5, b"v5")
        assert store.get(7) == (5, b"v5")

    def test_invalidate_drops_older_keeps_current(self):
        store = ReplicaStore()
        store.put(7, 5, b"v5")
        assert not store.invalidate(7, 5)  # entry is already current
        assert store.get(7) == (5, b"v5")
        assert store.invalidate(7, 6)  # strictly newer: drop
        assert store.get(7) is None

    def test_put_never_regresses_an_entry(self):
        store = ReplicaStore()
        store.put(7, 5, b"v5")
        assert not store.put(7, 4, b"v4")
        assert not store.put(7, 5, b"again")
        assert store.get(7) == (5, b"v5")


class TestFarBuffer:
    def test_capacity_bound_evicts_least_recently_touched(self):
        far = FarBuffer(capacity=2)
        far.put(1, 1, b"a")
        far.put(2, 1, b"b")
        assert far.get_exact(1, 1) == b"a"  # touch 1: now 2 is coldest
        far.put(3, 1, b"c")
        assert far.evictions == 1
        assert far.get_exact(2, 1) is None
        assert far.get_exact(1, 1) == b"a"
        assert far.get_exact(3, 1) == b"c"

    def test_fetch_is_exact_lsn_only(self):
        far = FarBuffer(capacity=4)
        far.put(9, 3, b"v3")
        assert far.get_exact(9, 2) is None  # stale ask
        assert far.get_exact(9, 4) is None  # future ask
        assert far.get_exact(9, 3) == b"v3"
        assert (far.hits, far.misses) == (1, 2)

    def test_floor_discipline_is_inherited(self):
        far = FarBuffer(capacity=4)
        far.invalidate(9, 5)
        assert not far.put(9, 4, b"stale")
        assert far.put(9, 5, b"fresh")
        assert far.get_exact(9, 5) == b"fresh"

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError):
            FarBuffer(capacity=0)


class TestFarProbeDisk:
    def seed_disk(self) -> SimulatedDisk:
        disk = SimulatedDisk()
        disk.store(seed_page(1, 11))
        return disk

    def test_unbound_probe_reads_through(self):
        disk = self.seed_disk()
        wrapped = FarProbeDisk(disk)
        assert wrapped.read(1).page_id == 1
        assert wrapped.stats is disk.stats  # attribute proxying

    def test_probe_hit_skips_the_disk(self):
        disk = self.seed_disk()
        wrapped = FarProbeDisk(disk)
        far_page = seed_page(1, 99)
        blob = encode_page(far_page, PAGE_SIZE)
        wrapped.bind_probe(lambda page_id: blob if page_id == 1 else None)
        reads_before = disk.stats.reads
        page = wrapped.read(1)
        assert disk.stats.reads == reads_before
        assert page.entries[0].payload == far_page.entries[0].payload

    def test_probe_miss_and_unbind_fall_through(self):
        disk = self.seed_disk()
        wrapped = FarProbeDisk(disk)
        wrapped.bind_probe(lambda page_id: None)
        assert wrapped.read(1).page_id == 1
        wrapped.unbind_probe()
        assert wrapped.read(1).page_id == 1


class TestEvictOfferSink:
    def evict(self, page_id: int, dirty: bool) -> BufferEvent:
        return BufferEvent(kind="evict", clock=1, page_id=page_id, dirty=dirty)

    def test_captures_clean_evictions_only(self):
        sink = EvictOfferSink()
        sink.emit(self.evict(1, dirty=False))
        sink.emit(self.evict(2, dirty=True))
        sink.emit(BufferEvent(kind="miss", clock=3, page_id=3))
        assert sink.drain() == [1]

    def test_drain_respects_the_limit_and_preserves_order(self):
        sink = EvictOfferSink()
        for page_id in range(5):
            sink.emit(self.evict(page_id, dirty=False))
        assert sink.drain(limit=3) == [0, 1, 2]
        assert sink.drain() == [3, 4]
        assert sink.drain() == []

    def test_forwards_everything_to_the_inner_sink(self):
        class Recorder:
            def __init__(self):
                self.events = []

            def emit(self, event):
                self.events.append(event)

        inner = Recorder()
        sink = EvictOfferSink(inner)
        sink.emit(self.evict(1, dirty=False))
        sink.emit(self.evict(2, dirty=True))
        assert [event.page_id for event in inner.events] == [1, 2]


def far_node_server() -> tuple[BufferSystem, ClusterPageServer]:
    """A running far node ("far") in a 1-data-node map."""
    cluster_map = ClusterMap.build(["node-0"], far_node="far")
    system = BufferSystem.build(
        policy="LRU", capacity=8, shards=1, page_size=PAGE_SIZE
    )
    config = ClusterNodeConfig(
        node_id="far", cluster_map=cluster_map, far_capacity=16
    )
    return system, ClusterPageServer(system, config, page_size=PAGE_SIZE)


def data_node_server() -> tuple[BufferSystem, ClusterPageServer]:
    cluster_map = ClusterMap.build(["node-0"])
    system = BufferSystem.build(
        policy="LRU", capacity=8, shards=1, page_size=PAGE_SIZE
    )
    for page_id in range(16):
        system.disk.store(seed_page(page_id))
    config = ClusterNodeConfig(node_id="node-0", cluster_map=cluster_map)
    return system, ClusterPageServer(system, config, page_size=PAGE_SIZE)


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
    def test_ownership_returns_the_shared_map(self):
        system, server = data_node_server()
        with ServerThread(server=server) as thread:
            body = loop_call(thread, lambda c: c._request(Op.OWNERSHIP))
            shipped = ClusterMap.from_json(body.decode("utf-8"))
            assert shipped.epoch == server.cluster_map.epoch
            assert shipped.data_nodes == ("node-0",)
            # The map ships the *bound* address filled in at start-up.
            assert shipped.address("node-0") == (thread.host, thread.port)

    def test_replicate_and_invalidate_drive_the_replica_store(self):
        system, server = data_node_server()
        with ServerThread(server=server) as thread:
            async def scenario(client):
                await client._request(
                    Op.REPLICATE, pack_page_lsn_blob(5, 2, b"bytes")
                )
                await client._request(Op.INVALIDATE, pack_page_lsn(5, 3))

            loop_call(thread, scenario)
            assert server.replica_store.get(5) is None
            assert server.replica_store.invalidations == 1

    def test_offer_then_fetch_far_round_trips_at_the_exact_lsn(self):
        system, server = far_node_server()
        with ServerThread(server=server) as thread:
            async def scenario(client):
                await client._request(
                    Op.OFFER_FAR, pack_page_lsn_blob(3, 7, b"payload")
                )
                hit = await client._request(Op.FETCH_FAR, pack_page_lsn(3, 7))
                with pytest.raises(ServerError) as excinfo:
                    await client._request(Op.FETCH_FAR, pack_page_lsn(3, 6))
                return hit, excinfo.value.code

            hit, miss_code = loop_call(thread, scenario)
            assert hit == b"payload"
            assert miss_code == ErrorCode.NOT_FOUND

    def test_far_opcodes_on_a_data_node_are_unknown(self):
        system, server = data_node_server()
        with ServerThread(server=server) as thread:
            async def scenario(client):
                with pytest.raises(ServerError) as excinfo:
                    await client._request(
                        Op.OFFER_FAR, pack_page_lsn_blob(3, 7, b"x")
                    )
                return excinfo.value.code

            assert loop_call(thread, scenario) == ErrorCode.UNKNOWN_OP

    def test_stats_reports_the_node_block(self):
        system, server = data_node_server()
        with ServerThread(server=server) as thread:
            stats = loop_call(thread, lambda c: c.stats())
            node = stats["node"]
            assert node["node_id"] == "node-0"
            assert node["epoch"] == 0
            assert node["owned_slots"] == server.cluster_map.slots
            assert node["is_far_node"] is False

    def test_base_page_server_rejects_every_cluster_opcode(self):
        system = BufferSystem.build(
            policy="LRU", capacity=8, page_size=PAGE_SIZE
        )
        system.disk.store(seed_page(1))
        with ServerThread(system, page_size=PAGE_SIZE) as thread:
            async def scenario(client):
                codes = []
                for operation in sorted(CLUSTER_OPS):
                    payload = (
                        pack_page_lsn_blob(1, 1, b"x")
                        if operation in (Op.REPLICATE, Op.OFFER_FAR)
                        else pack_page_lsn(1, 1)
                    )
                    if operation is Op.OWNERSHIP:
                        payload = b""
                    with pytest.raises(ServerError) as excinfo:
                        await client._request(operation, payload)
                    codes.append(excinfo.value.code)
                # The connection survives all five rejections.
                assert (await client.fetch(1)).page_id == 1
                return codes

            codes = loop_call(thread, scenario)
            assert codes == [ErrorCode.UNKNOWN_OP] * len(CLUSTER_OPS)

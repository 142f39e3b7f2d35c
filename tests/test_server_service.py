"""Failure-path tests for the page service.

The happy path is covered by the smoke test; these tests pin down the
behaviours the issue tracker cares about when things go wrong: malformed
frames, clients vanishing mid-request, execution timeouts, admission
overflow, and the drain-on-shutdown durability guarantee.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import socket
import struct
import threading
import time
from collections import Counter
from dataclasses import asdict
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import BufferSystem
from repro.client import (
    AsyncPageClient,
    ConnectionLost,
    PageClient,
    RetryAfter,
    ServerError,
)
from repro.geometry.rect import Rect
from repro.server import PageServer, ServerThread
from repro.server import core as server_core
from repro.server.protocol import (
    ErrorCode,
    Op,
    RetryReason,
    Status,
    decode_head,
    encode_request,
    encode_response,
    pack_page_ids,
    pack_update_batch,
    read_frame,
)
from repro.storage import DelayedDisk, seed_page, serialization
from repro.storage.disk import SimulatedDisk, TransientDiskError
from repro.storage.page import Page, PageEntry, PageType
from repro.wal.bytestore import FileByteStore, MemoryByteStore
from repro.wal.durable import DurableDisk
from repro.wal.log import WriteAheadLog
from repro.wal.manager import DurabilityManager
from repro.wal.recovery import replay_durable_prefix
from tests.test_storage_serialization import damaged_slots, outcome

PAGE_SIZE = 512


def durable_system(pages: int = 32, capacity: int = 8) -> BufferSystem:
    system = BufferSystem.build(
        policy="LRU", capacity=capacity, durability=True, page_size=PAGE_SIZE
    )
    for page_id in range(pages):
        system.disk.store(seed_page(page_id))
    return system


class TestMalformedFrames:
    def test_oversized_length_prefix_closes_the_connection(self):
        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            with socket.create_connection((server.host, server.port)) as raw:
                raw.sendall(struct.pack("<I", 1 << 31))
                raw.settimeout(5.0)
                assert raw.recv(1) == b""  # server hung up
            # The server survives and serves the next client.
            with PageClient(server.host, server.port, page_size=PAGE_SIZE) as ok:
                assert ok.fetch(1).page_id == 1
            assert server.server.protocol_errors >= 1

    def test_truncated_frame_closes_the_connection(self):
        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            with socket.create_connection((server.host, server.port)) as raw:
                frame = encode_request(Op.FETCH_MANY, 1, pack_page_ids([1]))
                raw.sendall(frame[:-3])  # vanish mid-frame
            time.sleep(0.1)
            with PageClient(server.host, server.port, page_size=PAGE_SIZE) as ok:
                assert ok.fetch(2).page_id == 2
            assert server.server.protocol_errors >= 1

    def test_garbage_payload_is_an_error_not_a_hangup(self):
        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            async def scenario() -> None:
                client = await AsyncPageClient.connect(
                    server.host, server.port, page_size=PAGE_SIZE
                )
                try:
                    # FETCH_MANY with a short payload: request-level error,
                    # the connection stays usable for the next request.
                    with pytest.raises(ServerError):
                        await client._request(Op.FETCH_MANY, b"\x01")
                    page = await client.fetch(3)
                    assert page.page_id == 3
                finally:
                    await client.close()

            asyncio.run(scenario())

    def test_unknown_opcode_is_an_error_not_a_hangup(self):
        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            async def scenario() -> None:
                client = await AsyncPageClient.connect(
                    server.host, server.port, page_size=PAGE_SIZE
                )
                try:
                    with pytest.raises(ServerError) as excinfo:
                        await client._request(99, b"")
                    assert excinfo.value.code == ErrorCode.UNKNOWN_OP
                    assert (await client.fetch(4)).page_id == 4
                finally:
                    await client.close()

            asyncio.run(scenario())


class TestClientDisconnect:
    def test_disconnect_mid_request_does_not_kill_the_server(self):
        system = durable_system()
        # Slow reads keep the dropped client's request in flight while the
        # connection dies underneath it.
        system.buffer.disk = DelayedDisk(system.disk, 0.05)
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            with socket.create_connection((server.host, server.port)) as raw:
                raw.sendall(encode_request(Op.FETCH_MANY, 1, pack_page_ids([20])))
                # Hard close with the response still pending.
            time.sleep(0.3)
            with PageClient(server.host, server.port, page_size=PAGE_SIZE) as ok:
                assert ok.fetch(21).page_id == 21
            # The in-flight slot was released despite the lost client.
            assert server.server.admission.inflight == 0

    def test_pending_client_requests_fail_with_connection_lost(self):
        system = durable_system()
        system.buffer.disk = DelayedDisk(system.disk, 0.2)

        async def scenario(host: str, port: int) -> None:
            client = await AsyncPageClient.connect(host, port, page_size=PAGE_SIZE)
            fetch = asyncio.ensure_future(client.fetch(22))
            await asyncio.sleep(0.05)
            await client.close()
            with pytest.raises(ConnectionLost):
                await fetch

        with ServerThread(system, page_size=PAGE_SIZE) as server:
            asyncio.run(scenario(server.host, server.port))


class TestRequestTimeout:
    def test_slow_request_fails_with_timeout(self):
        system = durable_system()
        system.buffer.disk = DelayedDisk(system.disk, 0.5)
        with ServerThread(
            system, request_timeout=0.05, page_size=PAGE_SIZE
        ) as server:
            with PageClient(server.host, server.port, page_size=PAGE_SIZE) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.fetch(23)
                assert excinfo.value.code == ErrorCode.TIMEOUT
            # The stuck worker eventually finishes and returns its slot.
            deadline = time.time() + 5.0
            while server.server.admission.inflight and time.time() < deadline:
                time.sleep(0.02)
            assert server.server.admission.inflight == 0


class TestAdmissionOverflow:
    def test_overflow_answers_retry_after_queue_full(self):
        system = durable_system()
        system.buffer.disk = DelayedDisk(system.disk, 0.05)

        async def scenario(host: str, port: int) -> None:
            client = await AsyncPageClient.connect(host, port, page_size=PAGE_SIZE)
            try:
                results = await asyncio.gather(
                    *(client.fetch(page_id) for page_id in range(12)),
                    return_exceptions=True,
                )
            finally:
                await client.close()
            rejected = [r for r in results if isinstance(r, RetryAfter)]
            completed = [r for r in results if not isinstance(r, Exception)]
            assert rejected, "overload must answer RETRY_AFTER"
            assert all(
                r.reason == RetryReason.QUEUE_FULL and r.hint_ms > 0
                for r in rejected
            )
            assert completed, "the admitted requests still complete"

        with ServerThread(
            system, max_inflight=1, max_queued=1, page_size=PAGE_SIZE
        ) as server:
            asyncio.run(scenario(server.host, server.port))
            assert server.server.admission.rejected_queue_full > 0

    def test_per_client_quota_answers_retry_after(self):
        system = durable_system()
        system.buffer.disk = DelayedDisk(system.disk, 0.05)

        async def scenario(host: str, port: int) -> None:
            client = await AsyncPageClient.connect(host, port, page_size=PAGE_SIZE)
            try:
                results = await asyncio.gather(
                    *(client.fetch(page_id) for page_id in range(8)),
                    return_exceptions=True,
                )
            finally:
                await client.close()
            quota_hits = [
                r
                for r in results
                if isinstance(r, RetryAfter)
                and r.reason == RetryReason.CLIENT_QUOTA
            ]
            assert quota_hits

        with ServerThread(
            system,
            max_inflight=8,
            max_queued=8,
            per_client_limit=2,
            page_size=PAGE_SIZE,
        ) as server:
            asyncio.run(scenario(server.host, server.port))


class TestDrainOnShutdown:
    def test_drain_leaves_durable_medium_equal_to_committed_prefix(self):
        system = durable_system(pages=16, capacity=4)
        base_image = system.disk.image()
        server_thread = ServerThread(system, page_size=PAGE_SIZE)
        server_thread.start()
        try:
            with PageClient(
                server_thread.host, server_thread.port, page_size=PAGE_SIZE
            ) as client:
                for page_id in range(8):
                    client.update(
                        seed_page(page_id, 1000 + page_id)
                    )
                    if page_id % 3 == 2:
                        assert client.commit() > 0
        finally:
            server_thread.stop()  # graceful drain: checkpoint + log sync
        wal = WriteAheadLog(
            store=MemoryByteStore(system.durability.wal.store.image())
        )
        assert system.disk.image() == replay_durable_prefix(
            wal, base_image, page_size=PAGE_SIZE
        )

    def test_drain_rejects_new_requests_while_shutting_down(self):
        system = durable_system()

        async def scenario() -> None:
            server = PageServer(system, page_size=PAGE_SIZE)
            await server.start()
            client = await AsyncPageClient.connect(
                server.host, server.port, page_size=PAGE_SIZE
            )
            try:
                assert (await client.fetch(1)).page_id == 1
                server._draining = True
                with pytest.raises(RetryAfter) as excinfo:
                    await client.fetch(2)
                assert excinfo.value.reason == RetryReason.SHUTTING_DOWN
            finally:
                await client.close()
                server._draining = False
                await server.stop()

        asyncio.run(scenario())


class TestBatchOpcodes:
    """FETCH_MANY / UPDATE_MANY over a live server."""

    def test_fetch_many_matches_single_fetches(self):
        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            async def scenario() -> None:
                client = await AsyncPageClient.connect(
                    server.host, server.port, page_size=PAGE_SIZE
                )
                try:
                    ids = [3, 1, 3, 7, 0, 31]
                    batch = await client.fetch_many(ids)
                    singles = [await client.fetch(pid) for pid in ids]
                    assert [p.page_id for p in batch] == ids
                    assert [p.entries for p in batch] == [
                        p.entries for p in singles
                    ]
                finally:
                    await client.close()

            asyncio.run(scenario())

    def test_update_many_then_fetch_round_trip(self):
        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            async def scenario() -> None:
                client = await AsyncPageClient.connect(
                    server.host, server.port, page_size=PAGE_SIZE
                )
                try:
                    pages = [
                        seed_page(pid, pid * 100)
                        for pid in (40, 41, 42)
                    ]
                    await client.update_many(pages)
                    read_back = await client.fetch_many([40, 41, 42])
                    assert [p.entries for p in read_back] == [
                        p.entries for p in pages
                    ]
                finally:
                    await client.close()

            asyncio.run(scenario())

    def test_malformed_batches_are_errors_not_hangups(self):
        import random

        from repro.server.protocol import MAX_BATCH

        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            async def scenario() -> None:
                client = await AsyncPageClient.connect(
                    server.host, server.port, page_size=PAGE_SIZE
                )
                try:
                    hostile = [
                        b"",                                  # no count
                        struct.pack("<H", 0),                 # zero batch
                        struct.pack("<H", MAX_BATCH + 1),     # oversized count
                        struct.pack("<H", 3) + b"\x00" * 8,   # truncated ids
                        struct.pack("<H", 1) + b"\x00" * 9,   # trailing byte
                    ]
                    for op in (Op.FETCH_MANY, Op.UPDATE_MANY):
                        for payload in hostile:
                            with pytest.raises(ServerError) as excinfo:
                                await client._request(op, payload)
                            assert excinfo.value.code == ErrorCode.MALFORMED
                    # One connection absorbed every malformation and the
                    # stream is still perfectly aligned.
                    assert (await client.fetch(5)).page_id == 5
                finally:
                    await client.close()

            asyncio.run(scenario())

    def test_fuzzed_batch_frames_never_kill_the_connection(self):
        import random

        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            async def scenario() -> None:
                rng = random.Random(2002)
                client = await AsyncPageClient.connect(
                    server.host, server.port, page_size=PAGE_SIZE
                )
                try:
                    for index in range(60):
                        op = Op.FETCH_MANY if index % 2 else Op.UPDATE_MANY
                        payload = rng.randbytes(rng.randrange(0, 80))
                        try:
                            await client._request(op, payload)
                        except ServerError:
                            pass  # request-level rejection is the contract
                        # The connection survives every single frame.
                        assert (await client.fetch(index % 8)).page_id == index % 8
                finally:
                    await client.close()

            asyncio.run(scenario())


class TestCleanPagesStayPacked:
    """Work counts, no timing: a clean page goes from its slot to the wire
    as the same bytes, and the server builds its entry objects only when the
    policy ranks by them."""

    PAGES = 32

    @pytest.mark.parametrize("criterion", ["A", "M", "EA"])
    def test_entry_objects_are_built_only_for_entry_criteria(
        self, criterion, monkeypatch
    ):
        disk = DurableDisk(page_size=PAGE_SIZE)
        rng = random.Random(17)
        for page_id in range(self.PAGES):
            page = Page(page_id, PageType.DATA)
            for index in range(rng.randint(1, 9)):
                x, y = rng.random(), rng.random()
                page.entries.append(
                    PageEntry(Rect(x, y, x + rng.random(), y + rng.random()), payload=index)
                )
            disk.store(page)
        slots = {
            page_id: serialization.encode_page(disk.peek(page_id), PAGE_SIZE)
            for page_id in range(self.PAGES)
        }
        system = BufferSystem.build(
            policy="ASB",
            capacity=8,
            disk=disk,
            page_size=PAGE_SIZE,
            policy_kwargs={"criterion": criterion},
        )

        counts = Counter()

        def counted(name, call):
            def wrapper(*args):
                counts[name] += 1
                return call(*args)

            return wrapper

        def served(page, page_size):
            counts["served unpacked"] += page.image() is None
            return serialization.encode_page(page, page_size)

        monkeypatch.setattr(
            serialization.PageImage,
            "entries",
            counted("unpack", serialization.PageImage.entries),
        )
        monkeypatch.setattr(
            serialization,
            "_encode_entries",
            counted("full encode", serialization._encode_entries),
        )
        monkeypatch.setattr(server_core, "encode_page", served)

        async def scenario(server: ServerThread) -> None:
            client = await AsyncPageClient.connect(
                server.host, server.port, page_size=PAGE_SIZE
            )
            try:
                for _ in range(200):
                    ids = [rng.randrange(self.PAGES) for _ in range(4)]
                    reply = await client._request(Op.FETCH_MANY, pack_page_ids(ids))
                    assert reply == b"".join(slots[page_id] for page_id in ids)
                misses = system.buffer.stats.misses
                assert misses > 100
                if criterion in ("A", "M"):
                    assert not +counts  # unary plus drops the zero counts
                else:
                    # A page is unpacked once per version, when it is first
                    # ranked: the medium serves it again around the image
                    # that keeps its criterion.  One that has been unpacked
                    # is encoded from its entries.
                    assert 0 < counts["unpack"] <= self.PAGES
                    assert counts["full encode"] == counts["served unpacked"] > 0

                # What a client writes is installed packed too, and served
                # back as the bytes it sent: unpacked only to be ranked.
                page = serialization.decode_page(slots[5], 5)
                page.entries[0].payload = 777
                sent = serialization.encode_page(page, PAGE_SIZE)
                before = Counter(counts)
                await client._request(Op.UPDATE_MANY, pack_update_batch([(5, sent)]))
                reply = await client._request(Op.FETCH_MANY, pack_page_ids([5]))
                assert reply == sent != slots[5]
                fresh = counts - before  # installing may evict, hence rank
                assert fresh["full encode"] == fresh["served unpacked"]
                if criterion in ("A", "M"):
                    assert not fresh
            finally:
                await client.close()

        with ServerThread(system, page_size=PAGE_SIZE) as server:
            asyncio.run(scenario(server))


class TestVerifiedOncePerVersion:
    """Work counts, no timing: each receiving end runs ``read_page`` once per
    page version — the served DurableDisk however often the page is evicted
    and read again, the client however often it fetches the page again."""

    def test_each_page_version_is_verified_once(self, monkeypatch):
        verified = Counter()
        read_page = serialization.read_page

        def counted(blob, page_id):
            # PageClient runs its event loop on a thread of this name.
            client = threading.current_thread().name == "page-client-loop"
            verified["client" if client else "disk", page_id, bytes(blob)] += 1
            return read_page(blob, page_id)

        def ends() -> Counter:
            return Counter(end for end, _, _ in verified)

        monkeypatch.setattr(serialization, "read_page", counted)
        system = durable_system()
        rng = random.Random(29)
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            with PageClient(server.host, server.port, page_size=PAGE_SIZE) as client:
                for _ in range(150):
                    client.fetch_many([rng.randrange(32) for _ in range(4)])
                assert system.buffer.stats.misses > 100
                assert 16 < ends()["disk"] <= 32
                assert 16 < ends()["client"] <= 32
                assert max(verified.values()) == 1

                # Installed by UPDATE_MANY, written back, evicted, read
                # again: the write-back kept the bytes it was installed as.
                sent = [seed_page(3, 333), seed_page(4, 444)]
                client.update_many(sent)
                client.commit()
                system.buffer.flush()
                for page_id in range(32):
                    client.fetch(page_id)
                assert not system.buffer.contains(3)
                assert not system.buffer.contains(4)
                blobs = [serialization.encode_page(page, PAGE_SIZE) for page in sent]
                assert [page.image() for page in client.fetch_many([3, 4])] == blobs
                assert max(verified.values()) == 1
                assert ("disk", 3, blobs[0]) not in verified
                assert ("disk", 4, blobs[1]) not in verified
                assert verified["client", 3, blobs[0]] == 1

                # Another connection rewrites a page: this one's next
                # fetches return the new bytes and verify them once.
                with PageClient(server.host, server.port, page_size=PAGE_SIZE) as other:
                    other.update_many([seed_page(5, 555)])
                    other.commit()
                new = serialization.encode_page(seed_page(5, 555), PAGE_SIZE)
                assert client.fetch(5).image() == new
                assert client.fetch_many([5, 6])[0].image() == new
                assert verified["client", 5, new] == 1
                assert max(verified.values()) == 1


class TestMalformedReplies:
    """A reply the client cannot parse breaks the protocol: every pending
    request fails with ConnectionLost and the client latches dead, never a
    request left waiting forever."""

    @pytest.mark.parametrize(
        "status", [Status.ERROR, Status.RETRY_AFTER], ids=["ERROR", "RETRY_AFTER"]
    )
    def test_a_short_payload_fails_every_pending_request(self, status):
        async def serve(reader, writer) -> None:
            frames = [await read_frame(reader) for _ in range(2)]
            _, request_id, _ = decode_head(frames[0])
            writer.write(encode_response(status, request_id, b""))
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()
            await writer.wait_closed()

        async def scenario() -> None:
            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = await AsyncPageClient.connect("127.0.0.1", port, page_size=PAGE_SIZE)
            try:
                fetches = [asyncio.ensure_future(client.fetch(pid)) for pid in (1, 2)]
                results = await asyncio.wait_for(
                    asyncio.gather(*fetches, return_exceptions=True), 2.0
                )
                assert [type(result) for result in results] == [ConnectionLost] * 2
                with pytest.raises(ConnectionLost):
                    await client.fetch(3)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestPackedEndToEnd:
    """A page crosses client, server, log and medium as the verified bytes
    it arrived as; whoever reads ``entries`` unpacks it, nobody else."""

    @pytest.fixture(scope="class")
    def wire(self):
        """One served DurableDisk + WAL system and a sync client to it."""
        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            with PageClient(server.host, server.port, page_size=PAGE_SIZE) as client:
                yield system, client

    @staticmethod
    def raw(client: PageClient, op: Op, payload: bytes) -> bytes:
        return client._call(client._client._request(op, payload))

    @staticmethod
    def installed(system: BufferSystem) -> tuple:
        """Everything an install changes."""
        frames = {
            frame.page.page_id: serialization.encode_page(frame.page, PAGE_SIZE)
            for frame in system.buffer.evictable_frames()
        }
        return frames, asdict(system.durability.wal.stats), system.disk.stats.writes

    def test_relayed_pages_build_no_entry_objects(self, monkeypatch):
        """Work counts, no timing."""
        built = []
        entries = serialization._entries

        def counted(blob, count):
            built.append(count)
            return entries(blob, count)

        monkeypatch.setattr(serialization, "_entries", counted)
        system = durable_system()
        with ServerThread(system, page_size=PAGE_SIZE) as server:
            with PageClient(server.host, server.port, page_size=PAGE_SIZE) as client:
                ids = list(range(16))
                pages = client.fetch_many(ids) + [client.fetch(20)]
                for page in pages:
                    assert type(page.image()) is bytes
                    assert len(page.image()) == PAGE_SIZE
                client.update_many(pages)  # their entries were never read
                client.commit()
                system.buffer.flush()
                resident = system.buffer.fetch(20)  # an UPDATE_MANY item
                assert type(resident.image()) is bytes
                assert resident.image() == pages[-1].image()
                assert system.durability.wal.stats.appends >= len(pages)
                assert system.disk.stats.writes >= len(pages)
                assert built == []

                assert len(pages[3].entries) == len(pages[3]) == 1
                assert built == [1]  # that page's, nobody else's

                # An edited page needs no mark_dirty on the client: reading
                # its entries dropped the image, so the edit is what is sent.
                pages[3].entries[0].payload = 4242
                assert pages[3].image() is None
                client.update(pages[3])
                served = self.raw(client, Op.FETCH_MANY, pack_page_ids([3]))
                assert served == serialization.encode_page(seed_page(3, 4242), PAGE_SIZE)
                assert built == [1]

    def test_only_canonical_slots_are_served_on(self, wire):
        _, client = wire
        sent = bytearray(serialization.encode_page(seed_page(9, 5), PAGE_SIZE))
        sent[-1] = sent[8 + 48] = 0xAB  # after the one entry
        sent = bytes(sent)
        canonical = serialization.encode_page(
            serialization.decode_page(sent, 9), PAGE_SIZE
        )
        assert canonical != sent
        self.raw(client, Op.UPDATE_MANY, pack_update_batch([(9, sent)]))
        assert self.raw(client, Op.FETCH_MANY, pack_page_ids([9])) == canonical
        self.raw(client, Op.UPDATE_MANY, pack_update_batch([(10, sent)]))
        assert self.raw(client, Op.FETCH_MANY, pack_page_ids([10, 9])) == 2 * canonical

    @given(damaged_slots(), st.integers(0, 2))
    def test_damaged_updates_are_refused_whole(self, wire, damaged, position):
        """Error parity with ``decode_page``, and all-or-error."""
        system, client = wire
        good = serialization.encode_page(seed_page(0, 31), PAGE_SIZE)
        batch = [(11, good), (12, good)]
        batch.insert(position, (7, damaged))
        requests = [
            (Op.UPDATE_MANY, pack_update_batch([(7, damaged)])),
            (Op.UPDATE_MANY, pack_update_batch(batch)),
        ]
        try:
            eager = serialization.decode_page(damaged, 7)
        except ValueError as exc:
            before = self.installed(system)
            for op, payload in requests:
                with pytest.raises(ServerError) as raised:
                    self.raw(client, op, payload)
                assert raised.value.code == ErrorCode.MALFORMED
                assert str(raised.value) == str(exc)
            assert self.installed(system) == before
        else:
            for op, payload in requests:
                self.raw(client, op, payload)
                served = self.raw(client, Op.FETCH_MANY, pack_page_ids([7]))
                assert len(served) == PAGE_SIZE
                assert repr(serialization.decode_page(served, 7)) == repr(eager)
        assert client.fetch(1).page_id == 1  # the connection survived

    @given(damaged_slots())
    def test_a_damaged_reply_raises_what_decode_page_raises(self, wire, damaged):
        _, client = wire
        expected = outcome(serialization.decode_page, damaged, 7)
        with mock.patch.object(server_core, "encode_page", lambda *_: damaged):
            assert outcome(client.fetch, 7) == expected
            if len(damaged) == PAGE_SIZE:  # a batch reply is whole slots
                assert outcome(lambda: client.fetch_many([7])[0]) == expected


class _BareStore:
    """A byte store that does not say whether it may block."""

    def __init__(self) -> None:
        self._inner = MemoryByteStore()
        self.read_at = self._inner.read_at
        self.write_at = self._inner.write_at
        self.size = self._inner.size
        self.sync = self._inner.sync
        self.image = self._inner.image


def _seeded(disk, durability=None) -> BufferSystem:
    system = BufferSystem.build(
        policy="LRU", capacity=8, disk=disk, durability=durability, page_size=PAGE_SIZE
    )
    for page_id in range(32):
        system.disk.store(seed_page(page_id))
    return system


def _delayed_reads() -> BufferSystem:
    system = durable_system()
    system.buffer.disk = DelayedDisk(system.disk, 0.01)
    return system


def _file_wal(tmp_path, closing: contextlib.ExitStack) -> BufferSystem:
    disk = DurableDisk(page_size=PAGE_SIZE)
    wal = WriteAheadLog(closing.enter_context(FileByteStore(tmp_path / "wal.bin")))
    return _seeded(disk, DurabilityManager(disk, wal))


class TestWhereRequestsRun:
    """Thread identity, no timing: an admitted request runs on the event
    loop when none of the media it can touch may block, and on a
    ``page-server`` pool thread otherwise."""

    OPS = ("FETCH_MANY", "UPDATE_MANY", "COMMIT", "PIN", "UNPIN")

    SYSTEMS = {
        "simulated-disk": lambda *_: _seeded(SimulatedDisk()),
        "memory-durable": lambda *_: durable_system(),
        "delayed-read-disk": lambda *_: _delayed_reads(),
        "store-without-attribute": lambda *_: _seeded(
            DurableDisk(_BareStore(), page_size=PAGE_SIZE), durability=True
        ),
        "file-wal-memory-pages": _file_wal,
    }

    @staticmethod
    async def each_op(client: AsyncPageClient) -> None:
        await client.fetch(1)
        await client.fetch_many([2, 3])
        await client.update_many([seed_page(4, 44)])
        await client.commit()
        await client.pin(5)
        await client.unpin(5)

    @classmethod
    def serve(cls, system: BufferSystem, *between) -> list[dict[str, str]]:
        """Serve every op once per round, running ``between[i]`` after
        round ``i``; per round, where each op ran: "loop" or "pool"."""
        server = PageServer(system, page_size=PAGE_SIZE)
        run, seen = server._run_operation, {}

        def spy(operation, payload):
            seen[operation.name] = threading.current_thread()
            return run(operation, payload)

        server._run_operation = spy
        rounds = []

        def place(thread, loop_thread) -> str:
            if thread is loop_thread:
                return "loop"
            return "pool" if thread.name.startswith("page-server_") else thread.name

        async def scenario() -> None:
            await server.start()
            client = await AsyncPageClient.connect(
                server.host, server.port, page_size=PAGE_SIZE
            )
            try:
                for step in (*between, None):
                    seen.clear()
                    await cls.each_op(client)
                    loop_thread = threading.current_thread()
                    rounds.append({op: place(t, loop_thread) for op, t in seen.items()})
                    if step is not None:
                        step()
            finally:
                await client.close()
                await server.stop()

        asyncio.run(scenario())
        return rounds

    @pytest.mark.parametrize(
        "media, place",
        [
            ("simulated-disk", "loop"),
            ("memory-durable", "loop"),
            ("delayed-read-disk", "pool"),
            ("store-without-attribute", "pool"),
            ("file-wal-memory-pages", "pool"),
        ],
    )
    def test_each_op_runs_where_its_media_allow(self, media, place, tmp_path):
        with contextlib.ExitStack() as closing:
            system = self.SYSTEMS[media](tmp_path, closing)
            assert server_core._may_block(system) is (place == "pool")
            assert self.serve(system) == [dict.fromkeys(self.OPS, place)]

    def test_an_armed_transient_failure_keeps_the_pool_until_spent(self):
        """The write-back path retries a transient failure through
        RetryingDisk, which sleeps: while one is armed, the pool serves."""
        system = durable_system()
        system.disk.fail_transiently(9, "write")
        assert system.disk.may_block

        def spend() -> None:
            with pytest.raises(TransientDiskError):
                system.disk.write(seed_page(9))
            assert not system.disk.may_block

        assert self.serve(system, spend) == [
            dict.fromkeys(self.OPS, "pool"),
            dict.fromkeys(self.OPS, "loop"),
        ]


class _MeetingDisk:
    """A disk whose every read waits, up to 0.5 s, for a second reader.

    Two requests inside the buffer at once meet here and go on together;
    a lone reader breaks the barrier, and every later read goes straight
    through."""

    may_block = True

    def __init__(self, inner) -> None:
        self._inner = inner
        self._barrier = threading.Barrier(2, timeout=0.5)

    def read(self, page_id: int):
        with contextlib.suppress(threading.BrokenBarrierError):
            self._barrier.wait()
        return self._inner.read(page_id)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


class TestOneThreadPerSequentialManager:
    """Pooled requests over a sequential ``BufferManager`` run one at a
    time: its frames and ASB's state have no lock of their own."""

    CLIENTS, BATCHES, PAGES = 4, 20, 64

    def test_a_sequential_manager_is_entered_by_one_thread(self):
        system = BufferSystem.build(policy="ASB", capacity=8, page_size=PAGE_SIZE)
        for page_id in range(self.PAGES):
            system.disk.store(seed_page(page_id))
        system.buffer.disk = _MeetingDisk(system.disk)
        assert not system.is_concurrent and server_core._may_block(system)
        fetch, inside, most = system.buffer.fetch, [0], [0]
        count = threading.Lock()

        def counted(page_id):
            with count:
                inside[0] += 1
                most[0] = max(most[0], inside[0])
            try:
                return fetch(page_id)
            finally:
                with count:
                    inside[0] -= 1

        system.buffer.fetch = counted
        server = PageServer(system, page_size=PAGE_SIZE)
        rng = random.Random(5)
        batches = [
            [rng.sample(range(self.PAGES), 3) for _ in range(self.BATCHES)]
            for _ in range(self.CLIENTS)
        ]

        async def one_client(ids_per_batch):
            client = await AsyncPageClient.connect(
                server.host, server.port, page_size=PAGE_SIZE
            )
            try:
                return await asyncio.gather(
                    *(client.fetch_many(ids) for ids in ids_per_batch),
                    return_exceptions=True,
                )
            finally:
                await client.close()

        async def scenario():
            await server.start()
            try:
                return await asyncio.gather(*map(one_client, batches))
            finally:
                await server.stop()

        answers = asyncio.run(scenario())
        assert most[0] == 1
        failed = [
            reply
            for replies in answers
            for reply in replies
            if isinstance(reply, BaseException)
        ]
        assert failed == []
        for ids_per_batch, replies in zip(batches, answers):
            for ids, pages in zip(ids_per_batch, replies):
                assert [page.page_id for page in pages] == ids

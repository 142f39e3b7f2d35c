"""Tests for the durability seam: WAL invariant, flusher, checkpoints."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.manager import BufferManager
from repro.buffer.policies.fifo import FIFO
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.mru import MRU
from repro.geometry.rect import Rect
from repro.obs.events import TraceRecorder
from repro.storage.page import Page, PageEntry, PageType
from repro.storage.serialization import encode_page
from repro.wal.bytestore import MemoryByteStore
from repro.wal.durable import DurableDisk
from repro.wal.log import CHECKPOINT, COMMIT, FREE, PAGE_IMAGE, WriteAheadLog
from repro.wal.manager import DurabilityManager
from repro.wal.recovery import recover

PAGE_SIZE = 256


def make_page(page_id: int, payload: int = 0) -> Page:
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(
        PageEntry(mbr=Rect(0.0, 0.0, 1.0, 1.0), payload=payload)
    )
    return page


class PowerLossStore:
    """A medium whose writes stay in a volatile cache until ``sync``; a
    power loss keeps only the synced bytes."""

    def __init__(self) -> None:
        self._view = MemoryByteStore()
        self._synced = MemoryByteStore()
        self._pending: list[tuple[int, bytes]] = []

    def read_at(self, offset: int, length: int) -> bytes:
        return self._view.read_at(offset, length)

    def write_at(self, offset: int, data: bytes) -> None:
        self._view.write_at(offset, data)
        self._pending.append((offset, bytes(data)))

    def size(self) -> int:
        return self._view.size()

    def sync(self) -> None:
        for offset, data in self._pending:
            self._synced.write_at(offset, data)
        self._pending.clear()

    def image(self) -> bytes:
        return self._view.image()

    def after_power_loss(self) -> MemoryByteStore:
        return MemoryByteStore(self._synced.image())


def make_rig(capacity=4, policy=None, **durability_kwargs):
    disk = DurableDisk(page_size=PAGE_SIZE)
    for page_id in range(12):
        disk.store(make_page(page_id, payload=page_id))
    durability = DurabilityManager(disk, **durability_kwargs)
    buffer = BufferManager(
        disk, capacity, policy or LRU(), durability=durability
    )
    return disk, durability, buffer


class TestWalInvariant:
    def test_update_logs_a_page_image(self):
        _, durability, buffer = make_rig()
        buffer.fetch(0)
        buffer.mark_dirty(0)
        assert durability.page_lsn[0] == 1
        assert durability.wal.stats.appends == 1

    def test_eviction_forces_log_durable_first(self):
        disk, durability, buffer = make_rig(capacity=2)
        buffer.fetch(0)
        buffer.mark_dirty(0)
        lsn = durability.page_lsn[0]
        assert durability.wal.flushed_lsn < lsn
        buffer.fetch(1)
        buffer.fetch(2)  # evicts page 0, the LRU victim
        assert durability.wal.flushed_lsn >= lsn
        assert disk.peek(0) is not None

    def test_flush_enforces_invariant_too(self):
        _, durability, buffer = make_rig()
        buffer.fetch(3)
        buffer.mark_dirty(3)
        buffer.flush()
        assert durability.wal.flushed_lsn >= durability.page_lsn[3]

    def test_install_is_logged(self):
        _, durability, buffer = make_rig()
        buffer.install(make_page(20, payload=7))
        durability.sync()
        wal_records = list(durability.wal.records())
        assert [(r.kind, r.page_id) for r in wal_records] == [(PAGE_IMAGE, 20)]

    def test_clean_run_without_durability_is_unchanged(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        for page_id in range(4):
            disk.store(make_page(page_id))
        buffer = BufferManager(disk, 2, LRU())
        assert buffer.durability is None
        for page_id in (0, 1, 2, 3):
            buffer.fetch(page_id)
        assert buffer.stats.misses == 4


class TestFreePage:
    def test_free_page_logs_before_deleting(self):
        disk, durability, buffer = make_rig()
        buffer.fetch(5)
        buffer.mark_dirty(5)
        durability.free_page(buffer, 5)
        assert 5 not in disk
        assert not buffer.contains(5)
        kinds = [(r.kind, r.page_id) for r in durability.wal.records()]
        assert (FREE, 5) in kinds
        assert 5 not in durability.page_lsn

    def test_free_non_resident_page(self):
        disk, durability, buffer = make_rig()
        durability.free_page(buffer, 7)
        assert 7 not in disk


class TestBackgroundFlusher:
    def test_flush_cold_cleans_lru_first(self):
        _, durability, buffer = make_rig(capacity=4)
        for page_id in (0, 1, 2):
            buffer.fetch(page_id)
            buffer.mark_dirty(page_id)
        cleaned = durability.flush_cold(buffer, batch=1)
        assert cleaned == 1
        # Page 0 is the coldest (least recently used) dirty frame.
        assert not buffer.frames[0].dirty
        assert buffer.frames[1].dirty and buffer.frames[2].dirty

    def test_flush_cold_follows_mru_order(self):
        _, durability, buffer = make_rig(capacity=4, policy=MRU())
        for page_id in (0, 1, 2):
            buffer.fetch(page_id)
            buffer.mark_dirty(page_id)
        durability.flush_cold(buffer, batch=1)
        # MRU evicts the hottest frame first, so page 2 flushes first.
        assert not buffer.frames[2].dirty
        assert buffer.frames[0].dirty and buffer.frames[1].dirty

    def test_flush_cold_follows_fifo_order(self):
        _, durability, buffer = make_rig(capacity=4, policy=FIFO())
        for page_id in (2, 0, 1):
            buffer.fetch(page_id)
            buffer.mark_dirty(page_id)
        buffer.fetch(2)  # touch 2 again; FIFO still orders by arrival
        durability.flush_cold(buffer, batch=1)
        assert not buffer.frames[2].dirty

    def test_flush_cold_skips_pinned_frames(self):
        _, durability, buffer = make_rig(capacity=4)
        buffer.fetch(0)
        buffer.mark_dirty(0)
        buffer.pin(0)
        assert durability.flush_cold(buffer, batch=4) == 0
        buffer.unpin(0)
        assert durability.flush_cold(buffer, batch=4) == 1

    def test_tick_runs_flusher_on_interval(self):
        _, durability, buffer = make_rig(capacity=6, flush_interval=4)
        buffer.fetch(0)
        buffer.mark_dirty(0)
        for page_id in (1, 2):
            buffer.fetch(page_id)
        assert buffer.frames[0].dirty  # 3 requests so far: not yet
        buffer.fetch(3)  # 4th request triggers the flusher
        assert not buffer.frames[0].dirty


class TestCheckpoints:
    def test_checkpoint_flushes_everything_and_logs(self):
        disk, durability, buffer = make_rig(capacity=4)
        buffer.fetch(0)
        buffer.mark_dirty(0)
        buffer.fetch(1)
        buffer.mark_dirty(1)
        buffer.pin(1)
        lsn = durability.checkpoint(buffer)
        assert not buffer.frames[0].dirty
        assert not buffer.frames[1].dirty  # pinned frames flush too
        records = list(durability.wal.records())
        assert records[-1].kind == CHECKPOINT
        assert records[-1].lsn == lsn
        buffer.unpin(1)

    def test_checkpoint_survives_power_loss(self):
        """The checkpoint lets recovery skip the records of the pages it
        wrote back, so those pages must be on the medium, not in a cache."""
        page_store, log_store = PowerLossStore(), PowerLossStore()
        disk = DurableDisk(page_store, page_size=PAGE_SIZE)
        for page_id in range(4):
            disk.store(make_page(page_id, payload=page_id))
        page_store.sync()
        durability = DurabilityManager(disk, WriteAheadLog(log_store))
        buffer = BufferManager(disk, 4, LRU(), durability=durability)
        buffer.fetch(2).entries[0].payload = 99
        buffer.mark_dirty(2)
        durability.commit()
        durability.checkpoint(buffer)

        survivor = DurableDisk(page_store.after_power_loss(), page_size=PAGE_SIZE)
        recover(WriteAheadLog(log_store.after_power_loss()), survivor)
        assert encode_page(survivor.peek(2), PAGE_SIZE) == encode_page(
            make_page(2, payload=99), PAGE_SIZE
        )

    def test_auto_checkpoint_via_tick(self):
        _, durability, buffer = make_rig(
            capacity=4, checkpoint_interval=3
        )
        for page_id in (0, 1, 2):
            buffer.fetch(page_id)
            buffer.mark_dirty(page_id)
        kinds = [r.kind for r in durability.wal.records()]
        assert CHECKPOINT in kinds


class TestDurabilityEvents:
    def test_event_stream_covers_the_write_path(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        for page_id in range(6):
            disk.store(make_page(page_id))
        sink = TraceRecorder()
        durability = DurabilityManager(
            disk, group_window=2, flush_interval=3, observer=sink
        )
        buffer = BufferManager(
            disk, 3, LRU(), observer=sink, durability=durability
        )
        for page_id in range(6):
            buffer.fetch(page_id)
            buffer.mark_dirty(page_id)
            durability.commit()
        durability.checkpoint(buffer)
        kinds = {event.kind for event in sink.events}
        assert {"wal_append", "wal_fsync", "bg_flush", "checkpoint"} <= kinds


class TestConcurrentSeam:
    def test_rejects_automatic_checkpoints(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        durability = DurabilityManager(disk, checkpoint_interval=10)
        with pytest.raises(ValueError):
            ConcurrentBufferManager(
                disk, 8, LRU, shards=2, durability=durability
            )

    def test_commit_and_checkpoint_cover_all_shards(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        for page_id in range(8):
            disk.store(make_page(page_id))
        durability = DurabilityManager(disk, group_window=4)
        service = ConcurrentBufferManager(
            disk, 8, LRU, shards=4, durability=durability
        )
        for page_id in range(8):
            service.fetch(page_id)
            service.mark_dirty(page_id)
        service.commit()
        lsn = service.checkpoint()
        records = list(durability.wal.records())
        assert records[-1].kind == CHECKPOINT and records[-1].lsn == lsn
        assert sum(1 for r in records if r.kind == COMMIT) == 1
        for manager in service.shard_managers():
            assert all(not frame.dirty for frame in manager.frames.values())

    def test_flusher_cadence_is_exact_across_shards_and_threads(self):
        """Four threads on four shards share one request count: the
        flusher runs once per ``flush_interval`` requests, none lost."""
        disk = DurableDisk(page_size=PAGE_SIZE)
        for page_id in range(64):
            disk.store(make_page(page_id))
        calls = []

        class Counting(DurabilityManager):
            def flush_cold(self, buffer, batch=None):
                calls.append(buffer)
                return super().flush_cold(buffer, batch)

        durability = Counting(disk, flush_interval=7)
        service = ConcurrentBufferManager(
            disk, 16, LRU, shards=4, durability=durability
        )

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(500):
                service.fetch(rng.randrange(64))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,)) for seed in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        requests = service.stats.requests
        assert requests == 4 * 500
        assert len(calls) == requests // 7
        assert {id(buffer) for buffer in calls} <= {
            id(manager) for manager in service.shard_managers()
        }

    def test_commit_without_seam_raises(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        service = ConcurrentBufferManager(disk, 8, LRU, shards=2)
        with pytest.raises(RuntimeError):
            service.commit()

"""Unit tests for the write-ahead log and the durable page store."""

from __future__ import annotations

import pytest

from repro.geometry.rect import Rect
from repro.storage.page import Page, PageEntry, PageType
from repro.wal.bytestore import FileByteStore, MemoryByteStore
from repro.wal.crash import CrashError, CrashInjector
from repro.wal.log import (
    CHECKPOINT,
    COMMIT,
    FREE,
    PAGE_IMAGE,
    WriteAheadLog,
)

PAGE_SIZE = 256


def make_page(page_id: int, payload: int = 0) -> Page:
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(
        PageEntry(mbr=Rect(0.0, 0.0, 1.0, 1.0), payload=payload)
    )
    return page


class TestAppendAndScan:
    def test_records_round_trip(self):
        wal = WriteAheadLog()
        lsn1 = wal.append_page_image(make_page(3, payload=9), PAGE_SIZE)
        lsn2 = wal.append_free(5)
        lsn3 = wal.commit()
        wal.append_checkpoint()
        wal.sync()
        records = list(wal.records())
        assert [r.lsn for r in records] == [lsn1, lsn2, lsn3, lsn3 + 1]
        assert [r.kind for r in records] == [PAGE_IMAGE, FREE, COMMIT,
                                             CHECKPOINT]
        assert records[0].page_id == 3
        assert len(records[0].payload) == PAGE_SIZE
        assert records[1].page_id == 5

    def test_lsns_are_dense_and_increasing(self):
        wal = WriteAheadLog()
        lsns = [wal.append_free(i) for i in range(10)]
        assert lsns == list(range(1, 11))

    def test_pending_records_invisible_until_fsync(self):
        wal = WriteAheadLog()
        wal.append_free(1)
        assert wal.pending_records == 1
        assert list(wal.records()) == []
        assert wal.flushed_lsn == 0
        wal.sync()
        assert wal.pending_records == 0
        assert wal.flushed_lsn == 1
        assert len(list(wal.records())) == 1


class TestGroupCommit:
    def test_window_one_fsyncs_every_commit(self):
        wal = WriteAheadLog(group_window=1)
        for _ in range(5):
            wal.commit()
        assert wal.stats.fsyncs == 5
        assert wal.stats.commits_per_fsync == 1.0

    def test_window_batches_fsyncs(self):
        wal = WriteAheadLog(group_window=4)
        for _ in range(8):
            wal.commit()
        assert wal.stats.commits == 8
        assert wal.stats.fsyncs == 2
        assert wal.stats.commits_per_fsync == 4.0

    def test_commit_durable_only_after_window_fills(self):
        wal = WriteAheadLog(group_window=3)
        lsn = wal.commit()
        assert wal.flushed_lsn < lsn
        wal.commit()
        lsn3 = wal.commit()
        assert wal.flushed_lsn == lsn3

    def test_flush_to_forces_early_fsync(self):
        wal = WriteAheadLog(group_window=100)
        lsn = wal.append_free(1)
        wal.flush_to(lsn)
        assert wal.flushed_lsn >= lsn

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            WriteAheadLog(group_window=0)


class TestTornTail:
    def test_torn_fsync_truncates_scan(self):
        crash = CrashInjector()
        wal = WriteAheadLog(crash=crash)
        wal.append_free(1)
        wal.sync()
        wal.append_free(2)
        wal.append_free(3)
        crash.arm("wal.fsync.torn")
        with pytest.raises(CrashError):
            wal.sync()
        survivor = WriteAheadLog(store=MemoryByteStore(wal.store.image()))
        lsns = [r.lsn for r in survivor.records()]
        # A torn fsync persists a *proper prefix* of the batch: record 1
        # (previously durable) always survives, record 3 never does.
        assert lsns in ([1], [1, 2])

    def test_reopen_continues_after_valid_prefix(self):
        wal = WriteAheadLog()
        wal.append_free(1)
        wal.append_free(2)
        wal.sync()
        reopened = WriteAheadLog(store=MemoryByteStore(wal.store.image()))
        assert reopened.flushed_lsn == 2
        lsn = reopened.append_free(3)
        assert lsn == 3
        reopened.sync()
        assert [r.lsn for r in reopened.records()] == [1, 2, 3]

    def test_corrupted_record_stops_scan(self):
        wal = WriteAheadLog()
        wal.append_free(1)
        wal.append_free(2)
        wal.sync()
        image = bytearray(wal.store.image())
        image[-3] ^= 0xFF  # flip a bit inside the second record
        damaged = WriteAheadLog(store=MemoryByteStore(bytes(image)))
        assert [r.lsn for r in damaged.records()] == [1]


class TestMemoryByteStore:
    def test_mounted_image_is_copied_on_first_write(self):
        image = bytes(range(16))
        store = MemoryByteStore(image)
        assert store.image() is image  # only read so far: no copy
        store.write_at(4, b"\xff\xff")
        store.write_at(18, b"\x01")
        assert image == bytes(range(16))
        assert store.read_at(2, 4) == bytes([2, 3, 255, 255])
        assert store.image() == bytes([0, 1, 2, 3, 255, 255, *range(6, 16), 0, 0, 1])

    def test_empty_store_grows(self):
        store = MemoryByteStore()
        store.write_at(2, b"ab")
        assert store.image() == b"\x00\x00ab"


class TestFileByteStore:
    def test_log_survives_reopen_from_file(self, tmp_path):
        path = tmp_path / "wal.bin"
        with FileByteStore(path) as store:
            wal = WriteAheadLog(store=store)
            wal.append_free(7)
            wal.sync()
        with FileByteStore(path) as store:
            reopened = WriteAheadLog(store=store)
            records = list(reopened.records())
        assert [(r.lsn, r.page_id) for r in records] == [(1, 7)]

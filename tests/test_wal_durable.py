"""Unit tests for the checksummed durable page store."""

from __future__ import annotations

import builtins
import random
import sys
import threading
import zlib

import pytest

from repro.api import BufferSystem
from repro.geometry.rect import Rect
from repro.storage.disk import DiskError, SimulatedDisk, TransientDiskError
from repro.storage import serialization
from repro.storage.page import Page, PageEntry, PageType
from repro.storage.serialization import decode_page, encode_page, read_page
from repro.wal import bytestore
from repro.wal.bytestore import FileByteStore
from repro.wal.crash import CrashError, CrashInjector
from repro.wal.durable import DurableDisk, TornPageError
from tests.test_storage_serialization import outcome

PAGE_SIZE = 256


def make_page(page_id: int, payload: int = 0) -> Page:
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(
        PageEntry(mbr=Rect(0.0, 0.0, 1.0, 1.0), payload=payload)
    )
    return page


def full_page(page_id: int, marker: int) -> Page:
    """A page whose encoding differs from other markers across the whole
    slot — torn-write tests need the halves to actually diverge (a nearly
    empty page is all zero padding past the first entry, so a half-write
    of it is accidentally complete)."""
    from repro.storage.serialization import max_entries_for

    page = Page(page_id=page_id, page_type=PageType.DATA)
    for index in range(max_entries_for(PAGE_SIZE)):
        page.entries.append(
            PageEntry(
                mbr=Rect(0.0, 0.0, 1.0, 1.0),
                payload=marker * 10_000 + index,
            )
        )
    return page


class TestRoundTrip:
    def test_write_read_round_trip(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        disk.write(make_page(4, payload=42))
        page = disk.read(4)
        assert page.page_id == 4
        assert page.entries[0].payload == 42
        assert disk.stats.reads == 1 and disk.stats.writes == 1

    def test_mutating_a_read_page_does_not_change_the_medium(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        disk.store(make_page(1, payload=1))
        page = disk.read(1)
        page.entries[0] = PageEntry(mbr=Rect(0, 0, 1, 1), payload=99)
        assert disk.peek(1).entries[0].payload == 1

    def test_missing_page_raises(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        with pytest.raises(KeyError):
            disk.read(9)

    def test_delete_frees_the_slot(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        disk.store(make_page(2))
        disk.delete(2)
        assert 2 not in disk
        with pytest.raises(KeyError):
            disk.read(2)

    def test_restore_rejects_wrong_length(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        with pytest.raises(ValueError):
            disk.restore(0, b"short")

    def test_restore_places_raw_image(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        blob = encode_page(make_page(6, payload=5), PAGE_SIZE)
        disk.restore(6, blob)
        assert disk.peek(6).entries[0].payload == 5


class TestImages:
    def test_image_round_trip_preserves_pages(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        for page_id in range(5):
            disk.store(make_page(page_id, payload=page_id))
        clone = DurableDisk.from_image(disk.image(), page_size=PAGE_SIZE)
        assert clone.page_ids() == [0, 1, 2, 3, 4]
        assert clone.peek(3).entries[0].payload == 3

    def test_from_image_is_a_copy(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        disk.store(make_page(0))
        clone = DurableDisk.from_image(disk.image(), page_size=PAGE_SIZE)
        clone.delete(0)
        assert 0 in disk


class TestTornWrites:
    def test_torn_write_detected_on_read(self):
        crash = CrashInjector()
        disk = DurableDisk(page_size=PAGE_SIZE, crash=crash)
        disk.store(full_page(0, marker=1))
        crash.arm("disk.write.torn")
        with pytest.raises(CrashError):
            disk.write(full_page(0, marker=2))
        survivor = DurableDisk.from_image(disk.image(), page_size=PAGE_SIZE)
        with pytest.raises(TornPageError):
            survivor.read(0)

    def test_crash_before_write_leaves_old_content(self):
        crash = CrashInjector()
        disk = DurableDisk(page_size=PAGE_SIZE, crash=crash)
        disk.store(make_page(0, payload=1))
        crash.arm("disk.write.before")
        with pytest.raises(CrashError):
            disk.write(make_page(0, payload=2))
        survivor = DurableDisk.from_image(disk.image(), page_size=PAGE_SIZE)
        assert survivor.peek(0).entries[0].payload == 1


class TestFailureInjection:
    def test_permanent_failure(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        disk.store(make_page(0))
        disk.fail_reads = {0}
        with pytest.raises(DiskError):
            disk.read(0)

    def test_transient_failure_recovers(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        disk.store(make_page(0))
        disk.fail_transiently(0, op="read", times=2)
        for _ in range(2):
            with pytest.raises(TransientDiskError):
                disk.read(0)
        assert disk.read(0).page_id == 0


def version_page(page_id: int, version: int) -> Page:
    """Version ``version`` of a page: its level, type and entries all say
    which version it is."""
    level = version % 3
    page = Page(page_id, PageType.DATA if level == 0 else PageType.DIRECTORY, level)
    for index in range(1 + version % 4):
        x = version + index / 8
        page.entries.append(
            PageEntry(
                Rect(x, 0.0, x + 1.0, 1.0),
                child=None if level == 0 else index,
                payload=version * 100 + index if level == 0 else None,
            )
        )
    return page


def rewrite(disk: DurableDisk, page_id: int, payload: bytes) -> None:
    """Put ``payload`` into a slot under the disk, with a matching CRC."""
    disk.store_backend.write_at(
        page_id * disk.slot_size, zlib.crc32(payload).to_bytes(4, "little") + payload
    )


def model_read(disk: DurableDisk, page_id: int) -> Page:
    """A read that verifies every time: the CRC, then :func:`read_page`."""
    if page_id not in disk:
        raise KeyError(page_id)
    slot = disk.store_backend.read_at(page_id * disk.slot_size, disk.slot_size)
    slot = slot.ljust(disk.slot_size, b"\x00")
    if zlib.crc32(slot[4:]) != int.from_bytes(slot[:4], "little"):
        raise TornPageError(page_id)
    return read_page(slot[4:], page_id)


def observed(read, page_id: int):
    """What one read shows: header, image, MBR and entries, or the error."""
    try:
        page = read(page_id)
    except (KeyError, TornPageError) as exc:
        return type(exc)
    except ValueError as exc:
        return ValueError, str(exc)
    return (
        page.page_id,
        page.page_type,
        page.level,
        page.image(),
        outcome(page.mbr),
        repr(page.entries),
    )


class TestVerifiedOnce:
    """A slot version is verified once; every read still equals a read
    that verifies every time."""

    PAGES = 4

    @pytest.mark.parametrize("seed", range(6))
    def test_reads_equal_the_model(self, seed):
        rng = random.Random(seed)
        crash = CrashInjector()
        disk = DurableDisk(page_size=PAGE_SIZE, crash=crash)
        for step in range(400):
            page_id = rng.randrange(self.PAGES)
            version = rng.randrange(12)
            blob = encode_page(version_page(page_id, version), PAGE_SIZE)
            action = rng.choice(
                [
                    "read", "read", "read", "store", "write", "write packed",
                    "write back", "write wide", "restore", "delete", "torn",
                    "after", "raw", "raw malformed", "raw padded", "raw flip",
                ]
            )
            if action == "read":
                assert observed(disk.read, page_id) == observed(
                    lambda page_id: model_read(disk, page_id), page_id
                ), step
                continue
            if action == "store":
                disk.store(version_page(page_id, version))
            elif action == "write":
                disk.write(version_page(page_id, version))
            elif action == "write packed":
                disk.write(read_page(blob, page_id))
            elif action == "write back":
                try:
                    disk.write(disk.read(page_id))
                except (KeyError, TornPageError, ValueError):
                    pass
            elif action == "write wide":
                # Packed, but its image is not a slot of this disk.
                wide = encode_page(version_page(page_id, version), 2 * PAGE_SIZE)
                disk.write(read_page(wide, page_id))
            elif action == "restore":
                disk.restore(page_id, blob)
            elif action == "delete":
                disk.delete(page_id)
            elif action in ("torn", "after"):
                crash.arm("disk.write.torn" if action == "torn" else "disk.write.after")
                with pytest.raises(CrashError):
                    disk.write(read_page(blob, page_id))
            elif action == "raw":
                rewrite(disk, page_id, blob)
            elif action == "raw malformed":
                damaged = bytearray(blob)
                damaged[rng.randrange(8)] ^= rng.randrange(1, 256)
                rewrite(disk, page_id, bytes(damaged))
            elif action == "raw padded":
                rewrite(disk, page_id, blob[:-1] + b"\xab")
            else:
                offset = page_id * disk.slot_size + 4 + rng.randrange(PAGE_SIZE)
                (byte,) = disk.store_backend.read_at(offset, 1) or b"\x00"
                disk.store_backend.write_at(offset, bytes([byte ^ 0x5A]))
        for page_id in range(self.PAGES):
            assert observed(disk.read, page_id) == observed(
                lambda page_id: model_read(disk, page_id), page_id
            )

    def test_a_version_is_verified_once_and_its_criteria_shared(self, monkeypatch):
        """Work counts: ``read_page`` runs once per slot version."""
        verified = []
        read_page_ = serialization.read_page

        def counted(blob, page_id):
            verified.append(page_id)
            return read_page_(blob, page_id)

        monkeypatch.setattr(serialization, "read_page", counted)
        disk = DurableDisk(page_size=PAGE_SIZE)
        disk.store(version_page(0, 1))
        first, second = disk.read(0), disk.read(0)
        assert len(verified) == 1
        assert first is not second
        assert first._derived() is second._derived()
        criteria = second._derived()
        criteria["A"] = 1.5
        assert first.entries  # unpacking one page leaves the shared criteria
        assert disk.read(0)._derived() is criteria == {"A": 1.5}
        disk.write(disk.read(0))  # a packed page's bytes are adopted
        assert disk.read(0)._derived() is criteria
        assert len(verified) == 1
        disk.write(version_page(0, 1))  # same bytes, from entry objects
        fresh = disk.read(0)
        assert len(verified) == 2
        assert fresh._derived() is not criteria and fresh._derived() == {}
        assert disk.read(0)._derived() is fresh._derived()
        assert len(verified) == 2

    def test_a_torn_write_is_caught_on_the_same_disk(self):
        crash = CrashInjector()
        disk = DurableDisk(page_size=PAGE_SIZE, crash=crash)
        disk.store(full_page(0, marker=1))
        assert disk.read(0).image() is not None
        crash.arm("disk.write.torn")
        with pytest.raises(CrashError):
            disk.write(read_page(encode_page(full_page(0, marker=2), PAGE_SIZE), 0))
        with pytest.raises(TornPageError):
            disk.read(0)

    def test_a_rewrite_with_a_matching_crc_is_verified_again(self):
        disk = DurableDisk(page_size=PAGE_SIZE)
        disk.store(version_page(0, 1))
        disk.read(0)
        other = encode_page(version_page(0, 2), PAGE_SIZE)
        rewrite(disk, 0, other)
        page = disk.read(0)
        assert (page.level, page.image()) == (2, other)
        malformed = b"XX" + other[2:]
        rewrite(disk, 0, malformed)
        with pytest.raises(ValueError) as raised:
            disk.read(0)
        with pytest.raises(ValueError) as expected:
            decode_page(malformed, 0)
        assert str(raised.value) == str(expected.value)

    def test_threads_share_one_disk(self):
        """Readers and writers race on four slots: every read is a version
        that was written, whole, with that version's header."""
        disk = DurableDisk(page_size=PAGE_SIZE)
        versions = {
            page_id: [version_page(page_id, version) for version in range(6)]
            for page_id in range(self.PAGES)
        }
        headers = {
            encode_page(page, PAGE_SIZE): (page.page_type, page.level)
            for pages in versions.values()
            for page in pages
        }
        for page_id in range(self.PAGES):
            disk.store(versions[page_id][0])
        failures: list = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(400):
                    page_id = rng.randrange(self.PAGES)
                    if seed % 2:
                        page = rng.choice(versions[page_id])
                        blob = encode_page(page, PAGE_SIZE)
                        disk.write(read_page(blob, page_id) if rng.random() < 0.5 else page)
                        continue
                    page = disk.read(page_id)
                    blob = page.image()
                    if headers.get(blob) != (page.page_type, page.level):
                        failures.append((page_id, blob))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for page_id in range(self.PAGES):
            assert observed(disk.read, page_id) == observed(
                lambda page_id: model_read(disk, page_id), page_id
            )


class TestThreadedAccounting:
    READS = 500

    @pytest.mark.parametrize("make_disk", [SimulatedDisk, DurableDisk])
    def test_threads_lose_no_count(self, make_disk):
        """Eight readers share one disk: every read is counted once, and
        as either sequential or random."""
        disk = make_disk()
        for page_id in range(8):
            disk.store(make_page(page_id))

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(self.READS):
                disk.read(rng.randrange(8))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = disk.stats
        assert stats.reads == stats.sequential_reads + stats.random_reads == 8 * self.READS


class _ParkedFile:
    """A file that parks each thread between its ``seek`` and its
    ``read``/``write`` until a second thread gets there too: the
    interleaving that breaks a shared file position, forced every time."""

    def __init__(self, inner, barrier: threading.Barrier) -> None:
        self._inner = inner
        self._barrier = barrier

    def read(self, *args):
        self._barrier.wait()
        return self._inner.read(*args)

    def write(self, *args):
        self._barrier.wait()
        return self._inner.write(*args)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _in_two_threads(first, second) -> list:
    """Run ``first`` and ``second`` at once; their results, in order."""
    results: list = [None, None]

    def run(index: int, call) -> None:
        try:
            results[index] = call()
        except Exception as exc:  # noqa: BLE001 - compared below
            results[index] = exc

    threads = [
        threading.Thread(target=run, args=(index, call))
        for index, call in enumerate((first, second))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    return results


class TestFileByteStoreThreads:
    """A ``FileByteStore`` is shared by every thread of a sharded manager
    and of the page server's pool: a read or write lands where its
    offset says, whatever the other threads do."""

    BLOCK = 64

    def test_positional_io_survives_a_parked_file_position(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "medium.bin"
        with FileByteStore(path) as store:
            store.write_at(0, b"a" * self.BLOCK + b"b" * self.BLOCK)
        barrier = threading.Barrier(2, timeout=5)
        monkeypatch.setattr(
            bytestore,
            "open",
            lambda *args, **kwargs: _ParkedFile(builtins.open(*args, **kwargs), barrier),
            raising=False,
        )
        with FileByteStore(path) as store:
            reads = _in_two_threads(
                lambda: store.read_at(0, self.BLOCK),
                lambda: store.read_at(self.BLOCK, self.BLOCK),
            )
            assert reads == [b"a" * self.BLOCK, b"b" * self.BLOCK]
            assert _in_two_threads(
                lambda: store.write_at(0, b"x" * self.BLOCK),
                lambda: store.write_at(self.BLOCK, b"y" * self.BLOCK),
            ) == [None, None]
        monkeypatch.undo()
        with FileByteStore(path) as store:
            assert store.image() == b"x" * self.BLOCK + b"y" * self.BLOCK

    @pytest.mark.parametrize("policy", ["LRU", "ASB"])
    def test_sharded_write_back_loses_no_page(self, tmp_path, policy):
        """Eight threads install versions of their own pages through a
        four-shard manager, whose evictions write back concurrently; a
        fresh disk over the file reads every page's last version."""
        pages, threads_, rounds = 256, 8, 59
        path = tmp_path / "pages.bin"
        with FileByteStore(path) as store:
            system = BufferSystem.build(
                policy=policy,
                capacity=16,
                shards=4,
                disk=DurableDisk(store, page_size=PAGE_SIZE),
                page_size=PAGE_SIZE,
            )
            for page_id in range(pages):
                system.disk.store(full_page(page_id, 0))
            failures: list = []

            def worker(first: int) -> None:
                try:
                    for version in range(1, rounds + 1):
                        for page_id in range(first, pages, threads_):
                            system.buffer.install(full_page(page_id, version))
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                workers = [
                    threading.Thread(target=worker, args=(first,))
                    for first in range(threads_)
                ]
                for thread in workers:
                    thread.start()
                for thread in workers:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in workers)
            assert failures == []
            system.buffer.flush()
        with FileByteStore(path) as store:
            fresh = DurableDisk(store, page_size=PAGE_SIZE)
            wrong = [
                page_id
                for page_id in range(pages)
                if outcome(lambda: fresh.read(page_id).image())
                != repr(encode_page(full_page(page_id, rounds), PAGE_SIZE))
            ]
        assert wrong == []

"""Tests for the thread-safe concurrent buffer service."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.manager import BufferFullError, BufferManager
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.asb import ASB
from repro.geometry.rect import Rect
from repro.obs.events import LockingSink, TraceRecorder
from repro.storage.disk import DiskError, SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType


def make_disk(n_pages=64):
    disk = SimulatedDisk()
    for page_id in range(n_pages):
        page = Page(page_id=page_id, page_type=PageType.DATA)
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload=page_id))
        disk.store(page)
    return disk


class GatedDisk(SimulatedDisk):
    """A disk whose reads block until released — to stage read races."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.reading = threading.Semaphore(0)

    def read(self, page_id):
        self.reading.release()  # announce: a reader has arrived
        assert self.gate.wait(timeout=10.0), "gate never opened"
        return super().read(page_id)


def run_threads(workers, timeout=30.0):
    """Start, join, and propagate the first worker exception."""
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn), daemon=True) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=timeout)
        assert not thread.is_alive(), "worker deadlocked (join timed out)"
    if errors:
        raise errors[0]


class TestConstruction:
    def test_shards_must_be_positive(self):
        with pytest.raises(ValueError):
            ConcurrentBufferManager(make_disk(), 8, LRU, shards=0)

    def test_each_shard_needs_a_frame(self):
        with pytest.raises(ValueError):
            ConcurrentBufferManager(make_disk(), 2, LRU, shards=4)

    def test_capacity_split_over_shards(self):
        buffer = ConcurrentBufferManager(make_disk(), 10, LRU, shards=4)
        capacities = [mgr.capacity for mgr in buffer.shard_managers()]
        assert sum(capacities) == 10
        assert max(capacities) - min(capacities) <= 1

    def test_observer_is_lock_wrapped(self):
        recorder = TraceRecorder()
        buffer = ConcurrentBufferManager(
            make_disk(), 8, LRU, shards=2, observer=recorder
        )
        assert isinstance(buffer.observer, LockingSink)
        assert buffer.observer.inner is recorder


class TestSequentialEquivalence:
    """One shard, one thread: the service must be bit-identical to the
    plain BufferManager — the sharding seam must not change sequential
    policy behaviour."""

    def drive(self, buffer, seed=7):
        rng = random.Random(seed)
        for _ in range(40):
            with buffer.query_scope():
                for _ in range(rng.randrange(1, 6)):
                    buffer.fetch(rng.randrange(32))
            buffer.fetch(rng.randrange(32))  # uncorrelated singleton

    @pytest.mark.parametrize("policy_factory", [LRU, ASB])
    def test_same_events_and_stats_as_sequential_core(self, policy_factory):
        plain_recorder = TraceRecorder()
        plain = BufferManager(
            make_disk(), 8, policy_factory(), observer=plain_recorder
        )
        self.drive(plain)

        concurrent_recorder = TraceRecorder()
        concurrent = ConcurrentBufferManager(
            make_disk(), 8, policy_factory, shards=1,
            observer=concurrent_recorder,
        )
        self.drive(concurrent)

        assert concurrent_recorder.events == plain_recorder.events
        assert concurrent.stats.snapshot() == plain.stats.snapshot()
        assert concurrent.resident_ids() == plain.resident_ids()

    def test_sharded_preserves_totals(self):
        """Shard count changes *which* frames pages land in, never the
        request accounting identities."""
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=4)
        self.drive(buffer)
        stats = buffer.stats
        assert stats.hits + stats.misses == stats.requests
        assert stats.requests > 0


class TestAccounting:
    def test_basic_hit_miss(self):
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=2)
        buffer.fetch(0)
        buffer.fetch(0)
        stats = buffer.stats
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.requests == 2

    def test_multithreaded_counters_merge(self):
        buffer = ConcurrentBufferManager(make_disk(), 16, LRU, shards=4)

        def worker():
            for page_id in range(32):
                buffer.fetch(page_id)

        run_threads([worker] * 4)
        stats = buffer.stats
        assert stats.requests == 4 * 32
        assert stats.hits + stats.misses == stats.requests

    def test_clear_resets_merged_counters(self):
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=2)
        buffer.fetch(0)
        buffer.clear()
        stats = buffer.stats
        assert stats.requests == 0
        assert buffer.coalesced_misses == 0
        assert len(buffer) == 0

    def test_stats_snapshot_includes_coalescing(self):
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=2)
        buffer.fetch(0)
        snapshot = buffer.stats_snapshot()
        assert snapshot["coalesced"] == 0
        assert snapshot["requests"] == 1


class TestMissCoalescing:
    def test_concurrent_misses_share_one_read(self):
        disk = GatedDisk()
        for page_id in range(8):
            page = Page(page_id=page_id, page_type=PageType.DATA)
            disk.store(page)
        buffer = ConcurrentBufferManager(disk, 4, LRU, shards=1)
        n_threads = 6

        def worker():
            assert buffer.fetch(3).page_id == 3

        threads = [
            threading.Thread(target=worker, daemon=True)
            for _ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        # Wait until the loader has reached the disk, give the waiters a
        # moment to pile onto the in-flight entry, then open the gate.
        assert disk.reading.acquire(timeout=10.0)
        deadline = threading.Event()
        while buffer.coalesced_misses < n_threads - 1:
            if deadline.wait(timeout=0.01):  # pragma: no cover - just a sleep
                break
        disk.gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()

        assert disk.stats.reads == 1  # exactly one read for the group
        stats = buffer.stats
        assert stats.requests == n_threads
        assert stats.misses == 1
        assert stats.hits == n_threads - 1
        assert buffer.coalesced_misses == n_threads - 1

    def test_inflight_table_drains(self):
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=2)

        def worker():
            for page_id in range(32):
                buffer.fetch(page_id)

        run_threads([worker] * 4)
        for shard in buffer._shards:
            assert shard.inflight == {}

    def test_failed_read_propagates_and_cleans_up(self):
        disk = make_disk(8)
        disk.fail_reads.add(5)
        buffer = ConcurrentBufferManager(disk, 8, LRU, shards=2)
        with pytest.raises(DiskError):
            buffer.fetch(5)
        for shard in buffer._shards:
            assert shard.inflight == {}
        # The service keeps working after the failure.
        assert buffer.fetch(1).page_id == 1

    def test_failed_read_wakes_waiters_with_the_error(self):
        disk = GatedDisk()
        page = Page(page_id=0, page_type=PageType.DATA)
        disk.store(page)
        disk.fail_reads.add(0)
        buffer = ConcurrentBufferManager(disk, 4, LRU, shards=1)
        outcomes = []

        def worker():
            try:
                buffer.fetch(0)
                outcomes.append("ok")
            except DiskError:
                outcomes.append("error")

        threads = [
            threading.Thread(target=worker, daemon=True) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        assert disk.reading.acquire(timeout=10.0)
        disk.gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        # Every thread saw the failure: the loader directly, waiters (if
        # any piled up) through the in-flight entry, stragglers by
        # becoming loaders of their own failed read.
        assert outcomes == ["error"] * 3
        for shard in buffer._shards:
            assert shard.inflight == {}

    @staticmethod
    def stage_a_waiter(disk, buffer, page_id):
        """Start a loader and hold it inside ``disk.read``; then start one
        more misser and return once it waits on the loader's entry.

        Returns ``(outcomes, threads)``; each thread appends its page or
        its exception to ``outcomes``."""
        outcomes = []

        def fetch():
            try:
                outcomes.append(buffer.fetch(page_id))
            except DiskError as exc:
                outcomes.append(exc)

        loader = threading.Thread(target=fetch, daemon=True)
        loader.start()
        assert disk.reading.acquire(timeout=10.0)  # inside read(), off the lock
        entry = buffer._shards[0].inflight[page_id]
        assert entry.event is None, "a miss nobody waits on allocates no event"
        waiter = threading.Thread(target=fetch, daemon=True)
        waiter.start()
        pause = threading.Event()
        for _ in range(1000):
            if buffer.coalesced_misses == 1:
                break
            pause.wait(timeout=0.01)
        assert buffer.coalesced_misses == 1 and entry.event is not None
        return outcomes, [loader, waiter]

    def test_a_waiter_is_served_from_the_loaders_frame(self):
        class CopyingDisk(GatedDisk):
            """Every read is a new page object, as on a byte medium."""

            def read(self, page_id):
                page = super().read(page_id)
                return Page(page.page_id, page.page_type, page.level, list(page.entries))

        disk = CopyingDisk()
        for page_id in range(8):
            disk.store(Page(page_id=page_id, page_type=PageType.DATA))
        buffer = ConcurrentBufferManager(disk, 4, LRU, shards=1)
        outcomes, threads = self.stage_a_waiter(disk, buffer, 3)
        disk.gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        frame = buffer.shard_managers()[0].frames.get(3)
        assert len(outcomes) == 2
        assert outcomes[0] is outcomes[1] is frame.page
        assert disk.stats.reads == 1
        stats = buffer.stats
        assert (stats.requests, stats.hits, stats.misses) == (2, 1, 1)
        assert buffer._shards[0].inflight == {}

    def test_a_failed_load_raises_in_the_loader_and_the_waiter(self):
        disk = GatedDisk()
        disk.store(Page(page_id=0, page_type=PageType.DATA))
        disk.fail_reads.add(0)
        buffer = ConcurrentBufferManager(disk, 4, LRU, shards=1)
        outcomes, threads = self.stage_a_waiter(disk, buffer, 0)
        disk.gate.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        assert len(outcomes) == 2
        assert isinstance(outcomes[0], DiskError)
        assert outcomes[1] is outcomes[0], "the waiter raises the loader's error"
        assert not disk.reading.acquire(blocking=False), "the waiter read nothing"
        assert buffer._shards[0].inflight == {}
        assert buffer.stats.misses == 1

    def test_install_racing_a_loader_leaves_no_chain_zombie(self):
        # install() goes straight through the shard lock and never consults
        # the in-flight table, so it can make a page resident while a miss
        # loader for the same id is off the lock reading disk.  The loader
        # must then serve the resident (newer) copy instead of admitting a
        # second frame — a double admit used to orphan the first frame
        # inside the recency chain, and the policy would later select it as
        # a victim that is no longer resident.
        disk = GatedDisk()
        for page_id in range(8):
            disk.store(Page(page_id=page_id, page_type=PageType.DATA))
        buffer = ConcurrentBufferManager(disk, 4, LRU, shards=1)
        results = []

        def loader():
            results.append(buffer.fetch(0))

        thread = threading.Thread(target=loader, daemon=True)
        thread.start()
        assert disk.reading.acquire(timeout=10.0)  # loader is inside read()
        installed = Page(page_id=0, page_type=PageType.DATA)
        installed.entries.append(
            PageEntry(mbr=Rect(0, 0, 1, 1), payload="installed")
        )
        buffer.install(installed)
        disk.gate.set()
        thread.join(timeout=30.0)
        assert not thread.is_alive()

        # The loader served the installed copy, not its stale disk read.
        assert results[0] is installed
        manager = buffer.shard_managers()[0]
        assert len(manager.frames) == 1
        assert sum(1 for _ in manager.frames.iter_recency()) == 1
        # Cycling the pool through many evictions used to hit
        # "policy selected page X, which is not resident" via the zombie.
        disk.gate.set()
        for _ in range(4):
            for page_id in range(8):
                buffer.fetch(page_id)
        assert len(manager.frames) == sum(
            1 for _ in manager.frames.iter_recency()
        )

    def test_concurrent_install_fetch_stress_never_corrupts_the_chain(self):
        # Randomized version of the race above, with an observer attached so
        # the shard cores run their decomposed (seamed) path.
        recorder = TraceRecorder()
        buffer = ConcurrentBufferManager(
            make_disk(48), 12, LRU, shards=1, observer=recorder
        )
        stop = threading.Event()
        errors = []

        def worker(seed):
            rng = random.Random(seed)

            def run():
                try:
                    while not stop.is_set():
                        page_id = rng.randrange(48)
                        if rng.random() < 0.3:
                            page = Page(
                                page_id=page_id, page_type=PageType.DATA
                            )
                            buffer.install(page)
                        else:
                            buffer.fetch(page_id)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            return run

        threads = [
            threading.Thread(target=worker(seed), daemon=True)
            for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        stop.wait(timeout=1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        if errors:
            raise errors[0]
        manager = buffer.shard_managers()[0]
        assert len(manager.frames) == sum(
            1 for _ in manager.frames.iter_recency()
        )


class TestPinnedGuardConcurrent:
    def test_guard_keeps_page_resident_under_pressure(self):
        buffer = ConcurrentBufferManager(make_disk(), 4, LRU, shards=2)
        stop = threading.Event()

        def thrasher():
            rng = random.Random(1)
            while not stop.is_set():
                buffer.fetch(rng.randrange(64))

        thread = threading.Thread(target=thrasher, daemon=True)
        thread.start()
        try:
            for _ in range(50):
                with buffer.pinned(7) as page:
                    assert page.page_id == 7
                    assert buffer.contains(7)
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert not thread.is_alive()

    def test_guard_releases_on_exception(self):
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=2)
        with pytest.raises(RuntimeError, match="boom"):
            with buffer.pinned(0):
                raise RuntimeError("boom")
        frame = buffer.shard_managers()[buffer.shard_of(0)].frames[0]
        assert frame.pin_count == 0


class TestQueryCorrelation:
    def test_same_scope_is_correlated(self):
        recorder = TraceRecorder(kinds=("hit",))
        buffer = ConcurrentBufferManager(
            make_disk(), 8, LRU, shards=2, observer=recorder
        )
        with buffer.query_scope():
            buffer.fetch(0)
            buffer.fetch(0)
        assert [event.correlated for event in recorder.events] == [True]

    def test_scopes_of_different_threads_never_correlate(self):
        recorder = TraceRecorder(kinds=("hit",))
        buffer = ConcurrentBufferManager(
            make_disk(), 8, LRU, shards=2, observer=recorder
        )
        with buffer.query_scope():
            buffer.fetch(0)  # miss: loads the page under this scope

        def other_client():
            with buffer.query_scope():
                buffer.fetch(0)  # hit, but in a different thread's scope

        run_threads([other_client])
        assert [event.correlated for event in recorder.events] == [False]

    def test_unscoped_requests_are_uncorrelated(self):
        recorder = TraceRecorder(kinds=("hit",))
        buffer = ConcurrentBufferManager(
            make_disk(), 8, LRU, shards=2, observer=recorder
        )
        buffer.fetch(0)
        buffer.fetch(0)
        assert [event.correlated for event in recorder.events] == [False]

    def test_scope_ids_are_process_unique(self):
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=2)
        seen = []

        def client():
            for _ in range(50):
                with buffer.query_scope() as query_id:
                    seen.append(query_id)

        run_threads([client] * 4)
        assert len(seen) == len(set(seen)) == 200


class TestMaintenance:
    def test_install_and_discard(self):
        disk = make_disk()
        buffer = ConcurrentBufferManager(disk, 8, LRU, shards=2)
        new_page = Page(page_id=99, page_type=PageType.DATA)
        disk.store(new_page)
        buffer.install(new_page)
        assert buffer.contains(99)
        assert disk.stats.reads == 0
        buffer.discard(99)
        assert not buffer.contains(99)
        assert buffer.stats.evictions == 1

    def test_mark_dirty_and_flush(self):
        disk = make_disk()
        buffer = ConcurrentBufferManager(disk, 8, LRU, shards=2)
        buffer.fetch(0)
        buffer.mark_dirty(0)
        buffer.flush()
        assert disk.stats.writes == 1

    def test_clear_with_pins_raises_atomically(self):
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=2)
        buffer.fetch(0)
        buffer.fetch(1)
        buffer.pin(0)
        with pytest.raises(BufferFullError):
            buffer.clear()
        assert buffer.contains(0) and buffer.contains(1)
        buffer.unpin(0)
        buffer.clear()
        assert len(buffer) == 0

    def test_resident_ids_spans_shards(self):
        buffer = ConcurrentBufferManager(make_disk(), 8, LRU, shards=4)
        for page_id in (0, 1, 2, 3):
            buffer.fetch(page_id)
        assert buffer.resident_ids() == [0, 1, 2, 3]


class TestStress:
    def test_8_threads_100k_fetches_no_deadlock(self):
        """The acceptance stress run: 8 threads, >=100k fetches, a small
        sharded buffer, skewed access — must terminate, keep the
        accounting identity, and issue exactly one disk read per
        coalesced miss group (disk reads == misses)."""
        n_pages = 512
        disk = make_disk(n_pages)
        buffer = ConcurrentBufferManager(disk, 64, LRU, shards=8)
        n_threads = 8
        per_thread = 12_500  # 8 x 12.5k = 100k requests

        def worker(seed):
            rng = random.Random(seed)
            def skewed():
                # 80% of requests in a hot eighth of the pages.
                if rng.random() < 0.8:
                    return rng.randrange(n_pages // 8)
                return rng.randrange(n_pages)
            remaining = per_thread
            while remaining:
                burst = min(remaining, rng.randrange(1, 8))
                with buffer.query_scope():
                    for _ in range(burst):
                        buffer.fetch(skewed())
                remaining -= burst

        run_threads(
            [lambda seed=seed: worker(seed) for seed in range(n_threads)],
            timeout=120.0,
        )
        stats = buffer.stats
        assert stats.requests == n_threads * per_thread
        assert stats.hits + stats.misses == stats.requests
        # Coalescing contract: only loaders touch the disk.
        assert disk.stats.reads == stats.misses
        for shard in buffer._shards:
            assert shard.inflight == {}

    def test_reads_match_misses(self, small_database, monkeypatch):
        """Four threads run real R*-tree queries at a 4-shard buffer: each
        miss group reads the disk once and admits one frame, even with
        threads racing on the same pages."""
        tree = small_database.tree
        disk = tree.pagefile.disk
        read = disk.read

        def slow_read(page_id):
            time.sleep(0.0002)  # a read that takes time lets misses overlap
            return read(page_id)

        monkeypatch.setattr(disk, "read", slow_read)
        reads_before = disk.stats.reads
        buffer = ConcurrentBufferManager(disk, 16, LRU, shards=4)
        streams = [
            small_database.query_set(name, 15, seed=index).queries
            for index, name in enumerate(("S-W-100", "S-W-100", "INT-W-100", "U-P"))
        ]
        start = threading.Barrier(len(streams))

        def client(queries):
            start.wait(timeout=10.0)  # start together so the streams overlap
            for query in queries:
                with buffer.query_scope():
                    query.run(tree, buffer)

        run_threads([lambda queries=queries: client(queries) for queries in streams])
        stats = buffer.stats
        assert stats.queries == 60
        assert disk.stats.reads - reads_before == stats.misses
        resident = sum(len(shard.frames) for shard in buffer.shard_managers())
        assert stats.misses == stats.evictions + resident

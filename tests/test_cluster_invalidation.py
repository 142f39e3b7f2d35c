"""Invalidation correctness: replicated and far-buffered reads never go stale.

The protocol under test: an owner installs a write, stamps the new LSN,
and *synchronously* invalidates every registered replica holder and the
far node before acking the client.  A version a writer has seen acked is
therefore the floor for every later read of that page, anywhere in the
fleet.  The directed test drives one page through the
replicate → invalidate cycle and inspects the stores; the randomized
test hammers a small hot keyspace from concurrent writers and
spread-read readers and asserts the floor invariant on every single
read.
"""

from __future__ import annotations

import random
import threading

from repro.api import ClusterSystem
from repro.storage import seed_page

PAGE_SIZE = 512


def seeded_fleet(**kwargs) -> ClusterSystem:
    fleet = ClusterSystem.build(page_size=PAGE_SIZE, **kwargs)
    for page_id in range(64):
        fleet.disk.store(seed_page(page_id, 0))
    return fleet


def payload_of(page) -> int:
    return page.entries[0].payload


def payload_of_blob_lsn(entry: tuple) -> int:
    """A replica-store entry's LSN (the store keeps ``(lsn, blob)``)."""
    return entry[0]


class TestDirectedInvalidation:
    def test_a_write_retires_every_replica_of_the_old_version(self):
        with seeded_fleet(
            nodes=3, replicas=1, capacity=16, replicate_after=2
        ) as fleet:
            with fleet.client(spread_reads=True) as client:
                # Heat page 0 until the owner pushes a replica.
                for _ in range(12):
                    client.fetch(0)
                stats = fleet.node_stats()
                assert (
                    sum(
                        node["node"]["replica_pushes"]
                        for node in stats.values()
                    )
                    > 0
                )
                # Write a new version; the ack means every old copy died.
                client.update(seed_page(0, 7))
                owner = fleet.cluster_map.owner(0)
                for node_id, thread in fleet.servers.items():
                    if node_id == owner:
                        continue
                    entry = thread.server.replica_store.get(0)
                    assert entry is None or payload_of_blob_lsn(entry) >= 1
                # Every subsequent read — rotated across owner and
                # replica — observes version 7 or newer.
                for _ in range(12):
                    assert payload_of(client.fetch(0)) >= 7

    def test_invalidations_are_acked_before_the_write_returns(self):
        with seeded_fleet(
            nodes=3, replicas=1, capacity=16, replicate_after=2
        ) as fleet:
            with fleet.client(spread_reads=True) as client:
                for _ in range(10):
                    client.fetch(1)
                for version in range(1, 6):
                    client.update(seed_page(1, version))
                    # The floor holds immediately after the ack.
                    assert payload_of(client.fetch(1)) >= version
            stats = fleet.node_stats()
            assert (
                sum(
                    node["node"]["invalidate_failures"]
                    for node in stats.values()
                )
                == 0
            )


class TestRandomizedNoStaleReads:
    PAGES = 24
    WRITERS = 2
    READERS = 3
    WRITES_PER_WRITER = 60

    def test_concurrent_writers_and_spread_readers_never_see_stale(self):
        fleet = seeded_fleet(
            nodes=3,
            replicas=1,
            far_buffer=64,
            capacity=max(8, self.PAGES // 4),
            replicate_after=2,
        )
        committed = [0] * self.PAGES
        stop = threading.Event()
        errors: list = []
        stale: list = []
        lock = threading.Lock()

        def writer(worker: int) -> None:
            rng = random.Random(worker)
            mine = [
                pid
                for pid in range(self.PAGES)
                if pid % self.WRITERS == worker
            ]
            try:
                with fleet.client() as client:
                    for _ in range(self.WRITES_PER_WRITER):
                        pid = rng.choice(mine)
                        version = committed[pid] + 1
                        client.update(
                            seed_page(pid, version)
                        )
                        # Publish only after the ack: the owner has
                        # already invalidated every copy of the old
                        # version, so the floor is now safe to raise.
                        committed[pid] = version
            except Exception as exc:  # noqa: BLE001 - re-raised below
                with lock:
                    errors.append(exc)

        def reader(worker: int) -> None:
            rng = random.Random(1000 + worker)
            try:
                with fleet.client(spread_reads=True) as client:
                    while not stop.is_set():
                        pid = rng.randrange(self.PAGES)
                        floor = committed[pid]
                        version = payload_of(client.fetch(pid))
                        if version < floor:
                            with lock:
                                stale.append((pid, version, floor))
            except Exception as exc:  # noqa: BLE001 - re-raised below
                with lock:
                    errors.append(exc)

        try:
            writers = [
                threading.Thread(target=writer, args=(index,))
                for index in range(self.WRITERS)
            ]
            readers = [
                threading.Thread(target=reader, args=(index,))
                for index in range(self.READERS)
            ]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join()
            stop.set()
            for thread in readers:
                thread.join()
            accounting = fleet.accounting()
        finally:
            fleet.close()
        assert not errors, f"soak worker failed: {errors[0]!r}"
        assert stale == [], f"stale reads observed: {stale[:5]}"
        assert (
            accounting["hits"] + accounting["misses"]
            == accounting["requests"]
        )

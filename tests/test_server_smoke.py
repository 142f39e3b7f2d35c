"""Service smoke test: 8 concurrent clients against a live page server.

By default this runs a quick (~2 s) pass so the tier-1 suite stays fast;
the CI service-smoke job sets ``REPRO_SERVE_SMOKE_SECONDS=20`` to soak
the server for the full duration.  Whatever the length, the assertions
are the same: every client operation succeeds (or is a counted
``RETRY_AFTER`` that succeeds on retry), the buffer keeps its accounting
identity ``hits + misses == requests`` under concurrency, and shutdown
drains cleanly with nothing left in flight.
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro.api import BufferSystem
from repro.client import PageClient, RetryAfter
from repro.server import ServerThread
from repro.storage import seed_page

PAGE_SIZE = 512
PAGES = 256
CLIENTS = 8


def smoke_seconds() -> float:
    return float(os.environ.get("REPRO_SERVE_SMOKE_SECONDS", "2"))


def client_loop(
    host: str,
    port: int,
    seed: int,
    deadline: float,
    results: dict,
    lock: threading.Lock,
) -> None:
    rng = random.Random(seed)
    operations = 0
    retries = 0
    failures: list[str] = []
    try:
        with PageClient(host, port, page_size=PAGE_SIZE) as client:
            while time.time() < deadline:
                page_id = rng.randrange(PAGES)
                try:
                    roll = rng.random()
                    if roll < 0.8:
                        page = client.fetch(page_id)
                        assert page.page_id == page_id
                    elif roll < 0.95:
                        client.update(seed_page(page_id, rng.randrange(1 << 20)))
                    else:
                        client.commit()
                    operations += 1
                except RetryAfter as exc:
                    retries += 1
                    time.sleep(max(exc.hint_ms, 1) / 1000.0)
    except Exception as exc:  # noqa: BLE001 - reported via results
        failures.append(f"{type(exc).__name__}: {exc}")
    with lock:
        results["operations"] = results.get("operations", 0) + operations
        results["retries"] = results.get("retries", 0) + retries
        results.setdefault("failures", []).extend(failures)


def test_eight_concurrent_clients_smoke():
    system = BufferSystem.build(
        policy="LRU",
        capacity=64,
        shards=4,
        durability=True,
        page_size=PAGE_SIZE,
    )
    for page_id in range(PAGES):
        system.disk.store(seed_page(page_id))
    base_image = system.disk.image()

    results: dict = {}
    lock = threading.Lock()
    with ServerThread(
        system, max_inflight=16, max_queued=64, page_size=PAGE_SIZE
    ) as server:
        deadline = time.time() + smoke_seconds()
        threads = [
            threading.Thread(
                target=client_loop,
                args=(server.host, server.port, 100 + i, deadline, results, lock),
            )
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert results.get("failures", []) == []
        assert results["operations"] > 0

        snapshot = server.server.stats_snapshot()
        buffer_stats = snapshot["buffer"]
        # The accounting identity must hold under full concurrency.
        assert buffer_stats["hits"] + buffer_stats["misses"] == (
            buffer_stats["requests"]
        )
        assert snapshot["server"]["responses_ok"] > 0

    # Clean shutdown: nothing in flight, nothing queued, nothing pinned.
    admission = server.server.admission
    assert admission.inflight == 0
    assert admission.queue_depth == 0
    assert system.buffer.pinned_count == 0
    # The drain flushed every dirty frame through the WAL: the durable
    # medium now equals a committed-prefix replay of the log.
    from repro.wal.bytestore import MemoryByteStore
    from repro.wal.log import WriteAheadLog
    from repro.wal.recovery import replay_durable_prefix

    wal = WriteAheadLog(
        store=MemoryByteStore(system.durability.wal.store.image())
    )
    assert system.disk.image() == replay_durable_prefix(
        wal, base_image, page_size=PAGE_SIZE
    )

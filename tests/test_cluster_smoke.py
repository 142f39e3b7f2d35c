"""Cluster smoke test: concurrent clients against a live 3-node fleet.

The quick (~2 s) pass keeps tier-1 fast; the CI cluster-smoke job sets
``REPRO_CLUSTER_SMOKE_SECONDS`` to soak longer.  Whatever the length,
the assertions match the single-node smoke test, lifted to the fleet:
every routed operation succeeds, the summed accounting identity
``hits + misses == requests`` holds across all nodes (routing,
replication and the far tier only move *where* a page is served from),
no invalidation fails, and shutdown drains every node cleanly.
"""

from __future__ import annotations

import os
import random
import threading
import time

from repro.api import ClusterSystem
from repro.storage import seed_page

PAGE_SIZE = 512
PAGES = 96
CLIENTS = 4


def smoke_seconds() -> float:
    return float(os.environ.get("REPRO_CLUSTER_SMOKE_SECONDS", "2"))


def client_loop(
    fleet: ClusterSystem,
    seed: int,
    deadline: float,
    results: dict,
    lock: threading.Lock,
) -> None:
    rng = random.Random(seed)
    operations = 0
    failures: list[str] = []
    try:
        with fleet.client(spread_reads=True) as client:
            while time.time() < deadline:
                roll = rng.random()
                try:
                    if roll < 0.70:
                        page_id = rng.randrange(PAGES)
                        page = client.fetch(page_id)
                        assert page.page_id == page_id
                    elif roll < 0.85:
                        page_ids = [
                            rng.randrange(PAGES) for _ in range(rng.randrange(2, 9))
                        ]
                        pages = client.fetch_many(page_ids)
                        assert [page.page_id for page in pages] == page_ids
                    elif roll < 0.97:
                        client.update(
                            seed_page(
                                rng.randrange(PAGES), rng.randrange(1 << 20)
                            )
                        )
                    else:
                        client.update_many(
                            [
                                seed_page(pid, rng.randrange(1 << 20))
                                for pid in rng.sample(range(PAGES), 4)
                            ]
                        )
                    operations += 1
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(f"{type(exc).__name__}: {exc}")
                    break
    except Exception as exc:  # noqa: BLE001 - collected below
        failures.append(f"client setup failed: {exc}")
    with lock:
        results["operations"] += operations
        results["failures"].extend(failures)


def test_cluster_smoke():
    fleet = ClusterSystem.build(
        nodes=3,
        replicas=1,
        far_buffer=128,
        capacity=24,
        page_size=PAGE_SIZE,
        replicate_after=2,
    )
    results = {"operations": 0, "failures": []}
    lock = threading.Lock()
    try:
        for page_id in range(PAGES):
            fleet.disk.store(seed_page(page_id, 0))
        deadline = time.time() + smoke_seconds()
        threads = [
            threading.Thread(
                target=client_loop,
                args=(fleet, 100 + index, deadline, results, lock),
            )
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        accounting = fleet.accounting()
        stats = fleet.node_stats()
    finally:
        fleet.close()

    assert results["failures"] == []
    assert results["operations"] > 0
    # The per-node identity survives summation across the fleet.
    assert accounting["hits"] + accounting["misses"] == accounting["requests"]
    node_blocks = [st["node"] for st in stats.values()]
    assert sum(block["invalidate_failures"] for block in node_blocks) == 0
    assert sum(block["forward_failures"] for block in node_blocks) == 0
    # Shutdown drained every node: nothing left in flight.
    for st in stats.values():
        assert st["admission"]["inflight"] == 0

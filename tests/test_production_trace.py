"""Reference strings of a real spatial index, recorded once, replayed forever.

Three committed :class:`RecordedTrace` fixtures pin policy decisions on
the deep, narrow descent of a real index.  Each replays from its own
catalogue, so no index is built to check it:

* ``tests/golden/mqr_lru.jsonl`` and ``tests/golden/mqr_asb.jsonl`` — 60
  mainland window queries traced through an mqr-tree (Moreau & Osborn)
  built from the mainland dataset, under LRU and under
  ``ASB(overflow_fraction=0.25)`` at 24 frames.
* ``tests/golden/production_day.jsonl`` — a "production day" captured
  through the *live page server*: the query-derived page sequences of an
  index were partitioned across four concurrent ``PageClient`` threads,
  and the server-side buffer recorded the page references in arrival
  order (``trace=True``).  The interleaving at capture time was
  nondeterministic — that is the point: it is the kind of reference
  string a production day produces, not one a generator would.  Replaying
  it is fully deterministic (logical clocks), so it doubles as a
  regression fixture and as a counterfactual workload for any policy.

The committed day was captured through an mqr-tree build.  A re-record
(new interleaving, new fixture) now traces the queries through an
R*-tree built by ``insert`` in generation order::

    REGEN_PRODUCTION=1 PYTHONPATH=src python -m pytest tests/test_production_trace.py
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import pytest

from repro.buffer.policies import ASB, LRU, make_policy
from repro.obs import RecordedTrace, replay_recorded
from repro.obs.trace import record_run

FIXTURE = Path(__file__).parent / "golden" / "production_day.jsonl"

PAGE_SIZE = 512
CLIENTS = 4
SEED = 19
N_OBJECTS = 2_000
N_QUERIES = 120
NODE_ENTRIES = 12
FIXTURE_CAPACITY = 32
FIXTURE_REQUESTS = 1_200
FIXTURE_POLICY = "ASB"

#: Each index-derived fixture and the policy it was recorded under.
INDEX_FIXTURES = {
    "mqr_lru": LRU,
    "mqr_asb": lambda: ASB(overflow_fraction=0.25),
    "production_day": lambda: make_policy(FIXTURE_POLICY),
}


def golden(name: str) -> Path:
    return FIXTURE.parent / f"{name}.jsonl"


def _record_production_day() -> RecordedTrace:
    """Run one server session and canonicalise its arrival-order stream."""
    from repro.api import BufferSystem
    from repro.client import PageClient, RetryAfter
    from repro.datasets.places import synthetic_places
    from repro.datasets.synthetic import us_mainland_like
    from repro.obs.trace import record_trace
    from repro.sam import RStarTree
    from repro.server import ServerThread
    from repro.storage import seed_page
    from repro.workloads.sets import make_query_set

    # The workload: mainland window queries traced through an R*-tree
    # built by insertion in generation order — each query yields one
    # root-to-leaf page sequence.  Small nodes keep the descent deep
    # enough for a day of at least 500 requests.
    dataset = us_mainland_like(n_objects=N_OBJECTS, seed=SEED)
    tree = RStarTree(
        max_dir_entries=NODE_ENTRIES, max_data_entries=NODE_ENTRIES
    )
    for rect, object_id in dataset.items():
        tree.insert(rect, object_id)
    places = synthetic_places(dataset, count=200, seed=SEED)
    queries = make_query_set(
        "S-W-100", dataset, places, N_QUERIES, SEED
    ).queries
    access = record_trace(tree, queries)
    sequences: dict[int, list[int]] = {}
    for page_id, query in access.references:
        sequences.setdefault(query, []).append(page_id)
    ordered = [sequences[query] for query in sorted(sequences)]

    # The session: four clients each replay a strided share of the query
    # sequences against a live server whose buffer records every fetch.
    system = BufferSystem.build(
        policy=FIXTURE_POLICY,
        capacity=48,
        shards=2,
        durability=True,
        page_size=PAGE_SIZE,
        trace=True,
    )
    for page_id in tree.all_page_ids():
        system.disk.store(seed_page(page_id))

    def client_session(worker: int) -> None:
        with PageClient(server.host, server.port, page_size=PAGE_SIZE) as client:
            for position, sequence in enumerate(ordered[worker::CLIENTS]):
                for page_id in sequence:
                    while True:
                        try:
                            client.fetch(page_id)
                            break
                        except RetryAfter:
                            continue
                # A mixed session: every few queries the client writes
                # back one of the pages it just read, and periodically
                # asks for a durability point.
                if position % 5 == worker % 5:
                    page_id = sequence[-1]
                    while True:
                        try:
                            client.update(seed_page(page_id, position))
                            break
                        except RetryAfter:
                            continue
                if position % 7 == 6:
                    client.commit()

    with ServerThread(
        system, max_inflight=16, max_queued=64, page_size=PAGE_SIZE
    ) as server:
        threads = [
            threading.Thread(target=client_session, args=(worker,))
            for worker in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # Canonicalise: the arrival-order fetch stream, catalogued against
    # the *index* pages (types/levels/MBRs), re-run under the fixture
    # policy so replaying the file is exactly deterministic.
    requests = [
        (event.page_id, event.query)
        for event in system.recorder.events
        if event.kind == "fetch"
    ][:FIXTURE_REQUESTS]
    system.close()
    return record_run(
        requests,
        tree.pagefile.disk,
        make_policy(FIXTURE_POLICY),
        FIXTURE_CAPACITY,
    )


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REGEN_PRODUCTION"):
        FIXTURE.parent.mkdir(exist_ok=True)
        _record_production_day().save(FIXTURE)


@pytest.mark.parametrize("name", sorted(INDEX_FIXTURES))
class TestIndexTraceFixtures:
    def test_fixture_exists(self, name):
        assert golden(name).exists()

    def test_replay_reproduces_fixture(self, name):
        """The recorded policy at the recorded capacity reproduces events
        and stats exactly — the contract that makes a fixture a
        regression gate."""
        trace = RecordedTrace.load(golden(name))
        replayed = replay_recorded(trace, INDEX_FIXTURES[name]())
        assert replayed.events == trace.events
        assert replayed.stats == trace.stats

    def test_catalogue_spans_three_levels(self, name):
        """A real index descent: root, interior and leaf levels."""
        trace = RecordedTrace.load(golden(name))
        levels = {level for _, level, _ in trace.catalogue.values()}
        assert len(levels) >= 3

    def test_fixture_exercises_eviction(self, name):
        trace = RecordedTrace.load(golden(name))
        assert trace.events_of("evict")
        assert trace.stats["requests"] == len(trace.requests())


class TestProductionDayTrace:
    def test_fixture_exists_and_is_substantial(self):
        assert FIXTURE.exists(), (
            f"missing fixture {FIXTURE}; record one with REGEN_PRODUCTION=1"
        )
        trace = RecordedTrace.load(FIXTURE)
        assert trace.policy == FIXTURE_POLICY
        assert trace.capacity == FIXTURE_CAPACITY
        assert len(trace.requests()) >= 500

    def test_replay_twice_is_stable(self):
        trace = RecordedTrace.load(FIXTURE)
        first = replay_recorded(trace, make_policy(trace.policy))
        second = replay_recorded(trace, make_policy(trace.policy))
        assert first.events == second.events

    def test_counterfactual_replay_preserves_requests(self):
        """A different policy sees the same request stream (only the
        decisions change) and keeps the accounting identity."""
        trace = RecordedTrace.load(FIXTURE)
        replayed = replay_recorded(trace, make_policy("LRU"))
        assert replayed.requests() == trace.requests()
        stats = replayed.stats
        assert stats["hits"] + stats["misses"] == stats["requests"]

    def test_buffer_system_replay_reads_the_fixture(self):
        """The fixture's catalogue backs a buffer under any policy, every
        request of the day is served, and every miss reads the disk."""
        from repro.obs.trace import disk_from_catalogue, replay_requests

        trace = RecordedTrace.load(FIXTURE)
        for policy in ("LRU", "ASB"):
            buffer = replay_requests(
                disk_from_catalogue(trace.catalogue),
                trace.requests(),
                make_policy(policy),
                trace.capacity,
            )
            stats = buffer.stats
            assert stats.requests == len(trace.requests())
            assert stats.hits + stats.misses == stats.requests
            assert buffer.disk.stats.reads == stats.misses

"""The canned "production day" trace: recorded once, replayed forever.

``tests/golden/production_day.jsonl`` is a :class:`RecordedTrace` whose
request stream was captured through the *live page server*: an mqr-tree
was built from the streamed mainland dataset, its query-derived page
sequences were partitioned across four concurrent ``PageClient``
threads, and the server-side buffer recorded the page references in
arrival order (``trace=True``).  The interleaving at capture time was
nondeterministic — that is the point: it is the kind of reference
string a production day produces, not one a generator would.  The
canonical fixture pins one such day; replaying it is fully
deterministic (logical clocks), so it doubles as a regression fixture
and as the ``bench matrix --replay`` leg.

To re-record a fresh production day (new interleaving, new fixture)::

    REGEN_PRODUCTION=1 PYTHONPATH=src python -m pytest tests/test_production_trace.py
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

import pytest

from repro.buffer.policies import make_policy
from repro.obs import RecordedTrace, replay_recorded
from repro.obs.trace import record_run

FIXTURE = Path(__file__).parent / "golden" / "production_day.jsonl"

PAGE_SIZE = 512
CLIENTS = 4
SEED = 19
N_OBJECTS = 2_000
N_QUERIES = 120
FIXTURE_CAPACITY = 32
FIXTURE_REQUESTS = 1_200
FIXTURE_POLICY = "ASB"


def _record_production_day() -> RecordedTrace:
    """Run one server session and canonicalise its arrival-order stream."""
    from repro.api import BufferSystem
    from repro.client import PageClient, RetryAfter
    from repro.datasets.places import synthetic_places
    from repro.datasets.synthetic import us_mainland_like_stream
    from repro.experiments.trace import record_trace
    from repro.sam.mqr import MqrTree
    from repro.server import ServerThread
    from repro.storage import seed_page
    from repro.workloads.sets import make_query_set

    # The workload: mainland window queries traced through a streamed
    # mqr-tree build — each query yields one root-to-leaf page sequence.
    stream = us_mainland_like_stream(
        n_objects=N_OBJECTS, seed=SEED, chunk_size=500
    )
    tree = MqrTree()
    for rect, object_id in stream.items():
        tree.insert(rect, object_id)
    places = synthetic_places(stream.skeleton, count=200, seed=SEED)
    queries = make_query_set(
        "S-W-100", stream.skeleton, places, N_QUERIES, SEED
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


class TestProductionDayTrace:
    def test_fixture_exists_and_is_substantial(self):
        assert FIXTURE.exists(), (
            f"missing fixture {FIXTURE}; record one with REGEN_PRODUCTION=1"
        )
        trace = RecordedTrace.load(FIXTURE)
        assert trace.policy == FIXTURE_POLICY
        assert trace.capacity == FIXTURE_CAPACITY
        assert len(trace.requests()) >= 500
        # The stream must exercise a real index descent: directory and
        # data pages across at least three levels.
        levels = {level for _, level, _ in trace.catalogue.values()}
        assert len(levels) >= 3

    def test_replay_is_deterministic(self):
        """Same policy class + capacity reproduces events and stats
        exactly — the contract that makes the fixture a regression gate."""
        trace = RecordedTrace.load(FIXTURE)
        replayed = replay_recorded(trace, make_policy(trace.policy))
        assert replayed.events == trace.events
        assert replayed.stats == trace.stats

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

    def test_matrix_replay_leg_reads_the_fixture(self):
        """The ``bench matrix --replay`` leg consumes this fixture."""
        from repro.experiments.matrix import PRODUCTION_TRACE, replay_production

        assert Path(PRODUCTION_TRACE) == Path(
            "tests/golden/production_day.jsonl"
        )
        results = replay_production(str(FIXTURE), ("LRU", "ASB"))
        trace = RecordedTrace.load(FIXTURE)
        for metrics in results.values():
            assert metrics.requests == len(trace.requests())
            assert metrics.accounting_ok

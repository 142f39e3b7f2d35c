"""Golden traces driven by mqr-tree query workloads.

The existing golden fixtures (``tests/golden/{lru,asb,...}.jsonl``) pin
policy decisions on a hand-built synthetic page population.  These pin
them on the page-reference strings of a *real* spatial index: a
canonical mqr-tree is built from the streamed mainland dataset, a
mainland query workload is traced through it, and the resulting
reference string is recorded under LRU and ASB.
Any change to the mqr-tree's structure (node layout, insertion
placement, search order) or to the policies' decisions shows up as an
event-level diff against a checked-in JSON-lines file.

To regenerate after an *intentional* behaviour change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_mqr.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.buffer.policies import ASB, LRU
from repro.datasets.places import synthetic_places
from repro.datasets.synthetic import us_mainland_like_stream
from repro.obs import RecordedTrace, record_run, replay_recorded
from repro.obs.trace import AccessTrace, disk_from_catalogue, record_trace
from repro.sam.mqr import MqrTree
from repro.workloads.sets import make_query_set

GOLDEN_DIR = Path(__file__).parent / "golden"

CAPACITY = 24
N_OBJECTS = 1_500
N_QUERIES = 60
SEED = 11

GOLDEN_POLICIES = {
    "mqr_lru": LRU,
    "mqr_asb": lambda: ASB(overflow_fraction=0.25),
}


def canonical_tree() -> MqrTree:
    """The pinned mqr-tree: streamed mainland build, fixed seed."""
    stream = us_mainland_like_stream(
        n_objects=N_OBJECTS, seed=SEED, chunk_size=500
    )
    tree = MqrTree()
    for rect, object_id in stream.items():
        tree.insert(rect, object_id)
    return tree


def canonical_trace() -> AccessTrace:
    """The mainland query workload traced through the canonical tree."""
    stream = us_mainland_like_stream(n_objects=1, seed=SEED)
    places = synthetic_places(stream.skeleton, count=200, seed=SEED)
    queries = make_query_set(
        "S-W-100", stream.skeleton, places, N_QUERIES, SEED
    ).queries
    return record_trace(canonical_tree(), queries)


def record_canonical(name: str) -> RecordedTrace:
    trace = canonical_trace()
    return record_run(
        trace.references,
        disk_from_catalogue(trace.catalogue),
        GOLDEN_POLICIES[name](),
        CAPACITY,
    )


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.jsonl"


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name in GOLDEN_POLICIES:
            record_canonical(name).save(golden_path(name))


@pytest.mark.parametrize("name", sorted(GOLDEN_POLICIES))
class TestGoldenMqrTraces:
    def test_fixture_exists(self, name):
        assert golden_path(name).exists(), (
            f"missing fixture {golden_path(name)}; regenerate with "
            "REGEN_GOLDEN=1"
        )

    def test_recording_matches_fixture(self, name):
        """A fresh tree build + trace must reproduce the pinned events."""
        golden = RecordedTrace.load(golden_path(name))
        fresh = record_canonical(name)
        assert fresh.policy == golden.policy
        assert fresh.capacity == golden.capacity
        assert fresh.stats == golden.stats
        assert len(fresh.events) == len(golden.events)
        for position, (ours, theirs) in enumerate(
            zip(fresh.events, golden.events)
        ):
            assert ours == theirs, (
                f"{name}: event {position} diverged: {ours} != {theirs}"
            )

    def test_replay_reproduces_fixture(self, name):
        golden = RecordedTrace.load(golden_path(name))
        replayed = replay_recorded(golden, GOLDEN_POLICIES[name]())
        assert replayed.events == golden.events
        assert replayed.stats == golden.stats


class TestMqrTraceShape:
    def test_trace_touches_directory_and_data_pages(self):
        """The mqr reference string must exercise a multi-level descent —
        the structural property that distinguishes it from a flat scan."""
        trace = canonical_trace()
        levels = {level for _, (_, level, _) in trace.catalogue.items()}
        assert len(levels) >= 3  # root + interior + leaves

    def test_fixtures_exercise_eviction(self):
        for name in GOLDEN_POLICIES:
            golden = RecordedTrace.load(golden_path(name))
            assert golden.events_of("evict"), name
            assert golden.stats["requests"] == len(golden.requests()), name

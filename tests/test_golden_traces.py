"""Golden-trace regression tests.

A canonical 500-request workload is recorded once per registered policy
into ``tests/golden/*.jsonl`` (checked in).  Each test re-records the
workload and compares against the stored fixture event by event and
counter by counter — any change to a policy's decision sequence, the
manager's emission contract, or the trace format shows up as a diff
against a human-readable JSON-lines file.

Because all buffer timestamps are logical, the fixtures are exact, not
statistical.  To regenerate after an *intentional* behaviour change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py
"""

from __future__ import annotations

import os
import random
from pathlib import Path

import pytest

from repro.buffer.policies import (
    ASB,
    AWRP,
    LRUK,
    SLRU,
    EEvA,
    LRU,
    SpatialPolicy,
)
from repro.geometry.rect import Rect
from repro.obs import RecordedTrace, record_run, replay_recorded
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType

GOLDEN_DIR = Path(__file__).parent / "golden"

CAPACITY = 16
N_PAGES = 48
N_REQUESTS = 500

#: The registered policies and their fixture names.
GOLDEN_POLICIES = {
    "lru": LRU,
    "lru_2": lambda: LRUK(k=2),
    "slru": lambda: SLRU(candidate_fraction=0.25),
    "spatial_a": lambda: SpatialPolicy("A"),
    "spatial_ea": lambda: SpatialPolicy("EA"),
    "spatial_m": lambda: SpatialPolicy("M"),
    "spatial_em": lambda: SpatialPolicy("EM"),
    "spatial_eo": lambda: SpatialPolicy("EO"),
    "asb": lambda: ASB(overflow_fraction=0.25),
    "awrp": AWRP,
    "eeva": EEvA,
}


def canonical_disk() -> SimulatedDisk:
    """A deterministic page population with varied spatial footprints."""
    rng = random.Random(2002)
    disk = SimulatedDisk()
    for page_id in range(N_PAGES):
        directory = page_id % 4 == 0
        page = Page(
            page_id=page_id,
            page_type=PageType.DIRECTORY if directory else PageType.DATA,
            level=1 if directory else 0,
        )
        for index in range(5):
            x, y = rng.random(), rng.random()
            w = rng.random() * (0.25 if directory else 0.08)
            h = rng.random() * (0.25 if directory else 0.08)
            page.entries.append(
                PageEntry(mbr=Rect(x, y, x + w, y + h), payload=index)
            )
        disk.store(page)
    return disk


def canonical_workload() -> list[tuple[int, int]]:
    """500 requests: a hot set, a drifting phase, and query correlation."""
    rng = random.Random(533)
    requests: list[tuple[int, int]] = []
    query = 0
    for position in range(N_REQUESTS):
        if position % 6 == 0:
            query += 1
        phase = position * 3 // N_REQUESTS  # three workload phases
        if phase == 0:  # hot set
            page_id = rng.randrange(N_PAGES // 4)
        elif phase == 1:  # uniform
            page_id = rng.randrange(N_PAGES)
        else:  # shifted hot set with uniform background
            if rng.random() < 0.7:
                page_id = N_PAGES // 2 + rng.randrange(N_PAGES // 4)
            else:
                page_id = rng.randrange(N_PAGES)
        requests.append((page_id, query))
    return requests


def record_canonical(name: str) -> RecordedTrace:
    return record_run(
        canonical_workload(), canonical_disk(), GOLDEN_POLICIES[name](), CAPACITY
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
class TestGoldenTraces:
    def test_fixture_exists(self, name):
        assert golden_path(name).exists(), (
            f"missing fixture {golden_path(name)}; regenerate with "
            "REGEN_GOLDEN=1"
        )

    def test_recording_matches_fixture(self, name):
        """A fresh recording must reproduce the pinned decision sequence."""
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
        """Replaying the stored trace yields the identical event stream
        and statistics snapshot — the determinism contract."""
        golden = RecordedTrace.load(golden_path(name))
        replayed = replay_recorded(golden, GOLDEN_POLICIES[name]())
        assert replayed.events == golden.events
        assert replayed.stats == golden.stats


class TestGoldenCoverage:
    def test_workload_is_canonical(self):
        requests = canonical_workload()
        assert len(requests) == N_REQUESTS
        assert requests == canonical_workload()  # deterministic

    def test_asb_fixture_exercises_adaptation(self):
        golden = RecordedTrace.load(golden_path("asb"))
        assert golden.events_of("promote")
        assert golden.events_of("adapt")

    def test_all_fixtures_exercise_eviction(self):
        for name in GOLDEN_POLICIES:
            golden = RecordedTrace.load(golden_path(name))
            assert golden.events_of("evict"), name
            assert int(golden.stats["requests"]) == N_REQUESTS, name

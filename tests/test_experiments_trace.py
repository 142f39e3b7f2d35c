"""Tests for recording a query set's reference string and replaying it."""

from __future__ import annotations

import pytest

from repro.buffer.policies.asb import ASB
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.lru_k import LRUK
from repro.buffer.policies.spatial import SpatialPolicy
from repro.experiments.harness import replay
from repro.obs.trace import AccessTrace, record_trace, replay_requests


def replay_stats(trace, policy, capacity):
    return replay_requests(trace.catalogue, trace.references, policy, capacity).stats


@pytest.fixture(scope="module")
def recorded(small_database_module):
    database = small_database_module
    query_set = database.query_set("S-W-100", 40)
    return database, query_set, record_trace(database.tree, query_set)


@pytest.fixture(scope="module")
def small_database_module(request):
    # Reuse the session fixture through the request to keep one build.
    return request.getfixturevalue("small_database")


class TestRecording:
    def test_trace_structure(self, recorded):
        database, query_set, trace = recorded
        assert len(trace) > 0
        assert {query for _, query in trace.references} == set(range(len(query_set)))
        assert trace.distinct_pages <= database.page_count

    def test_every_reference_catalogued(self, recorded):
        _, _, trace = recorded
        for page_id, _ in trace.references:
            assert page_id in trace.catalogue

    def test_recording_does_not_touch_disk_stats(self, small_database):
        reads_before = small_database.tree.pagefile.disk.stats.reads
        record_trace(
            small_database.tree, small_database.query_set("U-P", 10)
        )
        assert small_database.tree.pagefile.disk.stats.reads == reads_before


class TestReplayFidelity:
    @pytest.mark.parametrize(
        "policy_factory",
        [LRU, lambda: LRUK(k=2), lambda: SpatialPolicy("A"), ASB],
        ids=["LRU", "LRU-2", "A", "ASB"],
    )
    def test_trace_replay_matches_live_run(self, recorded, policy_factory):
        """Trace-driven and live simulation must agree on every counter —
        the property that makes traces a valid experimental shortcut."""
        database, query_set, trace = recorded
        live = replay(database.tree, query_set, policy_factory(), 24).stats
        traced = replay_stats(trace, policy_factory(), 24)
        assert traced.misses == live.misses
        assert traced.hits == live.hits
        assert traced.requests == live.requests

    def test_replay_capacity_matters(self, recorded):
        _, _, trace = recorded
        small = replay_stats(trace, LRU(), 8)
        large = replay_stats(trace, LRU(), 64)
        assert large.misses <= small.misses


class TestPersistence:
    def test_empty_trace(self):
        trace = AccessTrace()
        assert len(trace) == 0 and trace.distinct_pages == 0
        assert replay_stats(trace, LRU(), 4).requests == 0

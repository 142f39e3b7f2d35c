"""Tests for recording a query set's reference string and replaying it."""

from __future__ import annotations

import pytest

from repro.buffer.policies import make_policy, policy_names
from repro.buffer.policies.lru import LRU
from repro.experiments.harness import FOUR_POLICIES, Database, replay
from repro.obs.trace import (
    AccessTrace,
    disk_from_catalogue,
    record_trace,
    replay_requests,
)
from repro.sam.gridfile import GridFile


def replay_stats(trace, policy, capacity):
    return replay_requests(
        disk_from_catalogue(trace.catalogue), trace.references, policy, capacity
    ).stats


def measured(disk, run):
    """``run()``'s result, and its change of the disk's reads, sequential
    reads and simulated time."""
    stats = disk.stats
    before = (stats.reads, stats.sequential_reads, stats.elapsed_ms)
    result = run()
    return result, (
        stats.reads - before[0],
        stats.sequential_reads - before[1],
        stats.elapsed_ms - before[2],
    )


def assert_replay_matches_live(database, query_set, trace, policy_factory, capacity):
    """Replaying the trace over the index's own disk gives the live run's
    buffer counters and the same disk deltas.  Both runs start from the same
    sequential-read marker: each is preceded by a read of the first page."""
    disk = database.tree.pagefile.disk
    first_page = trace.references[0][0]
    replay_requests(disk, [(first_page, 0)], LRU(), 8)
    live, live_disk = measured(
        disk, lambda: replay(database.tree, query_set, policy_factory(), capacity)
    )
    replay_requests(disk, [(first_page, 0)], LRU(), 8)
    traced, traced_disk = measured(
        disk,
        lambda: replay_requests(disk, trace.references, policy_factory(), capacity),
    )
    assert traced.stats.misses == live.stats.misses
    assert traced.stats.hits == live.stats.hits
    assert traced.stats.requests == live.stats.requests
    assert traced_disk == live_disk


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
        """Recording moves no disk counter, and a replay's disk deltas are
        the same whether or not a recording ran just before it: the probe
        starts at the page after the recording's last reference, which would
        count as a sequential read had the recording moved the marker."""
        disk = small_database.tree.pagefile.disk
        query_set = small_database.query_set("U-W-100", 10)
        last = record_trace(small_database.tree, query_set).references[-1][0]
        assert last + 1 in disk and last + 5 in disk
        probe = [(last + 1, 0), (last + 5, 1)]

        def run_probe():
            replay_requests(disk, probe, LRU(), 8)

        run_probe()
        _, without_recording = measured(disk, run_probe)
        _, recording = measured(
            disk, lambda: record_trace(small_database.tree, query_set)
        )
        assert recording == (0, 0, 0.0)
        assert measured(disk, run_probe)[1] == without_recording

    def test_database_trace_is_recorded_once(self, small_database):
        trace = small_database.trace("U-P", 10, seed=3)
        assert small_database.trace("U-P", 10, seed=3) is trace
        fresh = record_trace(small_database.tree, small_database.query_set("U-P", 10, 3))
        assert trace.references == fresh.references
        assert trace.catalogue == fresh.catalogue


class TestReplayFidelity:
    @pytest.mark.parametrize("name", policy_names())
    def test_trace_replay_matches_live_run(self, recorded, name):
        """Trace-driven and live simulation must agree on every counter —
        the property that makes traces a valid experimental shortcut — for
        every registered policy at a small and a larger buffer."""
        database, query_set, trace = recorded
        for capacity in (8, 24):
            assert_replay_matches_live(
                database, query_set, trace, lambda: make_policy(name), capacity
            )

    def test_trace_replay_matches_live_run_on_a_grid_file(self, small_dataset):
        """The same on a non-hierarchical index (the path ``ablation_sams``
        takes through the grid)."""
        gridfile = GridFile(small_dataset.space, bucket_capacity=42, max_splits=32)
        for rect, payload in small_dataset.items():
            gridfile.insert(rect, payload)
        database = Database(small_dataset, gridfile, [])
        query_set = database.query_set("U-W-100", 30)
        trace = database.trace("U-W-100", 30)
        for factory in FOUR_POLICIES.values():
            assert_replay_matches_live(database, query_set, trace, factory, 24)

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

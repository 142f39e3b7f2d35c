"""Tests for stack-distance analysis, the LRU miss curve, OPT, and profiles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.policies import LRU, make_policy, policy_names
from repro.experiments.analysis import (
    lru_miss_curve,
    opt_misses,
    profile_trace,
    stack_distances,
)
from repro.obs.trace import (
    AccessTrace,
    disk_from_catalogue,
    record_trace,
    replay_requests,
)


def trace_of(reference_ids, queries=None):
    """Build a minimal AccessTrace from raw page-id references."""
    trace = AccessTrace()
    for index, page_id in enumerate(reference_ids):
        query = queries[index] if queries else index
        trace.references.append((page_id, query))
    return trace


def disk_of(trace):
    """A disk holding one one-entry data page per page the trace references."""
    return disk_from_catalogue(
        {
            page_id: ("data", 0, [(0.0, 0.0, float(page_id + 1), 1.0)])
            for page_id, _ in trace.references
        }
    )


reference_strings = st.lists(
    st.integers(min_value=0, max_value=12), min_size=1, max_size=150
)


class TestStackDistances:
    def test_known_string(self):
        #  a  b  c  a  b  b  d  a
        distances = stack_distances(trace_of([0, 1, 2, 0, 1, 1, 3, 0]))
        # Final reference to page 0: distinct pages touched since its
        # previous reference are {1, 3} (page 1 at depth above), depth 2.
        assert distances == [-1, -1, -1, 2, 2, 0, -1, 2]

    def test_first_references_are_cold(self):
        distances = stack_distances(trace_of([5, 6, 7]))
        assert distances == [-1, -1, -1]

    def test_immediate_rereference_distance_zero(self):
        assert stack_distances(trace_of([4, 4, 4]))[1:] == [0, 0]


class TestLruMissCurve:
    def test_monotone_nonincreasing(self):
        trace = trace_of([0, 1, 2, 0, 3, 1, 4, 2, 0, 1])
        curve = lru_miss_curve(trace, 8)
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    def test_large_capacity_leaves_cold_misses(self):
        trace = trace_of([0, 1, 2, 0, 1, 2, 0, 1, 2])
        curve = lru_miss_curve(trace, 5)
        assert curve[-1] == 3  # only the compulsory misses remain

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            lru_miss_curve(trace_of([0]), 0)

    @settings(max_examples=40, deadline=None)
    @given(reference_strings, st.integers(min_value=1, max_value=10))
    def test_curve_matches_real_lru_buffer(self, references, capacity):
        """The analytic curve must equal an actual LRU simulation."""
        trace = trace_of(references)
        curve = lru_miss_curve(trace, capacity)
        simulated = replay_requests(
            disk_of(trace), trace.references, LRU(), capacity
        ).stats.misses
        assert curve[capacity - 1] == simulated


class TestOpt:
    def test_textbook_example(self):
        # The classic Belady example: 3 frames.
        references = [7, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2, 1, 2, 0, 1, 7, 0, 1]
        assert opt_misses(trace_of(references), 3) == 9

    def test_capacity_one(self):
        trace = trace_of([0, 0, 1, 1, 0])
        assert opt_misses(trace, 1) == 3

    def test_all_fit(self):
        trace = trace_of([0, 1, 2, 0, 1, 2])
        assert opt_misses(trace, 3) == 3

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            opt_misses(trace_of([0]), 0)

    @settings(max_examples=40, deadline=None)
    @given(reference_strings, st.integers(min_value=1, max_value=8))
    def test_opt_is_a_lower_bound_for_every_policy(self, references, capacity):
        """No online policy beats Belady — the defining property, checked
        for every registered policy."""
        trace = trace_of(references)
        bound = opt_misses(trace, capacity)
        disk = disk_of(trace)
        for name in policy_names():
            misses = replay_requests(
                disk, trace.references, make_policy(name), capacity
            ).stats.misses
            assert misses >= bound, name

    @settings(max_examples=30, deadline=None)
    @given(reference_strings, st.integers(min_value=1, max_value=8))
    def test_opt_monotone_in_capacity(self, references, capacity):
        trace = trace_of(references)
        assert opt_misses(trace, capacity + 1) <= opt_misses(trace, capacity)


class TestProfiles:
    def test_real_trace_profile(self, small_database):
        query_set = small_database.query_set("S-W-100", 30)
        trace = record_trace(small_database.tree, query_set)
        profile = profile_trace(trace, small_database.tree.pagefile.disk)
        assert profile.total_references == len(trace)
        assert profile.distinct_pages == trace.distinct_pages
        assert "directory" in profile.by_type
        assert "data" in profile.by_type

    def test_directories_hotter_than_data(self, small_database):
        """The quantitative basis of LRU-T/LRU-P: directory pages attract
        far more references per page than data pages."""
        query_set = small_database.query_set("U-W-100", 50)
        trace = record_trace(small_database.tree, query_set)
        profile = profile_trace(trace, small_database.tree.pagefile.disk)
        directory = profile.by_type["directory"]
        data = profile.by_type["data"]
        assert directory.references_per_page > 5 * data.references_per_page

    def test_root_level_hottest(self, small_database):
        query_set = small_database.query_set("U-P", 40)
        trace = record_trace(small_database.tree, query_set)
        profile = profile_trace(trace, small_database.tree.pagefile.disk)
        top_level = max(profile.by_level)
        assert profile.by_level[top_level].references_per_page == max(
            p.references_per_page for p in profile.by_level.values()
        )

    def test_to_text_renders(self, small_database):
        query_set = small_database.query_set("ID-P", 20)
        trace = record_trace(small_database.tree, query_set)
        text = profile_trace(trace, small_database.tree.pagefile.disk).to_text()
        assert "references" in text
        assert "type" in text

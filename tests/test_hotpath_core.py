"""Equivalence and deferred-state tests for the slot-based hot path.

The fast path inlines the reference steps into one closure and defers only
the recency-chain splice, which is replayed before any reader can observe
the chain; attaching an observer forces the class-level reference path.
These tests pin the contract between the two:

* driving the same reference string through both modes produces the same
  hit/miss decisions, statistics, resident set, recency order, access
  counts, clock and per-frame ``last_access`` / ``last_query`` stamps —
  for every registered policy;
* management operations (``switch_policy``, ``clear``, ``discard``)
  issued while deferred splices are pending behave exactly as if every
  hit had been spliced eagerly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.manager import BufferManager
from repro.buffer.policies import make_policy, policy_names
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType

N_PAGES = 24
CAPACITY = 6


class NullSink:
    """An observer that records nothing — its presence alone forces the
    reference (seam-checked) fetch path."""

    def emit(self, event) -> None:  # noqa: ARG002
        pass


def make_disk(n_pages: int = N_PAGES) -> SimulatedDisk:
    disk = SimulatedDisk()
    for page_id in range(n_pages):
        page = Page(page_id=page_id, page_type=PageType.DATA)
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload=page_id))
        disk.store(page)
    return disk


def make_buffer(policy_name: str, observed: bool) -> BufferManager:
    buffer = BufferManager(make_disk(), CAPACITY, make_policy(policy_name))
    if observed:
        buffer.observer = NullSink()
    return buffer


def snapshot(buffer: BufferManager) -> dict:
    """Everything both modes must agree on (order matters for recency)."""
    return {
        "requests": buffer.stats.requests,
        "hits": buffer.stats.hits,
        "misses": buffer.stats.misses,
        "evictions": buffer.stats.evictions,
        "clock": buffer.clock,
        "recency": [frame.page.page_id for frame in buffer.frames.iter_recency()],
        "access_counts": {
            frame.page.page_id: frame.access_count
            for frame in buffer.frames.values()
        },
        "stamps": {
            frame.page.page_id: (frame.last_access, frame.last_query)
            for frame in buffer.frames.values()
        },
    }


# Each step: (page_id, scoped, peek).  ``scoped`` wraps the fetch in a
# query scope (unscoped fetches draw a fresh query id each); ``peek``
# reads the statistics right after the fetch.
trace_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_PAGES - 1),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=120,
)


def drive(buffer: BufferManager, steps) -> list[int]:
    """Replay a trace; return the per-step miss counter (the decisions)."""
    decisions = []
    for page_id, scoped, peek in steps:
        if scoped:
            with buffer.query_scope():
                buffer.fetch(page_id)
        else:
            buffer.fetch(page_id)
        if peek:
            decisions.append(buffer.stats.misses)
    decisions.append(buffer.stats.misses)
    return decisions


class TestCrossModeEquivalence:
    @settings(max_examples=130, deadline=None)
    @given(trace_steps, st.sampled_from(policy_names()))
    def test_fast_path_matches_decomposed_path(self, steps, policy_name):
        fast = make_buffer(policy_name, observed=False)
        slow = make_buffer(policy_name, observed=True)
        fast_decisions = drive(fast, steps)
        slow_decisions = drive(slow, steps)
        assert fast_decisions == slow_decisions
        assert snapshot(fast) == snapshot(slow)

    @settings(max_examples=10, deadline=None)
    @given(trace_steps)
    def test_observer_attach_mid_trace_preserves_state(self, steps):
        """Flipping a hot buffer into decomposed mode loses nothing."""
        half = len(steps) // 2
        fast = make_buffer("LRU", observed=False)
        slow = make_buffer("LRU", observed=True)
        drive(fast, steps[:half])
        drive(slow, steps[:half])
        fast.observer = NullSink()  # forces a path rebuild
        drive(fast, steps[half:])
        drive(slow, steps[half:])
        assert snapshot(fast) == snapshot(slow)


class TestDeferredStateManagement:
    def fill_with_pending_hits(self, policy_name: str = "LRU") -> BufferManager:
        buffer = make_buffer(policy_name, observed=False)
        for page_id in range(CAPACITY):
            buffer.fetch(page_id)
        for page_id in (2, 0, 4, 2, 1):  # all hits → splices deferred
            buffer.fetch(page_id)
        assert buffer.frames.pending, "test setup: expected deferred splices"
        return buffer

    def test_switch_policy_with_pending_hits_loses_no_pages(self):
        buffer = self.fill_with_pending_hits()
        resident_before = set(buffer.frames.keys())
        buffer.switch_policy(make_policy("MRU"))
        assert set(buffer.frames.keys()) == resident_before
        assert len(buffer) == CAPACITY
        stats = buffer.stats
        assert stats.hits + stats.misses == stats.requests
        assert stats.hits == 5
        # The new policy must be able to evict sanely right away.
        buffer.fetch(CAPACITY + 1)
        assert len(buffer) == CAPACITY

    def test_switch_policy_seeds_deferred_recency_order(self):
        buffer = self.fill_with_pending_hits()
        expected = [f.page.page_id for f in buffer.frames.iter_recency()]
        buffer.switch_policy(make_policy("LRU"))
        assert [f.page.page_id for f in buffer.frames.iter_recency()] == expected

    def test_clear_with_pending_hits_keeps_the_clock(self):
        buffer = self.fill_with_pending_hits()
        requests = CAPACITY + 5
        buffer.clear()
        assert len(buffer) == 0
        assert buffer.stats.requests == 0
        # clear() resets the statistics, never the clock.
        assert buffer.clock == requests

    def test_discard_with_pending_hits_drops_only_the_target(self):
        buffer = self.fill_with_pending_hits()
        order = [f.page.page_id for f in buffer.frames.iter_recency()]
        buffer = self.fill_with_pending_hits()
        evictions = buffer.stats.evictions
        buffer.discard(4)
        assert not buffer.contains(4)
        assert buffer.stats.evictions == evictions + 1
        survivors = [f.page.page_id for f in buffer.frames.iter_recency()]
        assert survivors == [pid for pid in order if pid != 4]

    def test_discard_nonresident_with_pending_hits_is_noop(self):
        buffer = self.fill_with_pending_hits()
        before = snapshot(buffer)
        buffer.discard(N_PAGES + 100)
        assert snapshot(buffer) == before

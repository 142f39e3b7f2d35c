"""Property-based tests on the buffer invariants.

A reference model (plain dict/list bookkeeping) is driven with the same
random access traces as the real buffer manager; the real implementation
must agree with the model (LRU, FIFO) or satisfy structural invariants
(capacity bound, partition, hit/miss accounting) for every policy.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.manager import BufferManager
from repro.buffer.policies import ASB, FIFO, LRU, LRUK, SLRU, SpatialPolicy
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType

N_PAGES = 20

#: A trace is a sequence of (page_id, new_query) pairs.
traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=N_PAGES - 1), st.booleans()
    ),
    min_size=1,
    max_size=120,
)

capacities = st.integers(min_value=1, max_value=8)


def build_disk():
    disk = SimulatedDisk()
    for page_id in range(N_PAGES):
        page = Page(page_id=page_id, page_type=PageType.DATA)
        side = float(page_id + 1)
        page.entries.append(
            PageEntry(mbr=Rect(0, 0, side, side), payload=page_id)
        )
        disk.store(page)
    return disk


def drive(policy, trace, capacity):
    """Run a trace; returns (buffer, residency history)."""
    buffer = BufferManager(build_disk(), capacity, policy)
    for page_id, _ in trace:
        buffer.fetch(page_id)
    return buffer


class TestAgainstReferenceModels:
    @settings(max_examples=60, deadline=None)
    @given(traces, capacities)
    def test_lru_matches_ordereddict_model(self, trace, capacity):
        model: OrderedDict[int, None] = OrderedDict()
        model_misses = 0
        buffer = BufferManager(build_disk(), capacity, LRU())
        for page_id, _ in trace:
            buffer.fetch(page_id)
            if page_id in model:
                model.move_to_end(page_id)
            else:
                model_misses += 1
                model[page_id] = None
                if len(model) > capacity:
                    model.popitem(last=False)
        assert buffer.resident_ids() == sorted(model)
        assert buffer.stats.misses == model_misses

    @settings(max_examples=60, deadline=None)
    @given(traces, capacities)
    def test_fifo_matches_queue_model(self, trace, capacity):
        queue: list[int] = []
        buffer = BufferManager(build_disk(), capacity, FIFO())
        for page_id, _ in trace:
            buffer.fetch(page_id)
            if page_id not in queue:
                queue.append(page_id)
                if len(queue) > capacity:
                    queue.pop(0)
        assert buffer.resident_ids() == sorted(queue)


class TestUniversalInvariants:
    POLICIES = [
        ("LRU", LRU),
        ("FIFO", FIFO),
        ("LRU-2", lambda: LRUK(k=2)),
        ("A", lambda: SpatialPolicy("A")),
        ("SLRU", lambda: SLRU(candidate_fraction=0.5)),
        ("ASB", lambda: ASB(overflow_fraction=0.25)),
    ]

    @settings(max_examples=40, deadline=None)
    @given(traces, capacities)
    def test_capacity_and_accounting(self, trace, capacity):
        for name, factory in self.POLICIES:
            buffer = BufferManager(build_disk(), capacity, factory())
            for page_id, _ in trace:
                page = buffer.fetch(page_id)
                assert page.page_id == page_id, name
                assert len(buffer) <= capacity, name
            stats = buffer.stats
            assert stats.hits + stats.misses == stats.requests, name
            assert stats.misses == buffer.disk.stats.reads, name

    @settings(max_examples=40, deadline=None)
    @given(traces, capacities)
    def test_requested_page_is_resident_afterwards(self, trace, capacity):
        for name, factory in self.POLICIES:
            buffer = BufferManager(build_disk(), capacity, factory())
            for page_id, _ in trace:
                buffer.fetch(page_id)
                assert buffer.contains(page_id), name

    @settings(max_examples=40, deadline=None)
    @given(traces, capacities)
    def test_asb_partition_invariant(self, trace, capacity):
        policy = ASB(overflow_fraction=0.25)
        buffer = BufferManager(build_disk(), capacity, policy)
        for page_id, _ in trace:
            buffer.fetch(page_id)
            resident = set(buffer.frames)
            overflow = set(policy.overflow_ids())
            assert overflow.issubset(resident)
            assert policy.main_size + policy.overflow_size == len(resident)
            assert 1 <= policy.candidate_size <= policy.main_capacity

    @settings(max_examples=40, deadline=None)
    @given(traces, capacities)
    def test_lru_k_history_is_bounded_by_k(self, trace, capacity):
        policy = LRUK(k=2)
        buffer = BufferManager(build_disk(), capacity, policy)
        for page_id, new_query in trace:
            if new_query:
                with buffer.query_scope():
                    buffer.fetch(page_id)
            else:
                buffer.fetch(page_id)
            assert len(policy.history_of(page_id)) <= 2

    @settings(max_examples=25, deadline=None)
    @given(traces, capacities)
    def test_record_replay_is_bit_identical(self, trace, capacity):
        """The determinism contract of the replay driver: for any request
        sequence and every policy, replaying a recorded trace yields the
        identical event stream and statistics snapshot."""
        from repro.obs import record_run, replay_recorded

        requests = []
        query = 0
        for page_id, new_query in trace:
            if new_query:
                query += 1
            requests.append((page_id, query))
        disk = build_disk()
        for name, factory in self.POLICIES:
            recorded = record_run(requests, disk, factory(), capacity)
            replayed = replay_recorded(recorded, factory())
            assert replayed.events == recorded.events, name
            assert replayed.stats == recorded.stats, name

    @settings(max_examples=30, deadline=None)
    @given(traces, st.integers(min_value=2, max_value=8))
    def test_clear_resets_to_identical_rerun(self, trace, capacity):
        """Replaying after clear() gives identical counts (no state leaks)."""
        for name, factory in self.POLICIES:
            buffer = BufferManager(build_disk(), capacity, factory())
            for page_id, _ in trace:
                buffer.fetch(page_id)
            first = (buffer.stats.misses, buffer.resident_ids())
            buffer.clear()
            for page_id, _ in trace:
                buffer.fetch(page_id)
            second = (buffer.stats.misses, buffer.resident_ids())
            assert first == second, name

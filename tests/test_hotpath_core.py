"""Equivalence and deferred-state tests for the slot-based hot path.

The fast path inlines the reference steps into one closure — hits and
misses alike — and defers only the recency-chain splice of a hit, which is
replayed before any reader can observe the chain; attaching an observer
forces the class-level reference path.  These tests pin the contract
between the two:

* driving the same steps (fetches in and out of query scopes, pins, unpins,
  in-place edits declared by ``mark_dirty``, and misses with every frame
  pinned) through both modes produces the same outcomes, statistics, disk
  reads and writes, resident set, recency order, access counts, clock and
  per-frame ``loaded_at`` / ``last_access`` / ``last_query`` / dirty / pin
  state — for every registered policy, on pages whose MBRs differ, so the
  spatial policies rank rather than fall back to their LRU tie-break — and
  the same ASB adaptation trace and overflow FIFO;
* management operations (``switch_policy``, ``clear``, ``discard``)
  issued while deferred splices are pending behave exactly as if every
  hit had been spliced eagerly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.manager import BufferFullError, BufferManager
from repro.buffer.policies import ASB, make_policy, policy_names
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


def make_page(page_id: int, width: float) -> Page:
    """Two entries; page MBR, entry areas, margins and overlap all vary."""
    height = 1.0 + (5 * page_id) % 11
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(PageEntry(mbr=Rect(0, 0, width, height), payload=page_id))
    page.entries.append(
        PageEntry(mbr=Rect(width / 2, 1, width + page_id % 3, height + 1), payload=page_id)
    )
    return page


def make_disk(n_pages: int = N_PAGES) -> SimulatedDisk:
    disk = SimulatedDisk()
    for page_id in range(n_pages):
        disk.store(make_page(page_id, 1.0 + page_id % 7 + page_id / 10))
    return disk


def make_buffer(policy_name: str, observed: bool) -> BufferManager:
    kwargs = {"record_trace": True} if policy_name == "ASB" else {}
    buffer = BufferManager(make_disk(), CAPACITY, make_policy(policy_name, **kwargs))
    if observed:
        buffer.observer = NullSink()
    return buffer


def snapshot(buffer: BufferManager) -> dict:
    """Everything both modes must agree on (order matters for recency)."""
    state = {
        "stats": buffer.stats.snapshot(),
        "disk": (buffer.disk.stats.reads, buffer.disk.stats.writes),
        "clock": buffer.clock,
        "pinned": buffer.pinned_count,
        "recency": [frame.page.page_id for frame in buffer.frames.iter_recency()],
        "frames": {
            frame.page.page_id: (
                frame.loaded_at,
                frame.last_access,
                frame.last_query,
                frame.dirty,
                frame.pin_count,
            )
            for frame in buffer.frames.values()
        },
    }
    policy = buffer.policy
    if isinstance(policy, ASB):
        state["asb"] = (list(policy.trace), policy.overflow_ids(), policy.candidate_size)
    return state


# Each step: (kind, page_id, size).  ``fetch`` draws a fresh query id,
# ``scoped`` fetches the page and one more inside a query scope, ``pin`` /
# ``unpin`` hold or release a resident page (at most CAPACITY - 2 at once),
# ``dirty`` edits a resident page in place to ``size`` wide and declares it,
# and ``full`` pins every resident page of a full buffer and then misses.
trace_steps = st.lists(
    st.tuples(
        st.sampled_from(
            ["fetch"] * 6 + ["scoped"] * 3 + ["pin", "unpin", "dirty", "full"]
        ),
        st.integers(min_value=0, max_value=N_PAGES - 1),
        st.integers(min_value=1, max_value=9),
    ),
    min_size=1,
    max_size=120,
)


def step(buffer: BufferManager, kind: str, page_id: int, size: int) -> None:
    if kind == "fetch":
        buffer.fetch(page_id)
    elif kind == "scoped":
        with buffer.query_scope():
            buffer.fetch(page_id)
            buffer.fetch((page_id + size) % N_PAGES)
    elif kind == "pin":
        if buffer.contains(page_id) and buffer.pinned_count < CAPACITY - 2:
            buffer.pin(page_id)
    elif kind == "unpin":
        held = [pid for pid in buffer.resident_ids() if buffer.frames[pid].pinned]
        if held:
            buffer.unpin(held[page_id % len(held)])
    elif kind == "dirty":
        if buffer.contains(page_id):
            page = buffer.frames[page_id].page
            page.entries[0] = PageEntry(mbr=Rect(0, 0, size, 2.5), payload=page_id)
            buffer.mark_dirty(page_id)
    elif len(buffer) == CAPACITY and not buffer.contains(page_id):
        free = [pid for pid in buffer.resident_ids() if not buffer.frames[pid].pinned]
        for pid in free:
            buffer.pin(pid)
        try:
            buffer.fetch(page_id)
        finally:
            for pid in free:
                buffer.unpin(pid)


def drive(buffer: BufferManager, steps) -> list:
    """Replay a trace; return what each step left behind (the decisions):
    the miss counter, or the refusal a step met."""
    outcomes = []
    for kind, page_id, size in steps:
        try:
            step(buffer, kind, page_id, size)
        except BufferFullError as exc:
            outcomes.append((kind, str(exc)))
        else:
            outcomes.append(buffer.stats.misses)
    return outcomes


class TestCrossModeEquivalence:
    @settings(max_examples=130, deadline=None)
    @given(trace_steps, st.sampled_from(policy_names()))
    def test_fast_path_matches_decomposed_path(self, steps, policy_name):
        fast = make_buffer(policy_name, observed=False)
        slow = make_buffer(policy_name, observed=True)
        assert "fetch" in vars(fast) and "fetch" not in vars(slow)
        fast_decisions = drive(fast, steps)
        slow_decisions = drive(slow, steps)
        assert fast_decisions == slow_decisions
        assert snapshot(fast) == snapshot(slow)

    def test_a_miss_with_every_frame_pinned_leaves_equal_state(self):
        """The refusal is raised after the clock, the request and the miss
        are counted and the page is read, on both paths alike."""
        states = []
        for observed in (False, True):
            buffer = make_buffer("ASB", observed)
            for page_id in range(CAPACITY):
                buffer.fetch(page_id)
            for page_id in range(CAPACITY):
                buffer.pin(page_id)
            before = buffer.clock
            try:
                buffer.fetch(CAPACITY)
            except BufferFullError as exc:
                refusal = str(exc)
            else:  # pragma: no cover - the assertion below reports it
                refusal = None
            assert buffer.clock == before + 1
            assert buffer.stats.misses == CAPACITY + 1
            assert buffer.disk.stats.reads == CAPACITY + 1
            states.append((refusal, snapshot(buffer)))
        assert states[0] == states[1]
        assert states[0][0] is not None

    @settings(max_examples=10, deadline=None)
    @given(trace_steps)
    def test_observer_attach_mid_trace_preserves_state(self, steps):
        """Flipping a hot buffer into decomposed mode loses nothing."""
        half = len(steps) // 2
        fast = make_buffer("ASB", observed=False)
        slow = make_buffer("ASB", observed=True)
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

"""Stateful property tests (hypothesis rule-based state machines).

Two machines drive the core stateful components through arbitrary
interleavings of operations, checking invariants after every step:

* :class:`BufferMachine` — fetch/pin/unpin/dirty/flush/clear against a
  buffer manager with a randomly chosen policy, with an independent model
  of what must be resident;
* :class:`RStarMachine` — insert/delete against an R*-tree, with a dict
  model of the live objects; window queries must always agree with the
  model and the structural invariants must hold.
"""

from __future__ import annotations

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.buffer.manager import BufferManager
from repro.buffer.policies import ASB, LRU, LRUK, SpatialPolicy
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType
from repro.sam.rstar import RStarTree

N_PAGES = 16
CAPACITY = 5

POLICY_FACTORIES = [
    LRU,
    lambda: LRUK(k=2),
    lambda: SpatialPolicy("A"),
    ASB,
]


class BufferMachine(RuleBasedStateMachine):
    """Drives one buffer manager and checks its universal invariants."""

    @initialize(policy_index=st.integers(min_value=0, max_value=len(POLICY_FACTORIES) - 1))
    def setup(self, policy_index):
        disk = SimulatedDisk()
        for page_id in range(N_PAGES):
            page = Page(page_id=page_id, page_type=PageType.DATA)
            side = float(page_id + 1)
            page.entries.append(
                PageEntry(mbr=Rect(0, 0, side, side), payload=page_id)
            )
            disk.store(page)
        self.buffer = BufferManager(
            disk, CAPACITY, POLICY_FACTORIES[policy_index]()
        )
        self.pinned: set[int] = set()
        self.dirty: set[int] = set()

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    @rule(page_id=st.integers(min_value=0, max_value=N_PAGES - 1))
    def fetch(self, page_id):
        if len(self.pinned) >= CAPACITY and page_id not in self.pinned:
            return  # would legitimately raise BufferFullError
        page = self.buffer.fetch(page_id)
        assert page.page_id == page_id

    @rule(page_id=st.integers(min_value=0, max_value=N_PAGES - 1))
    def fetch_in_scope(self, page_id):
        if len(self.pinned) >= CAPACITY and page_id not in self.pinned:
            return
        with self.buffer.query_scope():
            self.buffer.fetch(page_id)

    @rule(page_id=st.integers(min_value=0, max_value=N_PAGES - 1))
    def pin_if_resident(self, page_id):
        if self.buffer.contains(page_id):
            self.buffer.pin(page_id)
            self.pinned.add(page_id)

    @rule()
    def unpin_one(self):
        if self.pinned:
            page_id = sorted(self.pinned)[0]
            self.buffer.unpin(page_id)
            if not self.buffer.frames[page_id].pinned:
                self.pinned.discard(page_id)

    @rule(page_id=st.integers(min_value=0, max_value=N_PAGES - 1))
    def dirty_if_resident(self, page_id):
        if self.buffer.contains(page_id):
            self.buffer.mark_dirty(page_id)
            self.dirty.add(page_id)

    @rule()
    def flush(self):
        self.buffer.flush()
        self.dirty.clear()

    @precondition(lambda self: not self.pinned)
    @rule()
    def clear(self):
        self.buffer.clear()
        self.dirty.clear()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    @invariant()
    def capacity_respected(self):
        assert len(self.buffer) <= CAPACITY

    @invariant()
    def pinned_pages_resident(self):
        for page_id in self.pinned:
            assert self.buffer.contains(page_id)

    @invariant()
    def accounting_consistent(self):
        stats = self.buffer.stats
        assert stats.hits + stats.misses == stats.requests
        assert stats.hits >= 0 and stats.misses >= 0

    @invariant()
    def no_lost_dirty_pages(self):
        """A dirty page is resident-dirty or was already written back."""
        for page_id in self.dirty:
            if self.buffer.contains(page_id):
                # Either still dirty or flushed by an eviction+reload cycle.
                assert isinstance(self.buffer.frames[page_id].dirty, bool)


class RStarMachine(RuleBasedStateMachine):
    """Drives an R*-tree through inserts and deletes against a dict model."""

    @initialize(seed=st.integers(min_value=0, max_value=2**16))
    def setup(self, seed):
        self.tree = RStarTree(max_dir_entries=5, max_data_entries=5)
        self.model: dict[int, Rect] = {}
        self.counter = 0
        self.rng = random.Random(seed)

    @rule(
        x=st.floats(min_value=0.0, max_value=0.95),
        y=st.floats(min_value=0.0, max_value=0.95),
        w=st.floats(min_value=0.0, max_value=0.05),
        h=st.floats(min_value=0.0, max_value=0.05),
    )
    def insert(self, x, y, w, h):
        rect = Rect(x, y, x + w, y + h)
        self.tree.insert(rect, self.counter)
        self.model[self.counter] = rect
        self.counter += 1

    @rule()
    def delete_one(self):
        if not self.model:
            return
        payload = self.rng.choice(sorted(self.model))
        rect = self.model.pop(payload)
        assert self.tree.delete(rect, payload)

    @rule()
    def delete_missing_is_noop(self):
        assert not self.tree.delete(Rect(0.99, 0.99, 1.0, 1.0), -1)

    @invariant()
    def structure_valid(self):
        self.tree.validate()

    @invariant()
    def full_scan_matches_model(self):
        found = sorted(self.tree.window_query(Rect(0.0, 0.0, 1.0, 1.0)))
        assert found == sorted(self.model)


TestBufferMachine = BufferMachine.TestCase
TestBufferMachine.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)

TestRStarMachine = RStarMachine.TestCase
TestRStarMachine.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)

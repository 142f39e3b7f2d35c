"""The indexed ASB against a list-and-scan transcription of the paper.

:class:`OracleASB` is PAPER.md's adaptable spatial buffer (Section 4.2)
written the obvious way — a main list, an overflow FIFO, a sort for the
candidate set, a full scan for the promotion comparison, a clamped ±step
— with no index, no laziness and no state beyond the two lists.  The
state machine drives the production :class:`ASB` and the oracle through
the same operations under each host a policy can run in and demands,
after every step, the same resident pages (hence the same victim
sequence), overflow FIFO, candidate-set size and counters.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.buffer.concurrent import ConcurrentBufferManager
from repro.buffer.manager import BufferFullError, BufferManager
from repro.buffer.policies.asb import ASB
from repro.buffer.policies.base import ReplacementPolicy
from repro.buffer.policies.spatial import spatial_criterion
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType
from repro.tuning.ghost import GhostCache, PageMeta

CRITERIA = ("A", "M")


class OracleASB(ReplacementPolicy):
    """ASB as PAPER.md states it: two lists, scanned in full."""

    def __init__(self, overflow_fraction=0.2, candidate_fraction=0.25, step_fraction=0.01):
        super().__init__()
        self.criterion = "A"
        self.overflow_fraction = overflow_fraction
        self.candidate_fraction = candidate_fraction
        self.step_fraction = step_fraction
        self.main: list = []  # membership; recency is the frames' last_access
        self.overflow: list = []  # FIFO, oldest first

    def attach(self, buffer):
        super().attach(buffer)
        overflow = min(int(round(self.overflow_fraction * buffer.capacity)), buffer.capacity - 1)
        self.main_capacity = buffer.capacity - overflow
        self.reseat()

    def reseat(self):
        wanted = max(1, round(self.candidate_fraction * self.main_capacity))
        self.candidate_size = min(self.main_capacity, wanted)

    def crit(self, frame):
        return spatial_criterion(frame, self.criterion)

    def main_victim(self):
        free = [frame for frame in self.main if frame.pin_count == 0]
        free.sort(key=lambda frame: frame.last_access)
        return min(free[: self.candidate_size], key=self.crit, default=None)

    def enter_main(self, frame):
        victim = self.main_victim() if len(self.main) >= self.main_capacity else None
        if victim is not None:
            self.main.remove(victim)
            self.overflow.append(victim)
        self.main.append(frame)

    on_load = enter_main

    def on_hit(self, frame, correlated):
        if frame not in self.overflow:
            return
        others = [other for other in self.overflow if other is not frame]
        better_spatial = sum(self.crit(other) > self.crit(frame) for other in others)
        better_lru = sum(other.last_access > frame.last_access for other in others)
        step = max(1, round(self.step_fraction * self.main_capacity))
        if better_spatial > better_lru:
            self.candidate_size = max(1, self.candidate_size - step)
        elif better_spatial < better_lru:
            self.candidate_size = min(self.main_capacity, self.candidate_size + step)
        self.overflow.remove(frame)
        self.enter_main(frame)

    def on_evict(self, frame):
        for part in (self.main, self.overflow):
            if frame in part:
                part.remove(frame)

    def reset(self):
        self.main.clear()
        self.overflow.clear()
        self.reseat()

    def retune(self, *, candidate_fraction=None, step_fraction=None, criterion=None):
        self.criterion = criterion or self.criterion
        self.step_fraction = step_fraction or self.step_fraction
        if candidate_fraction is not None:
            self.candidate_fraction = candidate_fraction
            self.reseat()

    def select_victim(self):
        free = [frame for frame in self.overflow if frame.pin_count == 0]
        victim = free[0] if free else self.main_victim()
        if victim is None:
            raise BufferFullError("all resident pages are pinned")
        return victim.page_id

    def overflow_ids(self):
        return [frame.page_id for frame in self.overflow]


# ----------------------------------------------------------------------
# The hosts a policy runs in, behind one small surface
# ----------------------------------------------------------------------

N_PAGES = 40
CAPACITY = 14


def make_page(page_id: int, width: float, height: float) -> Page:
    page = Page(page_id=page_id, page_type=PageType.DATA)
    page.entries.append(PageEntry(mbr=Rect(0, 0, width, height), payload=page_id))
    return page


class Side:
    """One policy in one host, with a disk of its own (pages are mutable)."""

    def __init__(self, kind: str, make_policy):
        self.kind = kind
        self.disk = SimulatedDisk()
        for page_id in range(N_PAGES):
            # Few distinct sizes, so criterion ties (LRU tie-break) are common.
            self.disk.store(make_page(page_id, 1.0 + page_id % 4, 1.0 + page_id % 3))
        if kind == "ghost":
            self.host = GhostCache(make_policy(), CAPACITY)
        elif kind == "sharded":
            self.host = ConcurrentBufferManager(self.disk, CAPACITY, make_policy, shards=1)
        else:
            self.host = BufferManager(self.disk, CAPACITY, make_policy())
        self.queries = 0

    @property
    def core(self):
        """The object that owns ``policy`` and ``frames``."""
        return self.host.shard_managers()[0] if self.kind == "sharded" else self.host

    def fetch_all(self, page_ids, scoped: bool):
        if self.kind == "ghost":
            for position, page_id in enumerate(page_ids):
                if not scoped or position == 0:
                    self.queries += 1
                meta = PageMeta.from_page(self.disk.peek(page_id), CRITERIA)
                self.host.access(page_id, self.queries, meta)
        elif scoped:
            with self.host.query_scope():
                for page_id in page_ids:
                    self.host.fetch(page_id)
        else:
            for page_id in page_ids:
                self.host.fetch(page_id)

    def clear(self):
        self.host.reset() if self.kind == "ghost" else self.host.clear()

    def observed(self):
        policy = self.core.policy
        stats = self.host.stats
        return {
            "resident": sorted(dict.keys(self.core.frames)),
            "overflow": policy.overflow_ids(),
            "candidate_size": policy.candidate_size,
            "stats": (stats.requests, stats.hits, stats.misses, stats.evictions),
        }


def check_index(policy: ASB, frames) -> None:
    """The index's own invariants, read without disturbing its laziness."""
    assert len(policy._overflow_stamps) == len(policy._overflow_crits) == policy.overflow_size
    assert policy._overflow_stamps == sorted(s for s, _ in policy._overflow.values())
    assert policy._overflow_crits == sorted(c for _, c in policy._overflow.values())
    for page_id, (stamp, value) in policy._overflow.items():
        frame = dict.get(frames, page_id)
        assert stamp == frame.last_access
        assert value == spatial_criterion(frame, policy.criterion)
    seen = 0
    for block in policy._blocks:
        assert 0 < len(block.frames) <= policy._block_limit
        assert all(policy._block_of[frame] is block for frame in block.frames)
        seen += len(block.frames)
        if block.min_frame is not None and not any(f.pin_count for f in block.frames):
            values = [spatial_criterion(frame, policy.criterion) for frame in block.frames]
            assert block.min_value == min(values)
            assert block.min_frame is block.frames[values.index(block.min_value)]
    assert seen == policy.main_size == len(policy._block_of)


class ASBOracleMachine(RuleBasedStateMachine):
    """Indexed ASB == list-and-scan ASB, step by step, in one host."""

    kind = "manager"
    page_ids = st.integers(min_value=0, max_value=N_PAGES - 1)
    fractions = st.sampled_from((0.05, 0.25, 0.5, 1.0))

    @initialize(
        overflow_fraction=st.sampled_from((0.0, 0.2, 0.5)),
        candidate_fraction=fractions,
        step_fraction=st.sampled_from((0.01, 0.2)),
    )
    def setup(self, overflow_fraction, candidate_fraction, step_fraction):
        self.knobs = dict(
            overflow_fraction=overflow_fraction,
            candidate_fraction=candidate_fraction,
            step_fraction=step_fraction,
        )
        self.fast = Side(self.kind, lambda: ASB(**self.knobs))
        self.slow = Side(self.kind, lambda: OracleASB(**self.knobs))
        self.pinned: set[int] = set()

    def both(self, action) -> None:
        action(self.fast)
        action(self.slow)
        assert self.fast.observed() == self.slow.observed()
        check_index(self.fast.core.policy, self.fast.core.frames)

    def resident(self, page_id) -> bool:
        return dict.__contains__(self.fast.core.frames, page_id)

    real = precondition(lambda self: self.kind != "ghost")

    @rule(page_id=page_ids)
    def fetch(self, page_id):
        self.both(lambda side: side.fetch_all([page_id], scoped=False))

    @rule(page_ids=st.lists(page_ids, min_size=1, max_size=6))
    def query_scope(self, page_ids):
        self.both(lambda side: side.fetch_all(page_ids, scoped=True))

    @real
    @rule(page_id=page_ids)
    def pin(self, page_id):
        if self.resident(page_id) and len(self.pinned | {page_id}) <= CAPACITY - 2:
            self.pinned.add(page_id)
            self.both(lambda side: side.host.pin(page_id))

    @real
    @rule()
    def unpin(self):
        if self.pinned:
            page_id = min(self.pinned)
            self.both(lambda side: side.host.unpin(page_id))
            if not dict.get(self.fast.core.frames, page_id).pin_count:
                self.pinned.discard(page_id)

    @real
    @rule(page_id=page_ids, width=st.integers(1, 6), height=st.integers(1, 6))
    def mark_dirty(self, page_id, width, height):
        def edit(side):
            frame = dict.get(side.core.frames, page_id)
            frame.page.entries[0] = PageEntry(mbr=Rect(0, 0, width, height), payload=page_id)
            side.host.mark_dirty(page_id)

        if self.resident(page_id):
            self.both(edit)

    @real
    @rule(page_id=page_ids, width=st.integers(1, 6))
    def install(self, page_id, width):
        if page_id not in self.pinned:
            self.both(lambda side: side.host.install(make_page(page_id, width, 2.0)))

    @real
    @rule(page_id=page_ids)
    def discard(self, page_id):
        if page_id not in self.pinned:
            self.both(lambda side: side.host.discard(page_id))

    @precondition(lambda self: not self.pinned)
    @rule()
    def clear(self):
        self.both(lambda side: side.clear())

    @rule(
        candidate_fraction=st.none() | fractions,
        step_fraction=st.none() | st.sampled_from((0.01, 0.1)),
        criterion=st.none() | st.sampled_from(CRITERIA),
    )
    def retune(self, **knobs):
        self.both(lambda side: side.core.policy.retune(**knobs))

    @real
    @rule()
    def switch_policy(self):
        def switch(side):
            fresh = ASB if isinstance(side.core.policy, ASB) else OracleASB
            side.core.switch_policy(fresh(**self.knobs))

        self.both(switch)


class GhostMachine(ASBOracleMachine):
    kind = "ghost"


class ShardedMachine(ASBOracleMachine):
    kind = "sharded"


budget = settings(max_examples=40, stateful_step_count=60, deadline=None)
TestASBOracleInManager = ASBOracleMachine.TestCase
TestASBOracleInManager.settings = budget
TestASBOracleInGhostCache = GhostMachine.TestCase
TestASBOracleInGhostCache.settings = budget
TestASBOracleInConcurrentManager = ShardedMachine.TestCase
TestASBOracleInConcurrentManager.settings = budget

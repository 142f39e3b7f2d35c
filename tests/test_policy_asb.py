"""Tests for ASB, the adaptable spatial buffer (Section 4.2)."""

from __future__ import annotations

import random

import pytest

from repro.buffer.manager import BufferManager
from repro.buffer.policies.asb import ASB
from repro.buffer.policies.slru import SLRU
from repro.buffer.policies.spatial import first_min_candidate, spatial_criterion
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType


def square_disk(areas):
    """Page i holds one square entry with the i-th area."""
    disk = SimulatedDisk()
    for page_id, area in enumerate(areas):
        side = area**0.5
        page = Page(page_id=page_id, page_type=PageType.DATA)
        page.entries.append(PageEntry(mbr=Rect(0, 0, side, side), payload=page_id))
        disk.store(page)
    return disk


class TestConstruction:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ASB(criterion="nope")
        with pytest.raises(ValueError):
            ASB(overflow_fraction=1.0)
        with pytest.raises(ValueError):
            ASB(overflow_fraction=-0.1)
        with pytest.raises(ValueError):
            ASB(candidate_fraction=0.0)
        with pytest.raises(ValueError):
            ASB(step_fraction=0.0)

    def test_capacity_split(self):
        policy = ASB(overflow_fraction=0.2)
        BufferManager(square_disk([1.0] * 20), 10, policy)
        assert policy.overflow_capacity == 2
        assert policy.main_capacity == 8

    def test_default_initial_candidate_is_quarter_of_main(self):
        policy = ASB(overflow_fraction=0.2, candidate_fraction=0.25)
        BufferManager(square_disk([1.0] * 30), 20, policy)
        assert policy.main_capacity == 16
        assert policy.candidate_size == 4

    def test_tiny_buffer_keeps_main_nonempty(self):
        policy = ASB(overflow_fraction=0.2)
        BufferManager(square_disk([1.0] * 5), 2, policy)
        assert policy.main_capacity >= 1


class TestTwoPartMechanics:
    def test_demotion_fills_overflow(self):
        # capacity 4, overflow 2, main 2 — and candidate set of 1 (pure LRU
        # demotion) to make the demotion order predictable.
        policy = ASB(overflow_fraction=0.5, candidate_fraction=0.01)
        buffer = BufferManager(square_disk([100.0, 1.0, 50.0, 2.0]), 4, policy)
        buffer.fetch(0)
        buffer.fetch(1)
        assert policy.main_size == 2
        assert policy.overflow_size == 0
        buffer.fetch(2)  # main full: LRU-oldest (0) demoted to overflow
        assert policy.overflow_ids() == [0]
        assert policy.main_size == 2
        buffer.fetch(3)
        assert policy.overflow_ids() == [0, 1]

    def test_true_eviction_is_overflow_fifo_head(self):
        policy = ASB(overflow_fraction=0.5, candidate_fraction=0.01)
        buffer = BufferManager(
            square_disk([100.0, 1.0, 50.0, 2.0, 7.0, 3.0]), 4, policy
        )
        for page_id in range(4):
            buffer.fetch(page_id)
        assert policy.overflow_ids() == [0, 1]
        buffer.fetch(4)  # buffer full: the FIFO head (page 0) leaves memory
        assert not buffer.contains(0)
        assert buffer.contains(1)
        buffer.fetch(5)
        assert not buffer.contains(1)

    def test_overflow_hit_counts_as_buffer_hit(self):
        """The overflow buffer is buffer memory: finding a page there must
        not cost a disk access."""
        policy = ASB(overflow_fraction=0.5, candidate_fraction=0.01)
        disk = square_disk([100.0, 1.0, 50.0, 2.0])
        buffer = BufferManager(disk, 4, policy)
        for page_id in range(4):
            buffer.fetch(page_id)
        reads_before = disk.stats.reads
        buffer.fetch(0)  # page 0 sits in the overflow buffer
        assert disk.stats.reads == reads_before
        assert buffer.stats.hits == 1

    def test_promotion_moves_page_to_main(self):
        policy = ASB(overflow_fraction=0.5, candidate_fraction=0.01)
        buffer = BufferManager(square_disk([100.0, 1.0, 50.0, 2.0]), 4, policy)
        for page_id in range(4):
            buffer.fetch(page_id)
        assert 0 in policy.overflow_ids()
        buffer.fetch(0)
        assert 0 not in policy.overflow_ids()
        assert policy.main_size == 2  # someone else was demoted to make room
        assert policy.overflow_size == 2

    def test_membership_partition_invariant(self):
        policy = ASB(overflow_fraction=0.4)
        buffer = BufferManager(square_disk([float(i + 1) for i in range(12)]), 5, policy)
        pattern = [0, 1, 2, 3, 4, 5, 2, 6, 0, 7, 8, 1, 9, 10, 3, 11, 4]
        for page_id in pattern:
            buffer.fetch(page_id)
            resident = set(buffer.frames)
            assert set(policy.overflow_ids()).issubset(resident)
            assert policy.main_size + policy.overflow_size == len(resident)
            assert len(buffer) <= 5


class TestAdaptation:
    def _buffer(self):
        """Build an ASB whose overflow holds [0 (area 50, old), 2 (area 1, new)].

        capacity 6 -> overflow 3, main 3; initial candidate set = 2 of 3;
        step = 1.  Demotions: with main = {0, 1, 2} full, loading 3 demotes
        the smaller of the two LRU-oldest {0, 1} -> page 0 (area 50);
        loading 4 demotes the smaller of {1, 2} -> page 2 (area 1).
        """
        policy = ASB(
            overflow_fraction=0.5,
            candidate_fraction=0.67,
            step_fraction=0.34,
        )
        disk = square_disk([50.0, 100.0, 1.0, 60.0, 70.0])
        buffer = BufferManager(disk, 6, policy)
        for page_id in range(5):
            buffer.fetch(page_id)
        assert policy.candidate_size == 2
        assert policy.overflow_ids() == [0, 2]
        return policy, buffer

    def test_spatial_mispredicted_shrinks_candidate_set(self):
        policy, buffer = self._buffer()
        # Hit page 2: the other overflow page (0) has a better (larger)
        # spatial criterion but a worse (older) LRU criterion -> case 1:
        # LRU looks more suitable, the candidate set shrinks.
        buffer.fetch(2)
        assert policy.candidate_size == 1

    def test_lru_mispredicted_grows_candidate_set(self):
        policy, buffer = self._buffer()
        # Hit page 0: the other overflow page (2) is more recent (better
        # LRU) but spatially smaller (worse criterion) -> case 2: the
        # spatial strategy looks more suitable, the candidate set grows.
        buffer.fetch(0)
        assert policy.candidate_size == 3

    def test_tie_keeps_candidate_set(self):
        # Make the other overflow page better on BOTH criteria: counts tie.
        policy = ASB(
            overflow_fraction=0.5, candidate_fraction=0.5, step_fraction=0.5
        )
        disk = square_disk([1.0, 100.0, 50.0, 2.0])
        buffer = BufferManager(disk, 4, policy)
        for page_id in range(4):
            buffer.fetch(page_id)
        assert policy.overflow_ids() == [0, 1]
        before = policy.candidate_size
        # Hit page 0: page 1 is newer (better LRU) AND larger (better
        # spatial) -> 1 == 1, no change.
        buffer.fetch(0)
        assert policy.candidate_size == before

    def test_candidate_size_clamped_to_bounds(self):
        policy, buffer = self._buffer()
        # Two shrinks in a row: the second one is clamped at 1.
        buffer.fetch(2)
        assert policy.candidate_size == 1
        overflow = policy.overflow_ids()
        # Promote whatever sits in overflow repeatedly; the knob must stay
        # within [1, main_capacity] regardless of direction.
        for _ in range(6):
            overflow = policy.overflow_ids()
            if not overflow:
                break
            buffer.fetch(overflow[-1])
            assert 1 <= policy.candidate_size <= policy.main_capacity

    def test_trace_records_adaptations(self):
        policy = ASB(
            overflow_fraction=0.5,
            candidate_fraction=1.0,
            step_fraction=0.5,
            record_trace=True,
        )
        buffer = BufferManager(square_disk([100.0, 1.0, 50.0, 2.0]), 4, policy)
        for page_id in range(4):
            buffer.fetch(page_id)
        buffer.fetch(1)
        assert policy.trace
        clock, size = policy.trace[-1]
        assert size == policy.candidate_size


class TestDegenerationAndReset:
    def test_zero_overflow_behaves_like_slru(self):
        areas = [9.0, 4.0, 25.0, 1.0, 16.0, 36.0, 2.0, 49.0]
        pattern = [0, 1, 2, 0, 3, 4, 1, 5, 2, 0, 6, 4, 3, 7, 5, 1]

        def run(policy):
            buffer = BufferManager(square_disk(areas), 4, policy)
            for page_id in pattern:
                buffer.fetch(page_id)
            return buffer.resident_ids(), buffer.stats.misses

        asb = ASB(overflow_fraction=0.0, candidate_fraction=0.25)
        slru = SLRU(candidate_fraction=0.25)
        assert run(asb) == run(slru)

    def test_no_state_for_evicted_pages(self):
        """Unlike LRU-K, ASB keeps nothing about pages that left memory."""
        policy = ASB(overflow_fraction=0.4)
        buffer = BufferManager(square_disk([float(i + 1) for i in range(30)]), 5, policy)
        for page_id in range(30):
            buffer.fetch(page_id)
        assert policy.main_size + policy.overflow_size == len(buffer)
        assert policy.main_size + policy.overflow_size <= 5

    def test_reset_restores_initial_knob(self):
        policy = ASB(
            overflow_fraction=0.5, candidate_fraction=0.67, step_fraction=0.34
        )
        buffer = BufferManager(
            square_disk([50.0, 100.0, 1.0, 60.0, 70.0]), 6, policy
        )
        for page_id in range(5):
            buffer.fetch(page_id)
        buffer.fetch(2)  # shrink (see TestAdaptation for the construction)
        assert policy.candidate_size == 1
        buffer.clear()
        assert policy.candidate_size == 2
        assert policy.main_size == 0
        assert policy.overflow_size == 0

    def test_pinned_pages_never_evicted(self):
        policy = ASB(overflow_fraction=0.4)
        buffer = BufferManager(square_disk([float(i + 1) for i in range(20)]), 5, policy)
        buffer.fetch(0)
        buffer.pin(0)
        for page_id in range(1, 20):
            buffer.fetch(page_id)
        assert buffer.contains(0)


class TestInstallDiscardIntegration:
    def test_installed_pages_join_the_main_part(self):
        policy = ASB(overflow_fraction=0.4)
        disk = square_disk([float(i + 1) for i in range(10)])
        buffer = BufferManager(disk, 5, policy)
        from repro.storage.page import Page, PageEntry, PageType
        from repro.geometry.rect import Rect

        fresh = Page(page_id=99, page_type=PageType.DATA)
        fresh.entries.append(PageEntry(mbr=Rect(0, 0, 2, 2), payload=99))
        disk.store(fresh)
        buffer.install(fresh)
        assert 99 not in policy.overflow_ids()
        assert policy.main_size + policy.overflow_size == len(buffer)

    def test_discard_cleans_policy_state(self):
        policy = ASB(overflow_fraction=0.5, candidate_fraction=0.01)
        disk = square_disk([100.0, 1.0, 50.0, 2.0])
        buffer = BufferManager(disk, 4, policy)
        for page_id in range(4):
            buffer.fetch(page_id)
        overflow_head = policy.overflow_ids()[0]
        buffer.discard(overflow_head)
        assert overflow_head not in policy.overflow_ids()
        assert policy.main_size + policy.overflow_size == len(buffer)
        # Buffer keeps operating normally afterwards.
        buffer.fetch(overflow_head)
        assert buffer.contains(overflow_head)


# ----------------------------------------------------------------------
# The index (blocks over the main part, sorted lists over the overflow)
# must decide what the full walks decide
# ----------------------------------------------------------------------


def reference_main_victim(buffer, policy):
    """The main part's victim, from the chain in full: filter, cut, min."""
    overflow = set(policy.overflow_ids())
    candidates = [
        frame
        for frame in buffer.frames.iter_recency()
        if frame.page_id not in overflow and not frame.pinned
    ][: policy.candidate_size]
    return min(
        candidates,
        key=lambda frame: spatial_criterion(frame, policy.criterion),
        default=None,
    )


def reference_adaptation(buffer, policy, page_id):
    """Sign of the knob change a hit on overflow page ``page_id`` must cause."""
    promoted = buffer.frames[page_id]
    others = [buffer.frames[other] for other in policy.overflow_ids() if other != page_id]
    crit = lambda frame: spatial_criterion(frame, policy.criterion)  # noqa: E731
    better_spatial = sum(crit(other) > crit(promoted) for other in others)
    better_lru = sum(other.last_access > promoted.last_access for other in others)
    return (better_spatial < better_lru) - (better_spatial > better_lru)


def resize(buffer, page_id, width, height):
    """Edit a resident page in place, then tell the buffer."""
    page = buffer.frames[page_id].page
    page.entries[0] = PageEntry(mbr=Rect(0, 0, width, height), payload=page_id)
    buffer.mark_dirty(page_id)


class CountingCache(dict):
    """A criterion cache that counts its probes into ``tally[0]``."""

    def __init__(self, content, tally):
        super().__init__(content)
        self.tally = tally

    def get(self, key, default=None):
        self.tally[0] += 1
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self.tally[0] += 1
        return dict.__getitem__(self, key)


class TestIndex:
    def _slru_like(self):
        """No overflow, every main page a candidate, four blocks of four."""
        policy = ASB(overflow_fraction=0.0, candidate_fraction=1.0)
        buffer = BufferManager(
            square_disk([float(10 + i) for i in range(20)]), 16, policy
        )
        for page_id in range(17):  # the 17th load makes every block remember
            buffer.fetch(page_id)
        return policy, buffer

    def test_dirtied_main_page_is_rejudged(self):
        policy, buffer = self._slru_like()
        def chain_walk():  # without an overflow the main part is the chain
            head = buffer.frames.head
            return first_min_candidate(head, policy.criterion, policy.candidate_size)

        assert policy.select_victim() == 1  # page 0 left; 1 is now smallest
        resize(buffer, 1, 30.0, 30.0)
        assert policy.select_victim() == chain_walk().page_id == 2
        resize(buffer, 9, 1.0, 1.0)
        assert policy.select_victim() == chain_walk().page_id == 9

    def test_dirtied_overflow_page_is_rejudged(self):
        policy = ASB(overflow_fraction=0.5, candidate_fraction=0.5, step_fraction=0.2)
        buffer = BufferManager(
            square_disk([1.0, 2.0, 3.0, 4.0, 50.0, 60.0, 70.0, 80.0, 90.0]), 8, policy
        )
        for page_id in range(8):
            buffer.fetch(page_id)
        assert policy.overflow_ids() == [0, 1, 2, 3]
        # Page 3 judges worse than 0..2 on recency only; grow 0..2 past it
        # and it judges worse on both, which turns a grow into a tie.
        assert reference_adaptation(buffer, policy, 3) == 0
        for page_id in (0, 1, 2):
            resize(buffer, page_id, 9.0, 9.0)
        expected = reference_adaptation(buffer, policy, 3)
        assert expected == -1
        before = policy.candidate_size
        buffer.fetch(3)
        assert policy.candidate_size == before + expected * policy._step

    def test_live_criterion_swap_rekeys_both_parts(self):
        # Areas (10 + id) rise with the page id, margins (30 - id, as
        # width + height) fall: A and M rank the pages in opposite orders.
        disk = SimulatedDisk()
        for page_id in range(12):
            page = Page(page_id=page_id, page_type=PageType.DATA)
            area, half_margin = 10.0 + page_id, 30.0 - page_id
            spread = (half_margin**2 - 4 * area) ** 0.5
            rect = Rect(0, 0, (half_margin + spread) / 2, (half_margin - spread) / 2)
            page.entries.append(PageEntry(mbr=rect, payload=page_id))
            disk.store(page)
        policy = ASB(overflow_fraction=0.4, candidate_fraction=1.0, step_fraction=0.2)
        buffer = BufferManager(disk, 10, policy)
        for page_id in range(10):
            buffer.fetch(page_id)
        assert policy.overflow_ids() == [0, 1, 2, 3]  # smallest areas first
        policy.retune(criterion="M")
        policy._sync()
        assert policy._main_victim() is reference_main_victim(buffer, policy)
        assert policy._main_victim().page_id == 9  # smallest margin now
        expected = reference_adaptation(buffer, policy, 0)
        assert expected == 1  # 1..3 are newer, none has a larger margin
        policy.retune(candidate_fraction=0.5)
        before = policy.candidate_size
        buffer.fetch(0)
        assert policy.candidate_size == before + expected * policy._step
        # Candidates are now the four oldest main pages, 4..7; the
        # smallest margin among them makes room.
        assert policy.overflow_ids() == [1, 2, 3, 7]

    def test_promotion_reads_few_criteria_and_a_main_hit_none(self):
        """The work a promotion does is O(sqrt(buffer)), a main hit's is nil.

        Counted, not timed: every slot's criterion cache is swapped for a
        probe-counting dict once the buffer is warm.  The walks this index
        replaced probed every overflow page and every candidate — about
        ``capacity`` probes per promotion at this size.
        """
        capacity = 4096
        rng = random.Random(5)
        policy = ASB()
        buffer = BufferManager(
            square_disk([1.0 + rng.random() for _ in range(capacity)]), capacity, policy
        )
        for page_id in range(capacity):
            buffer.fetch(page_id)
        tally = [0]
        for frame in buffer.frames.slots:
            frame.crit_cache = CountingCache(frame.crit_cache, tally)
        promotions = worst = 0
        for _ in range(20_000):
            page_id = rng.randrange(capacity)
            promotes = page_id in policy._overflow
            blocks = [(block, list(block.frames), block.min_frame) for block in policy._blocks]
            synced, probes = policy._synced, tally[0]
            buffer.fetch(page_id)
            if promotes:
                promotions += 1
                worst = max(worst, tally[0] - probes)
            else:
                assert tally[0] == probes and policy._synced == synced
                assert blocks == [
                    (block, block.frames, block.min_frame) for block in policy._blocks
                ]
        assert buffer.stats.misses == capacity and promotions > 1000
        assert worst <= 4 * capacity**0.5

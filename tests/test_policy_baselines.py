"""Tests for the baseline policies: LRU and the analytical FIFO and MRU."""

from __future__ import annotations

import pytest

from repro.buffer.manager import BufferManager
from repro.buffer.policies.fifo import FIFO
from repro.buffer.policies.lru import LRU
from repro.buffer.policies.mru import MRU
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType


def make_disk(n_pages=12):
    disk = SimulatedDisk()
    for page_id in range(n_pages):
        page = Page(page_id=page_id, page_type=PageType.DATA)
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload=page_id))
        disk.store(page)
    return disk


def make_buffer(policy, capacity=3):
    return BufferManager(make_disk(), capacity, policy)


class TestLRU:
    def test_evicts_least_recently_used(self):
        buffer = make_buffer(LRU())
        buffer.fetch(0)
        buffer.fetch(1)
        buffer.fetch(2)
        buffer.fetch(0)  # renew page 0; page 1 is now LRU
        buffer.fetch(3)
        assert not buffer.contains(1)
        assert buffer.contains(0)

    def test_sequential_scan_evicts_in_order(self):
        buffer = make_buffer(LRU())
        for page_id in range(6):
            buffer.fetch(page_id)
        assert buffer.resident_ids() == [3, 4, 5]

    def test_repeated_hits_never_evict(self):
        buffer = make_buffer(LRU(), capacity=1)
        for _ in range(5):
            buffer.fetch(0)
        assert buffer.stats.misses == 1
        assert buffer.stats.hits == 4


class TestFIFO:
    def test_evicts_oldest_load_despite_hits(self):
        buffer = make_buffer(FIFO())
        buffer.fetch(0)
        buffer.fetch(1)
        buffer.fetch(2)
        buffer.fetch(0)  # hit must NOT save page 0 under FIFO
        buffer.fetch(3)
        assert not buffer.contains(0)
        assert buffer.contains(1)


class TestMRU:
    def test_evicts_most_recent(self):
        buffer = make_buffer(MRU())
        buffer.fetch(0)
        buffer.fetch(1)
        buffer.fetch(2)
        buffer.fetch(3)
        # Page 2 was the most recently touched when 3 missed.
        assert not buffer.contains(2)
        assert buffer.contains(0)

    def test_only_mru_hits_a_scan_just_over_capacity(self):
        """The reason MRU stays: a cyclic scan two pages longer than the
        buffer defeats every recency order and rewards its inverse."""
        scan = [page_id % 10 for page_id in range(300)]
        hits = {}
        for policy in (LRU(), FIFO(), MRU()):
            buffer = BufferManager(make_disk(n_pages=10), 8, policy)
            for page_id in scan:
                buffer.fetch(page_id)
            hits[policy.name] = buffer.stats.hits
        assert hits["LRU"] == hits["FIFO"] == 0
        assert hits["MRU"] == 226


class TestVictimUniverse:
    @pytest.mark.parametrize(
        "policy_factory",
        [LRU, FIFO, MRU],
        ids=["LRU", "FIFO", "MRU"],
    )
    def test_capacity_respected_under_churn(self, policy_factory):
        buffer = make_buffer(policy_factory(), capacity=4)
        pattern = [0, 1, 2, 3, 4, 1, 5, 2, 6, 0, 7, 8, 3, 9, 10, 11, 4, 5]
        for page_id in pattern:
            buffer.fetch(page_id)
            assert len(buffer) <= 4
        assert buffer.stats.requests == len(pattern)

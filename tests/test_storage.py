"""Tests for pages, the simulated disk, and the page file."""

from __future__ import annotations

import pytest

from repro.geometry.rect import Rect
from repro.storage.disk import DiskError, SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType
from repro.storage.pagefile import PageFile


def make_page(page_id=0, page_type=PageType.DATA, level=0, rects=()):
    page = Page(page_id=page_id, page_type=page_type, level=level)
    for index, rect in enumerate(rects):
        page.entries.append(PageEntry(mbr=rect, payload=index))
    return page


class TestPageType:
    def test_type_ranks_order_eviction_preference(self):
        assert PageType.OBJECT.type_rank < PageType.DATA.type_rank
        assert PageType.DATA.type_rank < PageType.DIRECTORY.type_rank


class TestPage:
    def test_empty_page_has_no_mbr(self):
        assert make_page().mbr() is None

    def test_mbr_covers_entries(self):
        page = make_page(
            rects=[Rect(0.0, 0.0, 1.0, 1.0), Rect(2.0, 2.0, 3.0, 3.0)]
        )
        assert page.mbr() == Rect(0.0, 0.0, 3.0, 3.0)

    def test_entry_mbrs(self):
        rects = [Rect(0.0, 0.0, 1.0, 1.0), Rect(0.5, 0.5, 2.0, 2.0)]
        assert make_page(rects=rects).entry_mbrs() == rects

    def test_children_skips_payload_entries(self):
        page = make_page()
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), child=7))
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload="x"))
        assert page.children() == [7]

    def test_is_leaf(self):
        assert make_page(level=0).is_leaf
        assert not make_page(level=2).is_leaf

    def test_len(self):
        assert len(make_page(rects=[Rect(0, 0, 1, 1)])) == 1


class TestSimulatedDisk:
    def test_read_counts_access(self):
        disk = SimulatedDisk()
        disk.store(make_page(page_id=1))
        assert disk.stats.reads == 0
        disk.read(1)
        assert disk.stats.reads == 1

    def test_peek_and_store_are_unaccounted(self):
        disk = SimulatedDisk()
        disk.store(make_page(page_id=1))
        disk.peek(1)
        assert disk.stats.reads == 0
        assert disk.stats.writes == 0

    def test_write_counts_access(self):
        disk = SimulatedDisk()
        disk.write(make_page(page_id=1))
        assert disk.stats.writes == 1

    def test_missing_page_raises_keyerror(self):
        with pytest.raises(KeyError):
            SimulatedDisk().read(99)

    def test_sequential_vs_random_reads(self):
        disk = SimulatedDisk()
        for page_id in (5, 6, 7, 3):
            disk.store(make_page(page_id=page_id))
        disk.read(5)  # random (first)
        disk.read(6)  # sequential
        disk.read(7)  # sequential
        disk.read(3)  # random
        assert disk.stats.sequential_reads == 2
        assert disk.stats.random_reads == 2
        assert disk.stats.elapsed_ms == pytest.approx(22.0)

    def test_failure_injection_read(self):
        disk = SimulatedDisk()
        disk.store(make_page(page_id=1))
        disk.fail_reads.add(1)
        with pytest.raises(DiskError):
            disk.read(1)

    def test_failure_injection_write(self):
        disk = SimulatedDisk()
        disk.fail_writes.add(2)
        with pytest.raises(DiskError):
            disk.write(make_page(page_id=2))

    def test_contains_len_and_ids(self):
        disk = SimulatedDisk()
        disk.store(make_page(page_id=3))
        disk.store(make_page(page_id=1))
        assert 3 in disk
        assert 99 not in disk
        assert len(disk) == 2
        assert disk.page_ids() == [1, 3]

    def test_delete(self):
        disk = SimulatedDisk()
        disk.store(make_page(page_id=1))
        disk.delete(1)
        assert 1 not in disk

    def test_stats_reset(self):
        disk = SimulatedDisk()
        disk.store(make_page(page_id=1))
        disk.read(1)
        disk.stats.reset()
        assert disk.stats.reads == 0
        assert disk.stats.elapsed_ms == 0.0

    def test_accesses_totals_reads_and_writes(self):
        disk = SimulatedDisk()
        disk.store(make_page(page_id=1))
        disk.read(1)
        disk.write(make_page(page_id=2))
        assert disk.stats.accesses == 2


class TestPageFile:
    def test_allocate_assigns_dense_ids(self):
        pagefile = PageFile()
        a = pagefile.allocate(PageType.DATA)
        b = pagefile.allocate(PageType.DIRECTORY, level=1)
        assert (a.page_id, b.page_id) == (0, 1)
        assert b.page_type is PageType.DIRECTORY
        assert b.level == 1

    def test_free_reuses_ids(self):
        pagefile = PageFile()
        a = pagefile.allocate(PageType.DATA)
        pagefile.free(a.page_id)
        b = pagefile.allocate(PageType.DATA)
        assert b.page_id == a.page_id

    def test_free_unknown_raises(self):
        with pytest.raises(KeyError):
            PageFile().free(5)

    def test_page_count(self):
        pagefile = PageFile()
        pagefile.allocate(PageType.DATA)
        pagefile.allocate(PageType.DATA)
        assert pagefile.page_count == 2

    def test_allocated_pages_are_on_disk_unaccounted(self):
        pagefile = PageFile()
        page = pagefile.allocate(PageType.DATA)
        assert pagefile.disk.stats.writes == 0
        assert pagefile.disk.peek(page.page_id) is page

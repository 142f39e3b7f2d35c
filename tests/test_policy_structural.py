"""Tests for the structural LRU variants: LRU-T and LRU-P (Section 2.1)."""

from __future__ import annotations

from repro.buffer.manager import BufferManager
from repro.buffer.policies.lru_p import LRUP, level_priority
from repro.buffer.policies.lru_t import LRUT
from repro.geometry.rect import Rect
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page, PageEntry, PageType


def typed_disk():
    """Pages 0-2 object, 3-5 data, 6-8 directory (levels 1, 2, 3)."""
    disk = SimulatedDisk()
    specs = [
        (0, PageType.OBJECT, -1),
        (1, PageType.OBJECT, -1),
        (2, PageType.OBJECT, -1),
        (3, PageType.DATA, 0),
        (4, PageType.DATA, 0),
        (5, PageType.DATA, 0),
        (6, PageType.DIRECTORY, 1),
        (7, PageType.DIRECTORY, 2),
        (8, PageType.DIRECTORY, 3),
    ]
    for page_id, page_type, level in specs:
        page = Page(page_id=page_id, page_type=page_type, level=level)
        page.entries.append(PageEntry(mbr=Rect(0, 0, 1, 1), payload=page_id))
        disk.store(page)
    return disk


class TestLRUT:
    def test_object_pages_dropped_first(self):
        buffer = BufferManager(typed_disk(), 3, LRUT())
        buffer.fetch(8)  # directory
        buffer.fetch(0)  # object
        buffer.fetch(3)  # data
        buffer.fetch(4)  # miss: the object page must go first
        assert not buffer.contains(0)
        assert buffer.contains(8)
        assert buffer.contains(3)

    def test_data_pages_dropped_before_directory(self):
        buffer = BufferManager(typed_disk(), 2, LRUT())
        buffer.fetch(3)  # data
        buffer.fetch(8)  # directory
        buffer.fetch(6)  # miss: the data page must go, not the directory
        assert not buffer.contains(3)
        assert buffer.contains(8)

    def test_same_type_falls_to_lru(self):
        buffer = BufferManager(typed_disk(), 2, LRUT())
        buffer.fetch(3)
        buffer.fetch(4)
        buffer.fetch(3)  # renew 3
        buffer.fetch(5)  # evicts 4, the older data page
        assert not buffer.contains(4)
        assert buffer.contains(3)


class TestLRUP:
    def test_default_priority_is_level(self):
        object_page = Page(page_id=0, page_type=PageType.OBJECT, level=-1)
        data_page = Page(page_id=1, page_type=PageType.DATA, level=0)
        directory = Page(page_id=2, page_type=PageType.DIRECTORY, level=3)
        assert level_priority(object_page) == -1
        assert level_priority(data_page) == 0
        assert level_priority(directory) == 3

    def test_lower_levels_evicted_first(self):
        buffer = BufferManager(typed_disk(), 3, LRUP())
        buffer.fetch(8)  # level 3
        buffer.fetch(7)  # level 2
        buffer.fetch(3)  # level 0
        buffer.fetch(4)  # miss: evict the level-0 page
        assert not buffer.contains(3)
        assert buffer.contains(7)
        assert buffer.contains(8)

    def test_higher_directory_outranks_lower_directory(self):
        buffer = BufferManager(typed_disk(), 2, LRUP())
        buffer.fetch(8)  # level 3 (root-like)
        buffer.fetch(6)  # level 1
        buffer.fetch(7)  # miss: evict level 1, keep level 3
        assert not buffer.contains(6)
        assert buffer.contains(8)

    def test_same_priority_falls_to_lru(self):
        buffer = BufferManager(typed_disk(), 2, LRUP())
        buffer.fetch(3)
        buffer.fetch(4)
        buffer.fetch(3)
        buffer.fetch(5)
        assert not buffer.contains(4)

    def test_generalises_lru_t_on_tree_pages(self):
        """On directory/data pages LRU-P with level priority acts like LRU-T."""
        for policy_factory in (LRUT, LRUP):
            buffer = BufferManager(typed_disk(), 2, policy_factory())
            buffer.fetch(3)
            buffer.fetch(8)
            buffer.fetch(5)
            assert not buffer.contains(3)
            assert buffer.contains(8)

"""Tests for the grid file."""

from __future__ import annotations

import random

import pytest

from repro.buffer.manager import BufferManager
from repro.buffer.policies.lru import LRU
from repro.geometry.rect import Point, Rect
from repro.sam.gridfile import GridFile
from repro.storage.page import PageType

SPACE = Rect(0.0, 0.0, 1.0, 1.0)


def random_rects(n, seed, extent=0.03):
    rng = random.Random(seed)
    rects = []
    for _ in range(n):
        x, y = rng.random(), rng.random()
        w, h = rng.random() * extent, rng.random() * extent
        rects.append(Rect(x, y, min(x + w, 1.0), min(y + h, 1.0)))
    return rects


def brute_window(rects, window):
    return sorted(i for i, rect in enumerate(rects) if rect.intersects(window))


class TestGridFile:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GridFile(SPACE, bucket_capacity=1)
        with pytest.raises(ValueError):
            GridFile(SPACE, max_splits=0)

    def test_object_outside_space_rejected(self):
        grid = GridFile(SPACE)
        with pytest.raises(ValueError):
            grid.insert(Rect(2.0, 2.0, 3.0, 3.0), 0)

    def test_window_query_matches_brute_force(self):
        rects = random_rects(400, seed=71)
        grid = GridFile(SPACE, bucket_capacity=16, max_splits=12)
        for i, rect in enumerate(rects):
            grid.insert(rect, i)
        rng = random.Random(72)
        for _ in range(20):
            cx, cy = rng.random(), rng.random()
            window = Rect(
                max(0.0, cx - 0.12), max(0.0, cy - 0.12),
                min(1.0, cx + 0.12), min(1.0, cy + 0.12),
            )
            assert sorted(grid.window_query(window)) == brute_window(rects, window)

    def test_point_query(self):
        rects = random_rects(250, seed=73, extent=0.1)
        grid = GridFile(SPACE, bucket_capacity=16)
        for i, rect in enumerate(rects):
            grid.insert(rect, i)
        point = Point(0.52, 0.48)
        expected = sorted(
            i for i, rect in enumerate(rects) if rect.contains_point(point)
        )
        assert sorted(grid.point_query(point)) == expected

    def test_directory_refines_under_load(self):
        grid = GridFile(SPACE, bucket_capacity=8, max_splits=10)
        for i, rect in enumerate(random_rects(300, seed=74)):
            grid.insert(rect, i)
        columns, rows = grid.grid_shape
        assert columns * rows > 1
        assert grid.stats().directory_pages >= 1
        assert grid.stats().data_pages > 1

    def test_directory_cells_partition_space(self):
        grid = GridFile(SPACE, bucket_capacity=8)
        for i, rect in enumerate(random_rects(200, seed=75)):
            grid.insert(rect, i)
        total_area = 0.0
        for page in grid._directory_pages:
            assert page.page_type is PageType.DIRECTORY
            total_area += sum(entry.mbr.area for entry in page.entries)
        assert total_area == pytest.approx(SPACE.area)

    def test_delete(self):
        rects = random_rects(150, seed=76)
        grid = GridFile(SPACE, bucket_capacity=12)
        for i, rect in enumerate(rects):
            grid.insert(rect, i)
        for i in range(0, 150, 3):
            assert grid.delete(rects[i], i)
        assert not grid.delete(rects[0], 0)  # already gone
        survivors = sorted(set(range(150)) - set(range(0, 150, 3)))
        assert sorted(grid.window_query(Rect(0, 0, 1, 1))) == survivors

    def test_replicated_extended_objects_deduplicated(self):
        grid = GridFile(SPACE, bucket_capacity=4, max_splits=6)
        wide = Rect(0.1, 0.1, 0.9, 0.9)
        grid.insert(wide, "wide")
        for i, rect in enumerate(random_rects(100, seed=77)):
            grid.insert(rect, i)
        results = grid.window_query(Rect(0.0, 0.0, 1.0, 1.0))
        assert results.count("wide") == 1

    def test_queries_through_buffer(self):
        rects = random_rects(300, seed=78)
        grid = GridFile(SPACE, bucket_capacity=16)
        for i, rect in enumerate(rects):
            grid.insert(rect, i)
        buffer = BufferManager(grid.pagefile.disk, 12, LRU())
        window = Rect(0.3, 0.3, 0.6, 0.6)
        with buffer.query_scope():
            buffered = sorted(grid.window_query(window, buffer))
        assert buffered == brute_window(rects, window)
        assert buffer.stats.misses > 0

    def test_point_query_is_two_accesses_when_refined(self):
        """The grid file's signature property: directory + bucket."""
        grid = GridFile(SPACE, bucket_capacity=8)
        for i, rect in enumerate(random_rects(100, seed=79)):
            grid.insert(rect, i)
        buffer = BufferManager(grid.pagefile.disk, 64, LRU())
        # An interior point (not on a split line: midpoint splits produce
        # dyadic boundaries) lies in exactly one cell.
        with buffer.query_scope():
            grid.point_query(Point(0.51, 0.49), buffer)
        assert buffer.stats.requests == 2

    def test_split_budget_respected(self):
        grid = GridFile(SPACE, bucket_capacity=4, max_splits=3)
        for i in range(200):  # identical location: cannot be separated
            grid.insert(Rect(0.5, 0.5, 0.5, 0.5), i)
        columns, rows = grid.grid_shape
        assert len(grid._x_scale) + len(grid._y_scale) <= 6
        assert sorted(grid.window_query(Rect(0.4, 0.4, 0.6, 0.6))) == list(range(200))


class TestGridFileProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=0.95),
                st.floats(min_value=0.0, max_value=0.95),
                st.floats(min_value=0.0, max_value=0.05),
                st.floats(min_value=0.0, max_value=0.05),
            ),
            min_size=1,
            max_size=120,
        ),
        st.tuples(
            st.floats(min_value=0.0, max_value=0.8),
            st.floats(min_value=0.0, max_value=0.8),
            st.floats(min_value=0.0, max_value=0.3),
            st.floats(min_value=0.0, max_value=0.3),
        ),
    )
    def test_window_query_equals_linear_scan(self, raw_rects, raw_window):
        rects = [Rect(x, y, x + w, y + h) for x, y, w, h in raw_rects]
        wx, wy, ww, wh = raw_window
        window = Rect(wx, wy, wx + ww, wy + wh)
        grid = GridFile(SPACE, bucket_capacity=6, max_splits=8)
        for i, rect in enumerate(rects):
            grid.insert(rect, i)
        assert sorted(grid.window_query(window)) == brute_window(rects, window)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=0.3),
                st.floats(min_value=0.0, max_value=0.3),
            ),
            min_size=1,
            max_size=80,
        ),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=3, max_value=32),
    )
    def test_every_replica_sits_in_every_overlapped_cell(
        self, raw_rects, bucket_capacity, max_splits
    ):
        """Extended objects: a bucket split during an insert refines a scale
        and renumbers the cells the insert has still to visit; the object
        must still reach the bucket of every cell its MBR overlaps."""
        rects = [
            Rect(x, y, min(x + w, 1.0), min(y + h, 1.0)) for x, y, w, h in raw_rects
        ]
        grid = GridFile(
            SPACE, bucket_capacity=bucket_capacity, max_splits=max_splits
        )
        for i, rect in enumerate(rects):
            grid.insert(rect, i)
        for i, rect in enumerate(rects):
            for cell_x, cell_y in grid._cells_overlapping(rect):
                bucket = grid._page(grid._grid[cell_x][cell_y])
                assert any(
                    entry.payload == i and entry.mbr == rect
                    for entry in bucket.entries
                ), f"object {i} missing from cell {(cell_x, cell_y)}"
        for i, rect in enumerate(rects):
            assert i in grid.window_query(rect)


class TestGridFileViaBuffer:
    def test_buffered_inserts_match_plain(self):
        """Directory rebuilds free and reallocate pages; through a buffer
        this exercises the discard/install path (stale-frame regression)."""
        rects = random_rects(250, seed=81)
        plain = GridFile(SPACE, bucket_capacity=8, max_splits=10)
        for i, rect in enumerate(rects):
            plain.insert(rect, i)

        buffered = GridFile(SPACE, bucket_capacity=8, max_splits=10)
        buffer = BufferManager(buffered.pagefile.disk, 6, LRU())
        with buffered.via(buffer):
            for i, rect in enumerate(rects):
                buffered.insert(rect, i)
        window = Rect(0.2, 0.2, 0.7, 0.7)
        assert sorted(buffered.window_query(window)) == sorted(
            plain.window_query(window)
        )
        assert buffer.stats.requests > 0

    def test_buffered_updates_charge_writes(self):
        grid = GridFile(SPACE, bucket_capacity=8)
        buffer = BufferManager(grid.pagefile.disk, 6, LRU())
        with grid.via(buffer):
            for i, rect in enumerate(random_rects(120, seed=82)):
                grid.insert(rect, i)
        buffer.flush()
        assert buffer.stats.writebacks > 0

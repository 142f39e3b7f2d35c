"""Tests for the mqr-tree (Moreau & Osborn).

The contract under test is twofold: the mqr-tree is a *correct* spatial
index (query results equal the R*-tree's on shared datasets) and it
maintains the paper's structural organisation (for point data: zero
overlap between node MBRs at equal levels, every object reachable,
deletion leaves a consistent tree).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffer.manager import BufferManager
from repro.buffer.policies.lru import LRU
from repro.geometry.rect import Point, Rect
from repro.sam.mqr import (
    EQ,
    MqrTree,
    location_of,
    region_contains,
)
from repro.sam.rstar import RStarTree
from repro.storage.page import PageType


def random_points(n, seed):
    rng = random.Random(seed)
    return [
        (Rect(x, y, x, y), i)
        for i, (x, y) in enumerate(
            (rng.random(), rng.random()) for _ in range(n)
        )
    ]


def random_rects(n, seed, extent=0.03):
    rng = random.Random(seed)
    items = []
    for i in range(n):
        x, y = rng.random(), rng.random()
        w, h = rng.random() * extent, rng.random() * extent
        items.append((Rect(x, y, min(x + w, 1.0), min(y + h, 1.0)), i))
    return items


def random_windows(n, seed, extent=0.08):
    rng = random.Random(seed)
    windows = []
    for _ in range(n):
        cx, cy = rng.random(), rng.random()
        windows.append(
            Rect(
                max(0.0, cx - extent),
                max(0.0, cy - extent),
                min(1.0, cx + extent),
                min(1.0, cy + extent),
            )
        )
    return windows


def build(items):
    tree = MqrTree()
    for mbr, payload in items:
        tree.insert(mbr, payload)
    return tree


def equal_level_overlap(tree: MqrTree) -> float:
    """Summed pairwise MBR overlap area between equal-level nodes."""
    by_level: dict[int, list[Rect]] = {}
    for page_id in tree.all_page_ids():
        page = tree.pagefile.disk.peek(page_id)
        by_level.setdefault(page.level, []).append(tree._mbrs[page_id])
    total = 0.0
    for rects in by_level.values():
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                total += rects[i].intersection_area(rects[j])
    return total


class TestLocations:
    def test_five_relations_partition_the_plane(self):
        center = Point(0.5, 0.5)
        rng = random.Random(3)
        seen = set()
        for _ in range(500):
            point = Point(rng.random(), rng.random())
            seen.add(location_of(point, center))
        assert location_of(center, center) == EQ
        # On-axis points derive exactly one compass location each.
        for point in (
            Point(0.5, 0.9), Point(0.9, 0.5), Point(0.5, 0.1), Point(0.1, 0.5)
        ):
            assert location_of(point, center) != EQ
        assert len(seen) >= 4

    def test_regions_are_pairwise_disjoint(self):
        center = Point(0.5, 0.5)
        rng = random.Random(4)
        for _ in range(300):
            x, y = rng.random(), rng.random()
            rect = Rect(x, y, x, y)
            holders = [
                loc for loc in range(4) if region_contains(loc, center, rect)
            ]
            assert len(holders) <= 1
            if holders:
                assert holders[0] == location_of(Point(x, y), center)


class TestMqrTree:
    def test_empty_tree(self):
        tree = MqrTree()
        assert tree.window_query(Rect(0, 0, 1, 1)) == []
        assert tree.point_query(Point(0.5, 0.5)) == []
        assert tree.stats().page_count == 0
        assert not tree.delete(Rect(0, 0, 0, 0), 1)
        tree.validate(strict_regions=True)

    def test_single_object(self):
        tree = MqrTree()
        tree.insert(Rect(0.2, 0.2, 0.2, 0.2), "a")
        assert tree.window_query(Rect(0, 0, 1, 1)) == ["a"]
        assert tree.stats().page_count == 1
        assert tree.stats().height == 1
        tree.validate(strict_regions=True)

    def test_window_queries_match_rstar_ground_truth(self):
        items = random_points(1500, seed=11)
        mqr = build(items)
        rstar = RStarTree()
        rstar.bulk_load(items)
        for window in random_windows(60, seed=12):
            assert sorted(mqr.window_query(window)) == sorted(
                rstar.window_query(window)
            )

    def test_extended_objects_match_rstar_ground_truth(self):
        items = random_rects(1200, seed=13)
        mqr = build(items)
        rstar = RStarTree()
        rstar.bulk_load(items)
        for window in random_windows(60, seed=14):
            assert sorted(mqr.window_query(window)) == sorted(
                rstar.window_query(window)
            )
        mqr.validate()  # extended objects: structural but not strict

    def test_point_queries_match_brute_force(self):
        items = random_rects(600, seed=15, extent=0.1)
        mqr = build(items)
        rng = random.Random(16)
        for _ in range(40):
            point = Point(rng.random(), rng.random())
            expected = sorted(
                payload
                for mbr, payload in items
                if mbr.contains_point(point)
            )
            assert sorted(mqr.point_query(point)) == expected

    def test_zero_equal_level_overlap_for_points(self):
        mqr = build(random_points(2000, seed=19))
        mqr.validate(strict_regions=True)
        assert equal_level_overlap(mqr) == 0.0

    def test_extended_objects_reduce_overlap_per_node_area(self):
        # Extended objects straddling a centroid may break the zero-
        # overlap property (the paper reports "greatly reduced", not
        # zero).  Normalised by summed node MBR area — the indexes have
        # very different node counts — the mqr-tree must stay well below
        # the R*-tree.
        def ratio(mbrs_by_level):
            overlap, area = 0.0, 0.0
            for rects in mbrs_by_level.values():
                for i in range(len(rects)):
                    area += rects[i].area
                    for j in range(i + 1, len(rects)):
                        overlap += rects[i].intersection_area(rects[j])
            return overlap / area

        items = random_rects(1200, seed=20)
        mqr = build(items)
        by_level: dict[int, list[Rect]] = {}
        for page_id in mqr.all_page_ids():
            page = mqr.pagefile.disk.peek(page_id)
            by_level.setdefault(page.level, []).append(mqr._mbrs[page_id])
        rstar = RStarTree()
        rstar.bulk_load(items)
        rstar_by_level: dict[int, list[Rect]] = {}
        for page_id in rstar.all_page_ids():
            page = rstar.pagefile.disk.peek(page_id)
            rstar_by_level.setdefault(page.level, []).append(page.mbr())
        assert ratio(by_level) < ratio(rstar_by_level)

    def test_duplicate_points_bucket_in_eq(self):
        tree = MqrTree()
        for i in range(8):
            tree.insert(Rect(0.5, 0.5, 0.5, 0.5), i)
        tree.insert(Rect(0.1, 0.1, 0.1, 0.1), 100)
        assert sorted(tree.window_query(Rect(0.4, 0.4, 0.6, 0.6))) == list(
            range(8)
        )
        tree.validate(strict_regions=True)
        for i in range(8):
            assert tree.delete(Rect(0.5, 0.5, 0.5, 0.5), i)
        assert tree.window_query(Rect(0, 0, 1, 1)) == [100]
        tree.validate(strict_regions=True)

    def test_delete_then_search_consistency(self):
        items = random_points(900, seed=21)
        mqr = build(items)
        removed = items[::3]
        kept = [item for i, item in enumerate(items) if i % 3 != 0]
        for mbr, payload in removed:
            assert mqr.delete(mbr, payload)
        mqr.validate(strict_regions=True)
        rstar = RStarTree()
        rstar.bulk_load(kept)
        for window in random_windows(40, seed=22):
            assert sorted(mqr.window_query(window)) == sorted(
                rstar.window_query(window)
            )
        assert not mqr.delete(*removed[0][::-1][::-1])  # already gone

    def test_drain_to_empty(self):
        items = random_points(300, seed=23)
        mqr = build(items)
        rng = random.Random(24)
        order = list(items)
        rng.shuffle(order)
        for mbr, payload in order:
            assert mqr.delete(mbr, payload)
            mqr.validate(strict_regions=True)
        assert mqr.root_id is None
        assert mqr.stats().page_count == 0
        assert not mqr.pagefile.disk.page_ids()

    def test_page_types_and_levels(self):
        mqr = build(random_points(500, seed=25))
        stats = mqr.stats()
        assert stats.page_count == stats.directory_pages + stats.data_pages
        assert stats.height > 1
        for page_id in mqr.all_page_ids():
            page = mqr.pagefile.disk.peek(page_id)
            if page.level == 0:
                assert page.page_type is PageType.DATA
            else:
                assert page.page_type is PageType.DIRECTORY

    def test_queries_through_buffer_manager(self):
        items = random_points(800, seed=26)
        mqr = build(items)
        buffer = BufferManager(mqr.pagefile.disk, 24, LRU())
        for window in random_windows(30, seed=27):
            with buffer.query_scope():
                got = mqr.window_query(window, buffer)
            assert sorted(got) == sorted(mqr.window_query(window))
        assert buffer.stats.requests > 0
        assert buffer.stats.hits + buffer.stats.misses == buffer.stats.requests

    def test_buffered_updates_via_accessor(self):
        items = random_points(400, seed=28)
        mqr = build(items[:200])
        buffer = BufferManager(mqr.pagefile.disk, 16, LRU())
        with mqr.via(buffer):
            for mbr, payload in items[200:]:
                mqr.insert(mbr, payload)
            for mbr, payload in items[:50]:
                assert mqr.delete(mbr, payload)
        buffer.flush()
        mqr.validate(strict_regions=True)
        rstar = RStarTree()
        rstar.bulk_load(items[50:])
        for window in random_windows(25, seed=29):
            assert sorted(mqr.window_query(window)) == sorted(
                rstar.window_query(window)
            )


class TestMqrTreeProperties:
    @given(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400),
            st.integers(min_value=0, max_value=400),
        ),
        min_size=1,
        max_size=120,
    ))
    @settings(max_examples=60, deadline=None)
    def test_all_objects_reachable_and_no_equal_level_overlap(self, coords):
        tree = MqrTree()
        for i, (x, y) in enumerate(coords):
            tree.insert(Rect(x / 400, y / 400, x / 400, y / 400), i)
        tree.validate(strict_regions=True)
        assert sorted(tree.window_query(Rect(0, 0, 1, 1))) == list(
            range(len(coords))
        )
        assert equal_level_overlap(tree) == 0.0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=0, max_value=200),
            ),
            min_size=2,
            max_size=80,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_delete_any_subset_stays_consistent(self, coords, rng):
        tree = MqrTree()
        items = [
            (Rect(x / 200, y / 200, x / 200, y / 200), i)
            for i, (x, y) in enumerate(coords)
        ]
        for mbr, payload in items:
            tree.insert(mbr, payload)
        victims = rng.sample(items, k=len(items) // 2)
        for mbr, payload in victims:
            assert tree.delete(mbr, payload)
        tree.validate(strict_regions=True)
        removed = {payload for _, payload in victims}
        survivors = sorted(
            payload for _, payload in items if payload not in removed
        )
        assert sorted(tree.window_query(Rect(0, 0, 1, 1))) == survivors

    @given(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
            st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
        ),
        min_size=1,
        max_size=60,
    ))
    @settings(max_examples=40, deadline=None)
    def test_extended_objects_stay_structurally_sound(self, raw):
        tree = MqrTree()
        items = []
        for i, (x, y, w, h) in enumerate(raw):
            mbr = Rect(x, y, min(x + w, 1.0), min(y + h, 1.0))
            items.append((mbr, i))
            tree.insert(mbr, i)
        tree.validate()
        for window in random_windows(5, seed=31, extent=0.3):
            expected = sorted(
                payload for mbr, payload in items if mbr.intersects(window)
            )
            assert sorted(tree.window_query(window)) == expected


class TestBufferStackAgnosticism:
    """The mqr-tree runs unmodified under the whole buffer stack."""

    def test_sharded_concurrent_buffer(self):
        """Queries through a sharded ConcurrentBufferManager return the
        unbuffered results and keep the accounting identity."""
        from repro.api import BufferSystem

        items = random_rects(600, seed=41)
        tree = build(items)
        system = BufferSystem.build(
            policy="ASB", capacity=16, shards=2, disk=tree.pagefile.disk
        )
        try:
            for window in random_windows(20, seed=42):
                expected = sorted(tree.window_query(window))
                with system.query_scope():
                    got = sorted(tree.window_query(window, system.buffer))
                assert got == expected
            stats = system.stats_snapshot()
            assert stats["hits"] + stats["misses"] == stats["requests"]
            assert stats["requests"] > 0
        finally:
            system.close()

    def test_self_tuning_buffer(self):
        """The tuning controller attaches over an mqr-backed disk."""
        from repro.api import BufferSystem
        from repro.tuning import TuningSpec

        items = random_points(400, seed=43)
        tree = build(items)
        system = BufferSystem.build(
            policy="LRU",
            capacity=12,
            disk=tree.pagefile.disk,
            tuning=TuningSpec(epoch_length=64),
        )
        try:
            for window in random_windows(30, seed=44):
                with system.query_scope():
                    tree.window_query(window, system.buffer)
            assert system.tuner is not None
            stats = system.stats_snapshot()
            assert stats["hits"] + stats["misses"] == stats["requests"]
        finally:
            system.close()

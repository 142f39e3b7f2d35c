"""Tests for the R*-tree: construction, queries, deletion, invariants."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.rect import Point, Rect
from repro.sam.base import DirectAccessor
from repro.sam.rstar import RStarTree
from repro.storage.page import PageType


def random_rects(n, seed, extent=0.05):
    rng = random.Random(seed)
    rects = []
    for _ in range(n):
        x = rng.random()
        y = rng.random()
        w = rng.random() * extent
        h = rng.random() * extent
        rects.append(Rect(x, y, min(x + w, 1.0), min(y + h, 1.0)))
    return rects


def brute_window(rects, window):
    return sorted(i for i, rect in enumerate(rects) if rect.intersects(window))


def brute_point(rects, point):
    return sorted(i for i, rect in enumerate(rects) if rect.contains_point(point))


def build_tree(rects, bulk=False, **kwargs):
    tree = RStarTree(max_dir_entries=8, max_data_entries=8, **kwargs)
    if bulk:
        tree.bulk_load([(rect, i) for i, rect in enumerate(rects)])
    else:
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
    return tree


class TestInsertAndQuery:
    def test_empty_tree(self):
        tree = RStarTree()
        assert tree.window_query(Rect(0, 0, 1, 1)) == []
        assert tree.point_query(Point(0.5, 0.5)) == []
        assert tree.knn(Point(0.5, 0.5), 3) == []

    def test_single_insert(self):
        tree = RStarTree()
        tree.insert(Rect(0.2, 0.2, 0.4, 0.4), "obj")
        assert tree.window_query(Rect(0.0, 0.0, 1.0, 1.0)) == ["obj"]
        assert tree.window_query(Rect(0.5, 0.5, 1.0, 1.0)) == []
        assert tree.height == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RStarTree(max_dir_entries=2)
        with pytest.raises(ValueError):
            RStarTree(min_fill=0.9)

    def test_window_query_matches_brute_force(self):
        rects = random_rects(400, seed=3)
        tree = build_tree(rects)
        rng = random.Random(5)
        for _ in range(25):
            cx, cy = rng.random(), rng.random()
            window = Rect(
                max(0.0, cx - 0.1),
                max(0.0, cy - 0.1),
                min(1.0, cx + 0.1),
                min(1.0, cy + 0.1),
            )
            assert sorted(tree.window_query(window)) == brute_window(rects, window)

    def test_point_query_matches_brute_force(self):
        rects = random_rects(400, seed=4, extent=0.2)
        tree = build_tree(rects)
        rng = random.Random(6)
        for _ in range(25):
            point = Point(rng.random(), rng.random())
            assert sorted(tree.point_query(point)) == brute_point(rects, point)

    def test_validate_after_incremental_build(self):
        tree = build_tree(random_rects(500, seed=7))
        tree.validate()
        assert tree.entry_count == 500

    def test_tree_grows_in_height(self):
        tree = build_tree(random_rects(500, seed=8))
        assert tree.height >= 3

    def test_duplicate_rects_supported(self):
        tree = RStarTree(max_dir_entries=4, max_data_entries=4)
        rect = Rect(0.5, 0.5, 0.6, 0.6)
        for i in range(30):
            tree.insert(rect, i)
        assert sorted(tree.window_query(rect)) == list(range(30))
        tree.validate()

    def test_forced_reinsert_can_be_disabled(self):
        rects = random_rects(200, seed=9)
        tree = build_tree(rects, reinsert_fraction=0.0)
        tree.validate()
        window = Rect(0.2, 0.2, 0.6, 0.6)
        assert sorted(tree.window_query(window)) == brute_window(rects, window)


class TestBulkLoad:
    def test_bulk_load_matches_brute_force(self):
        rects = random_rects(500, seed=10)
        tree = build_tree(rects, bulk=True)
        tree.validate()
        window = Rect(0.3, 0.3, 0.5, 0.5)
        assert sorted(tree.window_query(window)) == brute_window(rects, window)

    def test_bulk_load_on_nonempty_raises(self):
        tree = RStarTree()
        tree.insert(Rect(0, 0, 1, 1), 0)
        with pytest.raises(RuntimeError):
            tree.bulk_load([(Rect(0, 0, 1, 1), 1)])

    def test_bulk_load_empty_is_noop(self):
        tree = RStarTree()
        tree.bulk_load([])
        assert tree.root_id is None
        assert tree.height == 0

    def test_fill_factor_controls_page_count(self):
        rects = random_rects(400, seed=11)
        full = RStarTree(max_dir_entries=8, max_data_entries=8)
        full.bulk_load([(r, i) for i, r in enumerate(rects)], fill=1.0)
        loose = RStarTree(max_dir_entries=8, max_data_entries=8)
        loose.bulk_load([(r, i) for i, r in enumerate(rects)], fill=0.5)
        assert loose.stats().data_pages > full.stats().data_pages

    def test_invalid_fill_raises(self):
        tree = RStarTree()
        with pytest.raises(ValueError):
            tree.bulk_load([(Rect(0, 0, 1, 1), 0)], fill=0.0)

    def test_directory_fraction_is_paper_like(self):
        """With 51/42 capacities the tree should be ~3 % directory pages."""
        rects = random_rects(30_000, seed=12)
        tree = RStarTree()  # paper capacities 51/42
        tree.bulk_load([(r, i) for i, r in enumerate(rects)])
        stats = tree.stats()
        assert 0.01 < stats.directory_fraction < 0.08


class TestDeletion:
    def test_delete_removes_object(self):
        rects = random_rects(150, seed=13)
        tree = build_tree(rects)
        assert tree.delete(rects[7], 7)
        assert 7 not in tree.window_query(Rect(0, 0, 1, 1))
        assert tree.entry_count == 149
        tree.validate()

    def test_delete_missing_returns_false(self):
        tree = build_tree(random_rects(50, seed=14))
        assert not tree.delete(Rect(0.9, 0.9, 0.95, 0.95), 999)

    def test_delete_from_empty_tree(self):
        assert not RStarTree().delete(Rect(0, 0, 1, 1), 0)

    def test_delete_everything(self):
        rects = random_rects(120, seed=15)
        tree = build_tree(rects)
        for i, rect in enumerate(rects):
            assert tree.delete(rect, i), f"object {i} not found"
        assert tree.entry_count == 0
        assert tree.window_query(Rect(0, 0, 1, 1)) == []

    def test_delete_half_keeps_rest_queryable(self):
        rects = random_rects(200, seed=16)
        tree = build_tree(rects)
        for i in range(0, 200, 2):
            assert tree.delete(rects[i], i)
        tree.validate()
        survivors = brute_window(
            [rects[i] for i in range(1, 200, 2)], Rect(0, 0, 1, 1)
        )
        found = sorted(tree.window_query(Rect(0, 0, 1, 1)))
        assert found == list(range(1, 200, 2))

    def test_interleaved_insert_delete(self):
        rng = random.Random(17)
        tree = RStarTree(max_dir_entries=6, max_data_entries=6)
        live = {}
        counter = 0
        for step in range(600):
            if live and rng.random() < 0.4:
                key = rng.choice(list(live))
                assert tree.delete(live.pop(key), key)
            else:
                rect = random_rects(1, seed=1000 + step)[0]
                tree.insert(rect, counter)
                live[counter] = rect
                counter += 1
        tree.validate()
        assert sorted(tree.window_query(Rect(0, 0, 1, 1))) == sorted(live)


class TestKnn:
    def test_knn_matches_brute_force(self):
        rects = random_rects(300, seed=18)
        tree = build_tree(rects)
        rng = random.Random(19)
        for _ in range(10):
            point = Point(rng.random(), rng.random())
            found = tree.knn(point, 5)
            distances = sorted(
                (rect.min_distance_to_point(point), i)
                for i, rect in enumerate(rects)
            )
            expected_distance = distances[4][0]
            found_max = max(
                rects[i].min_distance_to_point(point) for i in found
            )
            assert len(found) == 5
            assert found_max <= expected_distance + 1e-12

    def test_knn_k_larger_than_tree(self):
        rects = random_rects(10, seed=20)
        tree = build_tree(rects)
        assert len(tree.knn(Point(0.5, 0.5), 50)) == 10

    def test_knn_zero_k(self):
        tree = build_tree(random_rects(10, seed=21))
        assert tree.knn(Point(0.5, 0.5), 0) == []


class TestAccessors:
    def test_direct_accessor_counts_reads(self, small_tree):
        accessor = DirectAccessor(small_tree.pagefile)
        before = small_tree.pagefile.disk.stats.reads
        small_tree.window_query(Rect(0.4, 0.4, 0.6, 0.6), accessor)
        assert small_tree.pagefile.disk.stats.reads > before

    def test_build_accessor_is_unaccounted(self, small_tree):
        before = small_tree.pagefile.disk.stats.reads
        small_tree.window_query(Rect(0.4, 0.4, 0.6, 0.6))
        assert small_tree.pagefile.disk.stats.reads == before

    def test_root_is_fetched_every_query(self, small_tree):
        accessor = DirectAccessor(small_tree.pagefile)
        before = small_tree.pagefile.disk.stats.reads
        small_tree.point_query(Point(-5.0, -5.0), accessor)  # outside space
        assert small_tree.pagefile.disk.stats.reads == before + 1


class TestStats:
    def test_stats_counts_pages_by_type(self):
        tree = build_tree(random_rects(300, seed=22))
        stats = tree.stats()
        assert stats.page_count == stats.directory_pages + stats.data_pages
        assert stats.entry_count == 300
        assert stats.height == tree.height
        assert stats.directory_pages >= 1

    def test_page_types_match_levels(self):
        tree = build_tree(random_rects(300, seed=23))
        for page_id in tree.all_page_ids():
            page = tree.pagefile.disk.peek(page_id)
            if page.level == 0:
                assert page.page_type is PageType.DATA
            else:
                assert page.page_type is PageType.DIRECTORY


class TestPropertyBased:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
        tree = RStarTree(max_dir_entries=5, max_data_entries=5)
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        tree.validate()
        assert sorted(tree.window_query(window)) == brute_window(rects, window)


class TestVectorisedChooseSubtree:
    def test_numpy_path_matches_scalar_key(self):
        """The vectorised leaf-level ChooseSubtree must pick an entry whose
        key equals the scalar minimum (ties may resolve either way)."""
        import random

        from repro.sam import rstar as rstar_module
        from repro.storage.page import PageEntry

        if rstar_module._numpy() is None:
            pytest.skip("numpy not available")
        rng = random.Random(91)
        for _ in range(25):
            entries = []
            for _ in range(rng.randint(8, 40)):
                x, y = rng.random(), rng.random()
                w, h = rng.random() * 0.2, rng.random() * 0.2
                entries.append(
                    PageEntry(mbr=Rect(x, y, x + w, y + h), child=1)
                )
            new_x, new_y = rng.random(), rng.random()
            new = Rect(new_x, new_y, new_x + 0.05, new_y + 0.05)

            def scalar_key(i):
                candidate = entries[i].mbr
                enlarged = candidate.union(new)
                before = sum(
                    candidate.intersection_area(entries[j].mbr)
                    for j in range(len(entries))
                    if j != i
                )
                after = sum(
                    enlarged.intersection_area(entries[j].mbr)
                    for j in range(len(entries))
                    if j != i
                )
                return (after - before, enlarged.area - candidate.area,
                        candidate.area)

            chosen = rstar_module._choose_subtree_leaf_numpy(entries, new)
            best = min(scalar_key(i) for i in range(len(entries)))
            got = scalar_key(chosen)
            assert all(
                abs(a - b) < 1e-9 for a, b in zip(got, best)
            ), (got, best)

    def test_insertion_build_still_validates(self):
        rects = random_rects(600, seed=92)
        tree = RStarTree()  # paper fanout exercises the numpy path
        for i, rect in enumerate(rects):
            tree.insert(rect, i)
        tree.validate()
        window = Rect(0.25, 0.25, 0.6, 0.6)
        assert sorted(tree.window_query(window)) == brute_window(rects, window)

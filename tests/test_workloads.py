"""Tests for query objects, distributions and named query sets."""

from __future__ import annotations

import pytest

from repro.geometry.rect import Point, Rect
from repro.workloads.distributions import (
    identical_queries,
    independent_queries,
    intensified_queries,
    similar_queries,
    uniform_queries,
)
from repro.workloads.queries import PointQuery, WindowQuery
from repro.workloads.sets import (
    EX_VALUES,
    QUERY_SET_NAMES,
    make_query_set,
    parse_set_name,
)


class TestQueries:
    def test_point_query_region(self):
        query = PointQuery(Point(0.3, 0.4))
        assert query.region == Rect(0.3, 0.4, 0.3, 0.4)

    def test_window_query_region(self):
        window = Rect(0.1, 0.1, 0.2, 0.2)
        assert WindowQuery(window).region == window

    def test_queries_run_against_tree(self, small_tree):
        window = WindowQuery(Rect(0.4, 0.4, 0.6, 0.6))
        point = PointQuery(Point(0.5, 0.5))
        window_results = window.run(small_tree)
        point_results = point.run(small_tree)
        assert set(point_results).issubset(set(window_results))


class TestUniform:
    def test_point_variant(self, unit_space):
        queries = uniform_queries(unit_space, 50, ex=None, seed=1)
        assert len(queries) == 50
        assert all(isinstance(q, PointQuery) for q in queries)

    def test_window_extent(self, unit_space):
        queries = uniform_queries(unit_space, 50, ex=33, seed=2)
        for query in queries:
            assert isinstance(query, WindowQuery)
            # Clipping may shrink boundary windows, never enlarge them.
            assert query.window.width <= 1 / 33 + 1e-12
            assert query.window.height <= 1 / 33 + 1e-12

    def test_covers_empty_space_too(self, unit_space):
        """Uniform queries hit the corners where no data lives."""
        queries = uniform_queries(unit_space, 500, ex=None, seed=3)
        corner = Rect(0.0, 0.0, 0.1, 0.1)
        assert any(corner.contains_point(q.point) for q in queries)

    def test_deterministic(self, unit_space):
        a = uniform_queries(unit_space, 20, ex=100, seed=4)
        b = uniform_queries(unit_space, 20, ex=100, seed=4)
        assert a == b


class TestIdentical:
    def test_window_variant_reuses_object_mbrs(self, small_dataset):
        queries = identical_queries(small_dataset, 40, window=True, seed=5)
        rect_set = set(small_dataset.rects)
        assert all(q.window in rect_set for q in queries)

    def test_point_variant_uses_centers(self, small_dataset):
        queries = identical_queries(small_dataset, 40, window=False, seed=6)
        centers = {rect.center for rect in small_dataset.rects}
        assert all(q.point in centers for q in queries)


class TestPlaceDriven:
    def test_similar_locations_come_from_places(self, small_dataset, small_places):
        queries = similar_queries(
            small_places, small_dataset.space, 40, ex=None, seed=7
        )
        locations = {place.location for place in small_places}
        assert all(q.point in locations for q in queries)

    def test_intensified_prefers_big_places(self, small_dataset, small_places):
        queries = intensified_queries(
            small_places, small_dataset.space, 600, ex=None, seed=8
        )
        by_population = sorted(
            small_places, key=lambda p: p.population, reverse=True
        )
        top_locations = {p.location for p in by_population[:20]}
        top_hits = sum(1 for q in queries if q.point in top_locations)
        # 20 of 200 places uniformly would get ~60 of 600 queries; the
        # sqrt(population) weighting must concentrate clearly more there.
        assert top_hits > 120

    def test_independent_mirrors_x(self, small_dataset, small_places):
        space = small_dataset.space
        queries = independent_queries(small_places, space, 50, ex=None, seed=9)
        mirrored = {
            Point(space.x_min + (space.x_max - p.location.x), p.location.y)
            for p in small_places
        }
        assert all(q.point in mirrored for q in queries)

    def test_window_variants(self, small_dataset, small_places):
        for generator in (similar_queries, intensified_queries, independent_queries):
            queries = generator(small_places, small_dataset.space, 10, 100, 10)
            assert all(isinstance(q, WindowQuery) for q in queries)


class TestSetNames:
    def test_parse_point_sets(self):
        assert parse_set_name("U-P") == ("U", False, None)
        assert parse_set_name("INT-P") == ("INT", False, None)

    def test_parse_window_sets(self):
        assert parse_set_name("U-W-33") == ("U", True, 33)
        assert parse_set_name("IND-W-1000") == ("IND", True, 1000)

    def test_parse_id_w_has_no_ex(self):
        assert parse_set_name("ID-W") == ("ID", True, None)

    @pytest.mark.parametrize(
        "bad", ["X-P", "U", "U-Q", "U-W-", "U-W-abc", "U-W-0", "S-W"]
    )
    def test_malformed_names_raise(self, bad):
        with pytest.raises(ValueError):
            parse_set_name(bad)

    def test_registry_contains_paper_sets(self):
        assert "U-P" in QUERY_SET_NAMES
        assert "ID-W" in QUERY_SET_NAMES
        for ex in EX_VALUES:
            assert f"INT-W-{ex}" in QUERY_SET_NAMES

    @pytest.mark.parametrize("name", QUERY_SET_NAMES)
    def test_every_registered_set_builds(self, name, small_dataset, small_places):
        query_set = make_query_set(name, small_dataset, small_places, 5, seed=1)
        assert len(query_set) == 5
        assert query_set.name == name

    def test_place_sets_require_places(self, small_dataset):
        with pytest.raises(ValueError):
            make_query_set("S-P", small_dataset, None, 5)

    def test_sets_deterministic(self, small_dataset, small_places):
        a = make_query_set("INT-W-33", small_dataset, small_places, 10, seed=2)
        b = make_query_set("INT-W-33", small_dataset, small_places, 10, seed=2)
        assert a.queries == b.queries

    def test_different_sets_use_different_streams(self, small_dataset, small_places):
        similar = make_query_set("S-P", small_dataset, small_places, 20, seed=2)
        independent = make_query_set("IND-P", small_dataset, small_places, 20, seed=2)
        assert similar.queries != independent.queries

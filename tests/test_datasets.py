"""Tests for the synthetic dataset and places generators."""

from __future__ import annotations

import pytest

from repro.datasets.places import synthetic_places
from repro.datasets.stats import describe
from repro.datasets.synthetic import (
    Dataset,
    us_mainland_like,
    world_atlas_like,
)
from repro.geometry.rect import Rect


class TestUsMainlandLike:
    def test_deterministic_under_seed(self):
        a = us_mainland_like(n_objects=500, seed=3)
        b = us_mainland_like(n_objects=500, seed=3)
        assert a.rects == b.rects
        assert a.clusters == b.clusters

    def test_different_seeds_differ(self):
        a = us_mainland_like(n_objects=500, seed=3)
        b = us_mainland_like(n_objects=500, seed=4)
        assert a.rects != b.rects

    def test_object_count(self):
        assert len(us_mainland_like(n_objects=777, seed=1)) == 777

    def test_objects_inside_space(self):
        dataset = us_mainland_like(n_objects=1000, seed=5)
        for rect in dataset.rects:
            assert dataset.space.contains(rect)

    def test_extent_mix(self):
        dataset = us_mainland_like(
            n_objects=2000, seed=6, extended_fraction=0.3
        )
        stats = describe(dataset)
        assert 0.6 < stats.point_fraction < 0.8

    def test_objects_concentrate_on_land(self):
        """Objects live inside the mainland; corners stay empty."""
        dataset = us_mainland_like(n_objects=2000, seed=7)
        corner = Rect(0.0, 0.0, 0.05, 0.05)
        in_corner = sum(1 for r in dataset.rects if r.intersects(corner))
        assert in_corner == 0

    def test_clustering_creates_density_skew(self):
        """The densest cluster centre must hold far more objects than an
        average location — the property behind the intensified result."""
        dataset = us_mainland_like(n_objects=5000, seed=8)
        top = max(dataset.clusters, key=lambda c: c.weight)
        hot = Rect.from_center(top.center, 0.05, 0.05)
        hot_count = sum(1 for r in dataset.rects if hot.contains(r))
        expected_uniform = 5000 * hot.area / 0.55  # mainland ellipse area
        assert hot_count > 3 * expected_uniform

    def test_items_enumerates_ids(self):
        dataset = us_mainland_like(n_objects=10, seed=9)
        items = dataset.items()
        assert [payload for _, payload in items] == list(range(10))


class TestWorldAtlasLike:
    def test_deterministic_under_seed(self):
        a = world_atlas_like(n_objects=500, seed=3)
        b = world_atlas_like(n_objects=500, seed=3)
        assert a.rects == b.rects

    def test_mostly_water(self):
        """The defining property: most of the space holds no objects."""
        dataset = world_atlas_like(n_objects=3000, seed=4)
        stats = describe(dataset)
        assert stats.land_coverage < 0.45

    def test_mirror_of_land_is_mostly_water(self):
        """x-flipping a continent location should usually land in water —
        the mechanism behind the paper's independent-distribution result."""
        dataset = world_atlas_like(n_objects=2000, seed=5)
        hits = 0
        for rect in dataset.rects[:500]:
            mirrored = rect.flipped_x(0.0, 1.0)
            if any(land.intersects(mirrored) for land in dataset.land):
                hits += 1
        assert hits < 350  # clearly fewer than "all"

    def test_extended_fraction_higher_than_db1(self):
        db1 = describe(us_mainland_like(n_objects=1000, seed=1))
        db2 = describe(world_atlas_like(n_objects=1000, seed=1))
        assert db2.point_fraction < db1.point_fraction


class TestPlaces:
    def test_deterministic(self, small_dataset):
        a = synthetic_places(small_dataset, count=100, seed=5)
        b = synthetic_places(small_dataset, count=100, seed=5)
        assert a == b

    def test_count_and_population_bounds(self, small_dataset):
        places = synthetic_places(small_dataset, count=150, seed=6)
        assert len(places) == 150
        assert all(place.population >= 100 for place in places)

    def test_populations_zipf_like(self, small_dataset):
        places = synthetic_places(small_dataset, count=200, seed=7)
        populations = sorted((p.population for p in places), reverse=True)
        # Top place dominates; the tail is shallow.
        assert populations[0] > 10 * populations[50]

    def test_intensified_weight_is_sqrt(self, small_dataset):
        place = synthetic_places(small_dataset, count=10, seed=8)[0]
        assert place.weight_intensified == pytest.approx(place.population**0.5)

    def test_places_inside_space(self, small_dataset):
        for place in synthetic_places(small_dataset, count=200, seed=9):
            assert small_dataset.space.contains_point(place.location)

    def test_big_places_sit_in_heavy_clusters(self, small_dataset):
        """Population correlates with cluster weight (density)."""
        places = synthetic_places(small_dataset, count=300, seed=10)
        clusters = small_dataset.clusters

        def nearest_weight(place):
            return min(
                clusters,
                key=lambda c: c.center.distance_to(place.location),
            ).weight

        by_population = sorted(places, key=lambda p: p.population, reverse=True)
        top_weight = sum(nearest_weight(p) for p in by_population[:30]) / 30
        bottom_weight = sum(nearest_weight(p) for p in by_population[-30:]) / 30
        assert top_weight > bottom_weight

    def test_dataset_without_clusters_raises(self):
        bare = Dataset(name="bare", space=Rect(0, 0, 1, 1), rects=[])
        with pytest.raises(ValueError):
            synthetic_places(bare)


class TestDescribe:
    def test_empty_dataset_raises(self):
        bare = Dataset(name="bare", space=Rect(0, 0, 1, 1), rects=[])
        with pytest.raises(ValueError):
            describe(bare)

    def test_str_rendering(self, small_dataset):
        text = str(describe(small_dataset))
        assert "objects" in text
        assert small_dataset.name in text

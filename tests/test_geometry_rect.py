"""Unit and property tests for rectangles and points."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.rect import (
    Point,
    Rect,
    mbr_of_points,
    mbr_of_rects,
    total_overlap,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


# ----------------------------------------------------------------------
# Point
# ----------------------------------------------------------------------

class TestPoint:
    def test_as_rect_is_degenerate(self):
        rect = Point(2.0, 3.0).as_rect()
        assert rect == Rect(2.0, 3.0, 2.0, 3.0)
        assert rect.area == 0.0

    def test_distance(self):
        assert Point(0.0, 0.0).distance_to(Point(3.0, 4.0)) == 5.0

    def test_distance_is_symmetric(self):
        a, b = Point(1.5, -2.0), Point(-0.5, 7.0)
        assert a.distance_to(b) == b.distance_to(a)

    def test_translated(self):
        assert Point(1.0, 2.0).translated(0.5, -1.0) == Point(1.5, 1.0)

    def test_iteration_unpacks(self):
        x, y = Point(4.0, 5.0)
        assert (x, y) == (4.0, 5.0)


# ----------------------------------------------------------------------
# Rect construction and measures
# ----------------------------------------------------------------------

class TestRectBasics:
    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Rect(1.0, 0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            Rect(0.0, 2.0, 1.0, 0.0)

    def test_from_center(self):
        rect = Rect.from_center(Point(0.5, 0.5), 0.2, 0.4)
        assert rect == Rect(0.4, 0.3, 0.6, 0.7)

    def test_from_center_negative_extent_raises(self):
        with pytest.raises(ValueError):
            Rect.from_center(Point(0, 0), -1.0, 1.0)

    def test_from_points_any_order(self):
        rect = Rect.from_points(Point(3.0, 1.0), Point(0.0, 4.0))
        assert rect == Rect(0.0, 1.0, 3.0, 4.0)

    def test_area_and_margin(self):
        rect = Rect(0.0, 0.0, 2.0, 3.0)
        assert rect.area == 6.0
        assert rect.margin == 10.0

    def test_center(self):
        assert Rect(0.0, 0.0, 2.0, 4.0).center == Point(1.0, 2.0)

    def test_as_tuple(self):
        assert Rect(1.0, 2.0, 3.0, 4.0).as_tuple() == (1.0, 2.0, 3.0, 4.0)


# ----------------------------------------------------------------------
# Predicates
# ----------------------------------------------------------------------

class TestPredicates:
    def test_contains_point_boundary_is_closed(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0)
        assert rect.contains_point(Point(0.0, 0.0))
        assert rect.contains_point(Point(1.0, 1.0))
        assert not rect.contains_point(Point(1.0000001, 0.5))

    def test_contains_rect(self):
        outer = Rect(0.0, 0.0, 10.0, 10.0)
        assert outer.contains(Rect(1.0, 1.0, 9.0, 9.0))
        assert outer.contains(outer)
        assert not outer.contains(Rect(1.0, 1.0, 11.0, 9.0))

    def test_touching_rects_intersect(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(1.0, 0.0, 2.0, 1.0)
        assert a.intersects(b)
        assert a.intersection_area(b) == 0.0

    def test_disjoint_rects(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(2.0, 2.0, 3.0, 3.0)
        assert not a.intersects(b)
        assert a.intersection(b) is None


# ----------------------------------------------------------------------
# Combinations
# ----------------------------------------------------------------------

class TestCombinations:
    def test_intersection_area(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        b = Rect(1.0, 1.0, 3.0, 3.0)
        assert a.intersection_area(b) == 1.0
        assert a.intersection(b) == Rect(1.0, 1.0, 2.0, 2.0)

    def test_union(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        b = Rect(2.0, -1.0, 3.0, 0.5)
        assert a.union(b) == Rect(0.0, -1.0, 3.0, 1.0)

    def test_union_point(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0).union_point(Point(2.0, -1.0))
        assert rect == Rect(0.0, -1.0, 2.0, 1.0)

    def test_enlargement(self):
        a = Rect(0.0, 0.0, 1.0, 1.0)
        assert a.enlargement(Rect(0.25, 0.25, 0.5, 0.5)) == 0.0
        assert a.enlargement(Rect(0.0, 0.0, 2.0, 1.0)) == 1.0


# ----------------------------------------------------------------------
# Transformations
# ----------------------------------------------------------------------

class TestTransformations:
    def test_translated(self):
        rect = Rect(0.0, 0.0, 1.0, 1.0).translated(2.0, 3.0)
        assert rect == Rect(2.0, 3.0, 3.0, 4.0)

    def test_scaled_preserves_center(self):
        rect = Rect(0.0, 0.0, 2.0, 4.0)
        scaled = rect.scaled(0.5)
        assert scaled.center == rect.center
        assert scaled.width == pytest.approx(1.0)
        assert scaled.height == pytest.approx(2.0)

    def test_scaled_negative_raises(self):
        with pytest.raises(ValueError):
            Rect(0.0, 0.0, 1.0, 1.0).scaled(-1.0)

    def test_flipped_x(self):
        rect = Rect(0.1, 0.2, 0.3, 0.4).flipped_x(0.0, 1.0)
        assert rect == Rect(0.7, 0.2, 0.9, 0.4)

    def test_flipped_x_is_involution(self):
        rect = Rect(0.1, 0.2, 0.3, 0.4)
        twice = rect.flipped_x(0.0, 1.0).flipped_x(0.0, 1.0)
        assert twice.as_tuple() == pytest.approx(rect.as_tuple())

    def test_clipped(self):
        bounds = Rect(0.0, 0.0, 1.0, 1.0)
        assert Rect(-1.0, -1.0, 0.5, 0.5).clipped(bounds) == Rect(0.0, 0.0, 0.5, 0.5)
        assert Rect(2.0, 2.0, 3.0, 3.0).clipped(bounds) is None


# ----------------------------------------------------------------------
# MBR helpers
# ----------------------------------------------------------------------

class TestMbrHelpers:
    def test_mbr_of_rects(self):
        result = mbr_of_rects(
            [Rect(0.0, 0.0, 1.0, 1.0), Rect(2.0, -1.0, 3.0, 0.5)]
        )
        assert result == Rect(0.0, -1.0, 3.0, 1.0)

    def test_mbr_of_rects_empty_raises(self):
        with pytest.raises(ValueError):
            mbr_of_rects([])

    def test_mbr_of_points(self):
        result = mbr_of_points([Point(0.0, 5.0), Point(2.0, 1.0)])
        assert result == Rect(0.0, 1.0, 2.0, 5.0)

    def test_mbr_of_points_empty_raises(self):
        with pytest.raises(ValueError):
            mbr_of_points([])

    def test_total_overlap_counts_each_pair_once(self):
        a = Rect(0.0, 0.0, 2.0, 2.0)
        b = Rect(1.0, 1.0, 3.0, 3.0)
        c = Rect(10.0, 10.0, 11.0, 11.0)
        assert total_overlap([a, b, c]) == 1.0
        assert total_overlap([a]) == 0.0
        assert total_overlap([]) == 0.0


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------

class TestRectProperties:
    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        union = a.union(b)
        assert union.contains(a)
        assert union.contains(b)

    @given(rects(), rects())
    def test_intersection_symmetric(self, a, b):
        assert a.intersection_area(b) == b.intersection_area(a)
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_intersection_within_both(self, a, b):
        overlap = a.intersection(b)
        if overlap is not None:
            assert a.contains(overlap)
            assert b.contains(overlap)

    @given(rects(), rects())
    def test_intersection_area_consistent_with_rect(self, a, b):
        overlap = a.intersection(b)
        area = a.intersection_area(b)
        if overlap is None:
            assert area == 0.0
        else:
            assert math.isclose(area, overlap.area, rel_tol=1e-9, abs_tol=1e-12)

    @given(rects())
    def test_area_margin_nonnegative(self, rect):
        assert rect.area >= 0.0
        assert rect.margin >= 0.0

    @given(rects(), rects())
    def test_enlargement_nonnegative(self, a, b):
        assert a.enlargement(b) >= 0.0

    @given(st.lists(rects(), min_size=1, max_size=8))
    def test_mbr_of_rects_is_tight(self, rect_list):
        mbr = mbr_of_rects(rect_list)
        for rect in rect_list:
            assert mbr.contains(rect)
        assert mbr.x_min == min(r.x_min for r in rect_list)
        assert mbr.x_max == max(r.x_max for r in rect_list)
        assert mbr.y_min == min(r.y_min for r in rect_list)
        assert mbr.y_max == max(r.y_max for r in rect_list)

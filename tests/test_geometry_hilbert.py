"""Tests for the Hilbert curve and Hilbert-packed bulk loading."""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.hilbert import hilbert_to_xy, xy_to_hilbert
from repro.geometry.rect import Rect
from repro.sam.rstar import RStarTree

SPACE = Rect(0.0, 0.0, 1.0, 1.0)


class TestHilbertCurve:
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_roundtrip(self, x, y):
        distance = xy_to_hilbert(x, y, bits=8)
        assert hilbert_to_xy(distance, bits=8) == (x, y)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_bijective_on_distances(self, distance):
        x, y = hilbert_to_xy(distance, bits=8)
        assert xy_to_hilbert(x, y, bits=8) == distance

    def test_curve_is_continuous(self):
        """Consecutive distances map to 4-adjacent grid cells — the locality
        property z-order lacks."""
        for distance in range(0, (1 << 8) - 1):
            x1, y1 = hilbert_to_xy(distance, bits=4)
            x2, y2 = hilbert_to_xy(distance + 1, bits=4)
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    def test_origin(self):
        assert xy_to_hilbert(0, 0, bits=8) == 0

    def test_better_locality_than_zorder(self):
        """Walking the curve, Hilbert never jumps spatially; the z-curve
        does (its quadrant-to-quadrant hops).  This is why Hilbert packing
        clusters pages better."""

        def z_cell(code: int) -> tuple[int, int]:
            """The grid cell of a Morton code: its even and odd bits."""
            x = sum(((code >> (2 * i)) & 1) << i for i in range(bits))
            y = sum(((code >> (2 * i + 1)) & 1) << i for i in range(bits))
            return x, y

        bits = 4
        hilbert_max_step = 0
        z_max_step = 0
        for distance in range((1 << (2 * bits)) - 1):
            hx1, hy1 = hilbert_to_xy(distance, bits)
            hx2, hy2 = hilbert_to_xy(distance + 1, bits)
            hilbert_max_step = max(
                hilbert_max_step, abs(hx1 - hx2) + abs(hy1 - hy2)
            )
            zx1, zy1 = z_cell(distance)
            zx2, zy2 = z_cell(distance + 1)
            z_max_step = max(z_max_step, abs(zx1 - zx2) + abs(zy1 - zy2))
        assert hilbert_max_step == 1
        assert z_max_step > 1


class TestHilbertPacking:
    def _rects(self, n=400, seed=9):
        rng = random.Random(seed)
        rects = []
        for _ in range(n):
            x, y = rng.random(), rng.random()
            rects.append(Rect(x, y, min(x + 0.01, 1.0), min(y + 0.01, 1.0)))
        return rects

    def test_hilbert_bulk_load_correct(self):
        rects = self._rects()
        tree = RStarTree(max_dir_entries=8, max_data_entries=8)
        tree.bulk_load([(r, i) for i, r in enumerate(rects)], method="hilbert")
        tree.validate()
        window = Rect(0.2, 0.2, 0.6, 0.6)
        expected = sorted(
            i for i, rect in enumerate(rects) if rect.intersects(window)
        )
        assert sorted(tree.window_query(window)) == expected

    def test_invalid_method_raises(self):
        import pytest

        tree = RStarTree()
        with pytest.raises(ValueError):
            tree.bulk_load([(Rect(0, 0, 1, 1), 0)], method="peano")

    def test_identical_points_pack_safely(self):
        tree = RStarTree(max_dir_entries=6, max_data_entries=6)
        rect = Rect(0.5, 0.5, 0.5, 0.5)
        tree.bulk_load([(rect, i) for i in range(40)], method="hilbert")
        tree.validate()
        assert len(tree.window_query(rect)) == 40

    def test_packing_methods_similar_page_counts(self):
        rects = self._rects()
        items = [(r, i) for i, r in enumerate(rects)]
        str_tree = RStarTree(max_dir_entries=8, max_data_entries=8)
        str_tree.bulk_load(items, method="str")
        hilbert_tree = RStarTree(max_dir_entries=8, max_data_entries=8)
        hilbert_tree.bulk_load(items, method="hilbert")
        assert (
            abs(str_tree.stats().page_count - hilbert_tree.stats().page_count)
            <= 3
        )

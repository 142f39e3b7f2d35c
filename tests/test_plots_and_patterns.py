"""Tests for the ASCII line chart and the drifting-hotspot pattern."""

from __future__ import annotations

import pytest

from repro.experiments.plots import line_chart
from repro.geometry.rect import Rect
from repro.workloads.patterns import drifting_hotspot
from repro.workloads.queries import WindowQuery

SPACE = Rect(0.0, 0.0, 1.0, 1.0)


class TestLineChart:
    def test_renders_rows_and_axis(self):
        chart = line_chart([1, 5, 3, 8, 2], width=10, height=4, label="t")
        lines = chart.splitlines()
        assert len(lines) == 6  # 4 rows + axis + label
        assert lines[-2].strip().startswith("+")
        assert lines[-1].strip() == "t"

    def test_peak_visible_after_downsampling(self):
        values = [0.0] * 500
        values[250] = 10.0
        chart = line_chart(values, width=50, height=5)
        assert "#" in chart

    def test_empty_series(self):
        assert line_chart([]) == "(no data)"

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            line_chart([1.0], width=1)

    def test_constant_series_renders(self):
        chart = line_chart([4.0, 4.0, 4.0], width=10, height=3)
        assert "#" in chart


class TestDriftingHotspot:
    def test_count_and_containment(self):
        queries = drifting_hotspot(SPACE, 40, seed=1)
        assert len(queries) == 40
        for query in queries:
            assert isinstance(query, WindowQuery)
            assert SPACE.contains(query.window)

    def test_hotspot_actually_moves(self):
        queries = drifting_hotspot(SPACE, 60, seed=2)
        centers = [q.window.center for q in queries]
        assert centers[0].distance_to(centers[30]) > 0.2

    def test_deterministic(self):
        assert drifting_hotspot(SPACE, 10, seed=3) == drifting_hotspot(
            SPACE, 10, seed=3
        )

